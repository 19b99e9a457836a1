module metricdb/bench

go 1.24

require metricdb v0.0.0

replace metricdb => ../
