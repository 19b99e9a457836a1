package parallel

// Hooks for the external test package: the fan-out table (fanout_test.go)
// serves the same partitions over package wire, which imports this one.

// NewProcessor builds partition i's engine and processor exactly as New
// does, for a test to serve out of process.
var NewProcessor = newProcessor

// BreakerThreshold is the failure count that opens a server's breaker.
const BreakerThreshold = breakerThreshold

// ExpireBreaker ends server i's breaker cooldown now, so the server's next
// call is let through as the probe.
func ExpireBreaker(c *Cluster, i int) { c.breakers[i].expire() }
