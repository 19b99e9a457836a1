package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Registry is a metrics registry with Prometheus text exposition. Gauges
// and counters are registered as callbacks, so the registry samples live
// values (buffer hit counters, disk read totals, connection counts) at
// scrape time instead of shadowing them; the tracer contributes the
// per-phase latency histograms and the slow-query counter.
type Registry struct {
	tracer *Tracer

	mu       sync.Mutex
	gauges   []metricDef
	counters []metricDef
}

// metricDef is one registered callback metric.
type metricDef struct {
	name   string
	help   string
	labels string // pre-rendered {k="v",...} or ""
	fn     func() float64
}

// NewRegistry creates a registry. tracer may be nil (histograms are then
// omitted from the exposition).
func NewRegistry(tracer *Tracer) *Registry {
	return &Registry{tracer: tracer}
}

// Tracer returns the registry's tracer (possibly nil).
func (r *Registry) Tracer() *Tracer { return r.tracer }

// Gauge registers a gauge sampled at scrape time. labels is a rendered
// label set such as `engine="scan"` or empty.
func (r *Registry) Gauge(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, metricDef{name: name, help: help, labels: labels, fn: fn})
}

// Counter registers a monotonically increasing total sampled at scrape
// time. By Prometheus convention the name should end in _total.
func (r *Registry) Counter(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = append(r.counters, metricDef{name: name, help: help, labels: labels, fn: fn})
}

// formatFloat renders a sample value in the exposition format.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeFamily writes one metric family: a HELP/TYPE header (once per name)
// and one sample line per definition.
func writeFamily(w io.Writer, typ string, defs []metricDef) error {
	byName := map[string][]metricDef{}
	var names []string
	for _, d := range defs {
		if _, ok := byName[d.name]; !ok {
			names = append(names, d.name)
		}
		byName[d.name] = append(byName[d.name], d)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byName[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, group[0].help, name, typ); err != nil {
			return err
		}
		for _, d := range group {
			labels := ""
			if d.labels != "" {
				labels = "{" + d.labels + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", d.name, labels, formatFloat(d.fn())); err != nil {
				return err
			}
		}
	}
	return nil
}

// PhaseHistogramMetric is the name of the exported per-phase latency
// histogram family.
const PhaseHistogramMetric = "metricdb_phase_duration_seconds"

// PhaseQuantileMetric is the name of the precomputed per-phase quantile
// family (p50/p95/p99 upper-bound estimates, as a gauge with a `quantile`
// label) so operators read latency summaries without post-processing the
// raw buckets.
const PhaseQuantileMetric = "metricdb_phase_duration_quantile_seconds"

// summaryQuantiles are the precomputed quantiles in the exposition.
var summaryQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}

// writePhaseHistograms renders the tracer's phase histograms as one
// Prometheus histogram family with a `phase` label, cumulative buckets in
// seconds.
func writePhaseHistograms(w io.Writer, t *Tracer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s Query-processing phase latency.\n# TYPE %s histogram\n",
		PhaseHistogramMetric, PhaseHistogramMetric); err != nil {
		return err
	}
	for p := 0; p < NumPhases; p++ {
		snap := t.Snapshot(Phase(p))
		name := Phase(p).String()
		var cum int64
		for i, c := range snap.Counts {
			cum += c
			le := "+Inf"
			if b := BucketBound(i); b >= 0 {
				le = formatFloat(b.Seconds())
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{phase=%q,le=%q} %d\n",
				PhaseHistogramMetric, name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum{phase=%q} %s\n", PhaseHistogramMetric, name,
			formatFloat(float64(snap.SumNs)/1e9)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{phase=%q} %d\n", PhaseHistogramMetric, name, snap.Count); err != nil {
			return err
		}
	}
	return nil
}

// writePhaseQuantiles renders the precomputed p50/p95/p99 summary lines per
// phase, skipping empty histograms.
func writePhaseQuantiles(w io.Writer, t *Tracer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s Upper-bound phase latency quantiles, precomputed from the histogram buckets.\n# TYPE %s gauge\n",
		PhaseQuantileMetric, PhaseQuantileMetric); err != nil {
		return err
	}
	for p := 0; p < NumPhases; p++ {
		snap := t.Snapshot(Phase(p))
		if snap.Count == 0 {
			continue
		}
		name := Phase(p).String()
		for _, sq := range summaryQuantiles {
			if _, err := fmt.Fprintf(w, "%s{phase=%q,quantile=%q} %s\n",
				PhaseQuantileMetric, name, sq.label,
				formatFloat(snap.Quantile(sq.q).Seconds())); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus writes the full exposition: the tracer's phase histograms
// with precomputed quantile summaries and its slow-query and query totals,
// then registered counters and gauges.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if t := r.tracer; t != nil {
		if err := writePhaseHistograms(w, t); err != nil {
			return err
		}
		if err := writePhaseQuantiles(w, t); err != nil {
			return err
		}
		tracerCounters := []metricDef{
			{name: "metricdb_slow_queries_total", help: "Query calls at or above the slow-query threshold.",
				fn: func() float64 { return float64(t.SlowQueriesTotal()) }},
			{name: "metricdb_traced_queries_total", help: "Query calls observed by the tracer.",
				fn: func() float64 { return float64(t.Queries()) }},
		}
		if err := writeFamily(w, "counter", tracerCounters); err != nil {
			return err
		}
	}
	r.mu.Lock()
	counters := append([]metricDef(nil), r.counters...)
	gauges := append([]metricDef(nil), r.gauges...)
	r.mu.Unlock()
	if err := writeFamily(w, "counter", counters); err != nil {
		return err
	}
	return writeFamily(w, "gauge", gauges)
}
