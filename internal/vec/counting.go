package vec

import "sync/atomic"

// Counting wraps a Metric and counts how many distance calculations are
// performed. The counters are atomic, so one Counting value may be shared
// by the parallel query processor's servers.
//
// Distance calculations are the dominant CPU cost of similarity query
// processing; the paper's Figures 8-10 are all expressed in terms of this
// count, so the wrapper is the instrumentation point for every experiment.
//
// Counting implements BoundedMetric regardless of whether the wrapped
// metric does: DistanceWithin falls back to a full calculation for metrics
// without a native bounded kernel. A bounded evaluation always counts as
// one distance calculation — abandoned or not — so DistCalcs-style
// accounting is independent of whether early abandonment is in effect; the
// abandoned counter additionally records how many of those calculations
// were resolved by the bound instead of running to completion.
type Counting struct {
	inner   Metric
	bounded BoundedMetric // inner's native bounded kernel, or nil
	n       atomic.Int64
	abandon atomic.Int64
}

// NewCounting returns a counting wrapper around m.
func NewCounting(m Metric) *Counting {
	c := &Counting{inner: m}
	if bm, ok := m.(BoundedMetric); ok {
		c.bounded = bm
	}
	return c
}

// Distance computes the wrapped distance and increments the counter.
func (c *Counting) Distance(a, b Vector) float64 {
	c.n.Add(1)
	return c.inner.Distance(a, b)
}

// DistanceWithin evaluates the wrapped distance under limit, counting the
// call as one distance calculation and additionally as abandoned when the
// bound resolved it (within == false). For wrapped metrics without a
// native kernel the distance is computed in full, so an abandoned count
// then records a bound hit rather than saved work.
func (c *Counting) DistanceWithin(a, b Vector, limit float64) (float64, bool) {
	c.n.Add(1)
	var (
		d      float64
		within bool
	)
	if c.bounded != nil {
		d, within = c.bounded.DistanceWithin(a, b, limit)
	} else {
		d = c.inner.Distance(a, b)
		within = d <= limit
	}
	if !within {
		c.abandon.Add(1)
	}
	return d, within
}

// Kernel returns a BoundedMetric view of the wrapped metric that performs
// no counting: the native bounded kernel when the metric has one, or a
// full-calculation adapter otherwise. Hot loops that evaluate many bounded
// distances per page call the kernel directly and settle their counts in
// one AddCalls batch, instead of paying two atomic updates and a wrapper
// frame per evaluation.
func (c *Counting) Kernel() BoundedMetric {
	if c.bounded != nil {
		return c.bounded
	}
	return fullKernel{c.inner}
}

// AddCalls credits a batch of bounded evaluations performed directly on the
// Kernel(): calcs distance calculations, abandoned of which were resolved
// by their limit. The split counters preserve the invariant
// Abandoned() <= Count() exactly as per-call counting would. Zero deltas
// skip their atomic entirely, so a block with nothing abandoned — the
// common case for the no-limit fast paths — settles in a single contended
// add per page pass.
func (c *Counting) AddCalls(calcs, abandoned int64) {
	if calcs != 0 {
		c.n.Add(calcs)
	}
	if abandoned != 0 {
		c.abandon.Add(abandoned)
	}
}

// fullKernel adapts a metric without a native bounded kernel to the
// BoundedMetric contract by always computing the full distance.
type fullKernel struct{ m Metric }

func (f fullKernel) Name() string                 { return f.m.Name() }
func (f fullKernel) Distance(a, b Vector) float64 { return f.m.Distance(a, b) }

func (f fullKernel) DistanceWithin(a, b Vector, limit float64) (float64, bool) {
	d := f.m.Distance(a, b)
	return d, d <= limit
}

// Name returns the wrapped metric's name.
func (c *Counting) Name() string { return c.inner.Name() }

// Count returns the number of distance calculations so far, including
// bounded evaluations that were abandoned early.
func (c *Counting) Count() int64 { return c.n.Load() }

// Abandoned returns how many bounded evaluations were resolved by their
// limit (within == false) so far. Always <= Count().
func (c *Counting) Abandoned() int64 { return c.abandon.Load() }

// Reset sets the counters back to zero and returns the previous total
// calculation count.
func (c *Counting) Reset() int64 {
	c.abandon.Store(0)
	return c.n.Swap(0)
}

// Unwrap returns the underlying metric.
func (c *Counting) Unwrap() Metric { return c.inner }
