package msq

import (
	"fmt"
	"math"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// AvoidanceMode selects which triangle-inequality lemmas the multi-query
// processor applies to avoid distance calculations.
type AvoidanceMode int

// Avoidance modes. The paper always uses both lemmas, because its distance
// functions are expensive (§5.2); the single-lemma modes exist for the
// ablation experiments.
const (
	// AvoidAuto, the zero value, lets New choose from what the metric says
	// about its own cost: a metric with a native early-abandoning kernel
	// (vec.BoundedMetric) runs as AvoidOff — a probe costs about what the
	// abandoned distance it might save does, and the blocked row body beats
	// the lemmas at every dimension measured (BENCH_block.json) — and any
	// other metric, whose every evaluation is a full calculation of unknown
	// cost, runs as AvoidBoth. A Processor never holds AvoidAuto.
	AvoidAuto AvoidanceMode = iota
	// AvoidBoth applies Lemma 1 and Lemma 2 (the paper's method).
	AvoidBoth
	// AvoidOff disables avoidance entirely.
	AvoidOff
	// AvoidLemma1 only skips objects far from a known query object
	// (dist(O,Qj) large, Qi close to Qj).
	AvoidLemma1
	// AvoidLemma2 only skips objects close to a known query object that
	// is far from Qi.
	AvoidLemma2
)

// Validate rejects a value that names no mode.
func (m AvoidanceMode) Validate() error {
	if m < AvoidAuto || m > AvoidLemma2 {
		return fmt.Errorf("msq: unknown avoidance mode %d", int(m))
	}
	return nil
}

// String names the mode.
func (m AvoidanceMode) String() string {
	switch m {
	case AvoidAuto:
		return "auto"
	case AvoidBoth:
		return "both"
	case AvoidOff:
		return "off"
	case AvoidLemma1:
		return "lemma1"
	case AvoidLemma2:
		return "lemma2"
	default:
		return fmt.Sprintf("avoidance(%d)", int(m))
	}
}

// Options tunes the processor.
type Options struct {
	// Avoidance selects the triangle-inequality mode. The zero value,
	// AvoidAuto, is resolved by New; Processor.Options reports the result.
	Avoidance AvoidanceMode
	// Layout is ignored.
	//
	// Deprecated: removed by ROADMAP item 1a (item 8); see compat.go.
	Layout Layout
}

// Query is one element of a multiple similarity query: a caller-chosen
// identity (used to associate buffered partial answers across incremental
// calls), the query object, and the query type.
type Query struct {
	ID   uint64
	Vec  vec.Vector
	Type query.Type
}

// Validate checks the query specification: a valid type and a non-empty
// query object whose coordinates are all finite (a NaN or infinite
// coordinate makes every distance NaN or infinite, which no answer list
// orders).
func (q Query) Validate() error {
	if len(q.Vec) == 0 {
		return fmt.Errorf("msq: query %d has an empty vector", q.ID)
	}
	for i, x := range q.Vec {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("msq: query %d: coordinate %d is %v", q.ID, i, x)
		}
	}
	if err := q.Type.Validate(); err != nil {
		return fmt.Errorf("msq: query %d: %w", q.ID, err)
	}
	return nil
}

// Processor evaluates similarity queries against one engine. It is the
// DB::similarity_query / DB::multiple_similarity_query implementation of
// the paper, parameterized by the physical organization.
type Processor struct {
	eng    engine.Engine
	metric *vec.Counting
	opts   Options
	// tracer, when non-nil, receives per-phase spans and slow-query records
	// for every query this processor evaluates. Nothing is timed at a finer
	// grain than one page pass, so a nil tracer costs a branch per pass and
	// a live one two clock reads (`make obsgate` bounds the latter).
	// Tracing is observation-only: answers and every Stats counter are
	// identical with and without a tracer (pinned by the observation
	// differential test).
	tracer *obs.Tracer
	// dim is the dimensionality of the stored vectors as the engine's
	// pager reports it; 0 when unknown (see CheckQuery).
	dim       int
	rowKernel string     // see RowKernel
	lanes     *vec.Items // the one-query kernel (sweepItems); stateless
	// block is eng as an engine.BlockPreparer, nil when it is not one; a
	// session prepares the queries that enter a call through it together.
	block engine.BlockPreparer
	// perAccept makes the sessions' page passes send every range accept to
	// its list at once instead of staging a page's accepts
	// (pagePass.accept): the path the staging is held to, set only by the
	// test that compares the two.
	perAccept bool
}

// New creates a processor over eng using metric m. The metric is wrapped in
// a counter (reused if m already is one), which is how distance
// calculations are charged.
func New(eng engine.Engine, m vec.Metric, opts Options) (*Processor, error) {
	if eng == nil {
		return nil, fmt.Errorf("msq: nil engine")
	}
	if m == nil {
		return nil, fmt.Errorf("msq: nil metric")
	}
	if err := opts.Avoidance.Validate(); err != nil {
		return nil, err
	}
	counting, ok := m.(*vec.Counting)
	if !ok {
		counting = vec.NewCounting(m)
	}
	if opts.Avoidance == AvoidAuto {
		opts.Avoidance = AvoidBoth
		if _, native := counting.Unwrap().(vec.BoundedMetric); native {
			opts.Avoidance = AvoidOff
		}
	}
	block, _ := eng.(engine.BlockPreparer)
	return &Processor{eng: eng, metric: counting, opts: opts, dim: eng.Pager().Dim(),
		rowKernel: vec.NewRows(counting.Kernel()).ISA(), lanes: vec.NewItems(counting.Kernel()), block: block}, nil
}

// CheckQuery rejects a query this processor cannot evaluate: one that fails
// Validate, or whose dimension differs from the stored vectors'. The
// distance kernels treat a dimension mismatch as a caller's bug and panic,
// so every entry point that accepts a query object from outside checks it
// here first, before Engine.Prepare sees it. When the pager cannot tell the
// data's dimension (an empty dataset, a page source this package does not
// know) only Validate applies.
func (p *Processor) CheckQuery(q Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if p.dim > 0 && len(q.Vec) != p.dim {
		return fmt.Errorf("msq: query %d has dimension %d, the data has dimension %d", q.ID, len(q.Vec), p.dim)
	}
	return nil
}

// Engine returns the underlying engine.
func (p *Processor) Engine() engine.Engine { return p.eng }

// Metric returns the counting metric used for all distance calculations.
func (p *Processor) Metric() *vec.Counting { return p.metric }

// RowKernel names the instruction set the page pass's row body runs on for
// this processor's metric: "avx512", "avx2" or "go" (see vec.Rows.ISA). The
// item-lane kernel follows the same rule without the AVX-512 step: it runs
// "avx2" wherever the row body runs either screen. Where most pairs are
// past their limits, the portable body costs four (dim 8, 16 queries) to
// twenty (dim 20, 100 queries) times the AVX-512 screen per pair
// (BenchmarkRowKernel), so the start-up line, EXPLAIN and /metrics carry
// it.
func (p *Processor) RowKernel() string { return p.rowKernel }

// Options returns the processor options.
func (p *Processor) Options() Options { return p.opts }

// Tracer returns the tracer this processor reports to, or nil.
func (p *Processor) Tracer() *obs.Tracer { return p.tracer }

// WithTracer returns a processor sharing this processor's engine and
// counting metric but reporting phase spans and slow queries to tr (nil
// disables tracing). As a side effect it installs tr on the shared engine's
// pager, so page_fetch spans from the same engine — including those issued
// through other processors over it — are attributed to tr.
func (p *Processor) WithTracer(tr *obs.Tracer) *Processor {
	p.eng.Pager().SetTracer(tr)
	np := *p
	np.tracer = tr
	return &np
}
