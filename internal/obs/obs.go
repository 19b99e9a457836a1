// Package obs is the observability layer of the query processor: span
// tracing on the monotonic clock with per-phase latency histograms, a
// slow-query log, a bounded trace buffer exportable as JSONL, and a metrics
// registry with Prometheus text exposition. It is stdlib-only and strictly
// observational: nothing in this package influences query answers, page
// scheduling, or the paper's cost counters.
//
// The paper's evaluation (§5.1 I/O cost, §5.2 CPU cost avoidance) is
// expressed in end-of-run totals — pages read, distance calculations,
// avoidance tries. Those totals say nothing about *where wall-clock time
// went inside a batch*: waiting for a page, running the distance kernel
// and probing the triangle-inequality lemmas, or encoding responses. The phase histograms here provide exactly that
// decomposition, the precondition for any further "fast as the hardware
// allows" tuning, and the VA-file line of work (Weber et al., VLDB 1998)
// motivates the same split: its win is shifting cost between approximation
// scan and exact refinement, invisible without per-phase timers.
//
// # Granularity
//
// Every Tracer method is safe — and a near-free no-op — on a nil receiver,
// and no instrumented site is finer than one page pass or one request: the
// clock is never read per item or per (item, query) pair. A pair costs a
// few nanoseconds of triangle-inequality or kernel work, less than the
// clock read that would time it, so a per-pair split reports mostly its own
// overhead. Whether avoidance pays is answered exactly by the AvoidTries,
// Avoided and DistCalcs counters instead. `make obsgate` bounds the enabled
// cost at <= 10 % of a multi-query batch's wall time, measured on the real
// loop.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one stage of query processing whose latency is
// histogrammed separately. The taxonomy follows the life of a multiple
// similarity query: plan the pages, build the query-distance matrix, then
// per page fetch/wait and the page pass (avoidance checks, kernel
// evaluation and answer-list updates together) — plus the serving layer's
// wire codec work and admission wait.
type Phase uint8

// Phases. The String values are the `phase` label on the exported
// metricdb_phase_duration_seconds histogram.
const (
	// PhasePageFetch is one simulated-disk page read (a buffer miss),
	// observed inside the store pager.
	PhasePageFetch Phase = iota
	// PhasePageWait is the query processor's wait for a page: one ReadPage
	// call (buffer hits are ~0).
	PhasePageWait
	// PhasePlan is determine_relevant_data_pages: one engine Plan call.
	PhasePlan
	// PhaseMatrix is the inter-query distance matrix build (§5.2's
	// quadratic-in-m initialization overhead).
	PhaseMatrix
	// PhaseKernel is one page pass: every (item, query) pair of a page
	// through the Lemma-1/2 probes, the bounded distance kernel and the
	// answer-list update. A seed page's evaluation counts as a pass too.
	PhaseKernel
	// PhaseWireDecode is the JSON decode of one wire request.
	PhaseWireDecode
	// PhaseWireEncode is the JSON encode + flush of one wire response.
	PhaseWireEncode
	// PhaseAdmitWait is the time one admitted single query spent in the
	// admission queue before its batch was released (internal/admit).
	PhaseAdmitWait
	// PhaseStorageRead is one real-I/O page read of a file-backed disk
	// (store.FileDisk): the pread (or mapped copy), checksum verification
	// and decode of one page record. A nested refinement of the pager's
	// PhasePageFetch span that attributes how much of a miss was spent in
	// actual storage rather than singleflight bookkeeping.
	PhaseStorageRead

	// NumPhases is the number of phases (array sizing).
	NumPhases = int(iota)
)

var phaseNames = [NumPhases]string{
	"page_fetch",
	"page_wait",
	"plan",
	"matrix",
	"kernel",
	"wire_decode",
	"wire_encode",
	"admit_wait",
	"storage_read",
}

// String returns the phase's label value.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Config tunes a Tracer. The zero value enables everything with defaults.
type Config struct {
	// SlowQueryThreshold is the duration at or above which a finished
	// query call is recorded in the slow-query log. Zero selects
	// DefaultSlowQueryThreshold; a negative value disables the log.
	SlowQueryThreshold time.Duration
}

// DefaultSlowQueryThreshold is what Config's zero SlowQueryThreshold
// selects.
const DefaultSlowQueryThreshold = 100 * time.Millisecond

// The slow-query ring keeps the last slowLogSize records and the span ring
// served by /debug/traces and WriteTraces the last traceBufferSize spans.
const (
	slowLogSize     = 128
	traceBufferSize = 4096
)

// Tracer collects per-phase latency histograms, recent spans, and slow
// queries. All methods are safe on a nil *Tracer (no-ops) and safe for
// concurrent use: histograms are atomic, the rings are mutex-guarded.
type Tracer struct {
	start   time.Time
	hist    [NumPhases]Histogram
	spans   *spanRing
	slow    *SlowLog
	queries atomic.Int64 // query calls observed via RecordQuery
}

// New creates a Tracer. The returned tracer's clock origin is now; span
// timestamps in trace exports are offsets from it.
func New(cfg Config) *Tracer {
	if cfg.SlowQueryThreshold == 0 {
		cfg.SlowQueryThreshold = DefaultSlowQueryThreshold
	}
	t := &Tracer{start: time.Now(), spans: newSpanRing(traceBufferSize)}
	if cfg.SlowQueryThreshold > 0 {
		t.slow = newSlowLog(cfg.SlowQueryThreshold, slowLogSize)
	}
	return t
}

// Enabled reports whether the tracer is live. Hot loops hoist this test
// once per page instead of calling Observe per item.
func (t *Tracer) Enabled() bool { return t != nil }

// Observe records one duration under phase: a histogram sample and a trace
// entry stamped at the observation time.
func (t *Tracer) Observe(p Phase, d time.Duration) {
	if t == nil {
		return
	}
	t.hist[p].Observe(d)
	t.spans.add(span{at: time.Since(t.start) - d, phase: p, dur: d})
}

// ObserveSince records the time elapsed since start under phase.
func (t *Tracer) ObserveSince(p Phase, start time.Time) {
	if t == nil {
		return
	}
	t.Observe(p, time.Since(start))
}

// Span is an in-progress phase measurement. The zero Span (from a nil
// tracer) is valid and End is a no-op on it.
type Span struct {
	t     *Tracer
	phase Phase
	start time.Time
}

// Start begins a span. On a nil tracer it returns the zero Span without
// reading the clock.
func (t *Tracer) Start(p Phase) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, phase: p, start: time.Now()}
}

// End finishes the span and records it.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.Observe(s.phase, time.Since(s.start))
}

// RecordQuery accounts one finished query-processing call: op names the
// entry point ("single", "multi", "multi_all"), m is the batch size, d the
// wall-clock duration, and the counters are the call's own Stats deltas.
// Calls at or above the slow-query threshold land in the slow log.
func (t *Tracer) RecordQuery(op string, m int, d time.Duration, pagesRead, distCalcs, avoided int64) {
	if t == nil {
		return
	}
	t.queries.Add(1)
	if t.slow != nil {
		t.slow.record(op, m, d, pagesRead, distCalcs, avoided)
	}
}

// Queries returns the number of query calls recorded via RecordQuery.
func (t *Tracer) Queries() int64 {
	if t == nil {
		return 0
	}
	return t.queries.Load()
}

// SlowQueries returns the retained slow-query records, oldest first. Nil
// tracers and disabled slow logs return nil.
func (t *Tracer) SlowQueries() []SlowQuery {
	if t == nil || t.slow == nil {
		return nil
	}
	return t.slow.entries()
}

// Snapshot returns a snapshot of one phase's latency histogram.
func (t *Tracer) Snapshot(p Phase) HistSnapshot {
	if t == nil {
		return HistSnapshot{}
	}
	return t.hist[p].Snapshot()
}
