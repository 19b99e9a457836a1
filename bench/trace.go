package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent indexes the causing span
// (-1 for an op's root span) and Op identifies the operation all spans of
// one request share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// opPending marks a server-side span whose operation is not known until the
// admission block that caused it has been observed (serve_stored).
const opPending = -2

// tracer keeps spans in memory; they are written out after the run. All
// layers are measured from outside: the benchmark times its own calls into
// them and interposes wrappers at interfaces the code already exposes. A
// nil *tracer records nothing and installs no wrappers.
//
// begin/end form a call stack and belong to one goroutine per tracer: the
// caller in the single-caller workloads, the batch former in serve_stored.
// open/close take the parent explicitly and may be used from any goroutine.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span

	cur   int32 // innermost open span of the begin/end goroutine
	curOp int32
	bytes int64 // cost-model bytes of the pages read through tracedSource
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cur: -1, curOp: opPending}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) open(name string, parent, op int32) int32 {
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	// The clock is read after the append so that growing the span slice is
	// not charged to the span.
	t.spans[i].Start = t.now()
	t.mu.Unlock()
	return i
}

func (t *tracer) close(i int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int32 {
	i := t.open(name, t.cur, t.curOp)
	t.cur = i
	return i
}

func (t *tracer) end(i int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.cur = t.spans[i].Parent
	t.mu.Unlock()
}

// reset drops all spans, keeping the buffer.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	t.cur, t.curOp, t.bytes = -1, opPending, 0
}

// tracedSource times PageSource.Read; it is installed through the
// WrapDisk hook every engine config exposes.
type tracedSource struct {
	store.PageSource
	t *tracer
}

func (s *tracedSource) Read(pid store.PageID) (*store.Page, error) {
	i := s.t.begin("store.read")
	p, err := s.PageSource.Read(pid)
	s.t.end(i)
	if err == nil {
		s.t.bytes += pageBytes(p)
	}
	return p, err
}

// Unwrap keeps store.UnwrapSource (and so the FileDisk statistics) working.
func (s *tracedSource) Unwrap() store.PageSource { return s.PageSource }

func (t *tracer) wrapDisk(src store.PageSource) (store.PageSource, error) {
	return &tracedSource{PageSource: src, t: t}, nil
}

// tracedEngine times the engine contract's per-query entry points
// (Prepare, Plan) and page fetches. MinDist and MaxDist are forwarded
// untimed — they are called once per (page, query) and a clock read would
// cost more than the call — so their time stays in the caller's self time.
type tracedEngine struct {
	engine.Engine
	t             *tracer
	prepare, plan string
}

func (t *tracer) wrapEngine(e engine.Engine) engine.Engine {
	return &tracedEngine{Engine: e, t: t, prepare: e.Name() + ".prepare", plan: e.Name() + ".plan"}
}

func (e *tracedEngine) Prepare(q vec.Vector) engine.PreparedQuery {
	i := e.t.begin(e.prepare)
	p := e.Engine.Prepare(q)
	e.t.end(i)
	return &tracedPrepared{PreparedQuery: p, e: e}
}

func (e *tracedEngine) ReadPage(pid store.PageID) (*store.Page, error) {
	i := e.t.begin("store.read_page")
	p, err := e.Engine.ReadPage(pid)
	e.t.end(i)
	return p, err
}

// PivotDistCalcs forwards engine.PivotCoster so Stats.PivotDistCalcs is the
// same with and without the wrapper (zero for engines without pivots).
func (e *tracedEngine) PivotDistCalcs() int64 {
	if pc, ok := e.Engine.(engine.PivotCoster); ok {
		return pc.PivotDistCalcs()
	}
	return 0
}

// Describe forwards engine.Described.
func (e *tracedEngine) Describe() engine.Config {
	if d, ok := e.Engine.(engine.Described); ok {
		return d.Describe()
	}
	return engine.Config{}
}

type tracedPrepared struct {
	engine.PreparedQuery
	e *tracedEngine
}

func (p *tracedPrepared) Plan(queryDist float64) []engine.PageRef {
	i := p.e.t.begin(p.e.plan)
	refs := p.PreparedQuery.Plan(queryDist)
	p.e.t.end(i)
	return refs
}

// spanTotals aggregates a pass's spans by name.
type spanTotals struct {
	count map[string]int64
	dur   map[string]int64 // summed duration, ns
	self  map[string]int64 // summed duration minus the part child spans cover, ns
}

func totals(spans []span) spanTotals {
	st := spanTotals{count: map[string]int64{}, dur: map[string]int64{}, self: map[string]int64{}}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		st.count[s.Name]++
		st.dur[s.Name] += d
		st.self[s.Name] += d - child[i]
	}
	return st
}

// writeSpans writes one span per line to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() //nolint:errcheck // the encode error is reported
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is reported
		return err
	}
	return f.Close()
}
