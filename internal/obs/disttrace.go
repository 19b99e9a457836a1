package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Distributed tracing. The paper's §5.3 parallelization is shared-nothing —
// a coordinator fans a block of queries out to s servers — so a slow batch
// can only be attributed when the coordinator's view and every server's view
// stitch into one trace. The machinery here is deliberately small: a trace
// is identified by a TraceID minted at the coordinator, every unit of work
// (the batch, one server call attempt, one server-side request handling) is
// a DistSpan carrying its parent SpanID, and spans cross process boundaries
// as plain values (the wire layer serializes them in responses; ImportSpans
// stitches a remote subtree into the local ring). Like the phase spans,
// distributed spans are strictly observational and every method is safe on a
// nil *Tracer.

// TraceID identifies one distributed trace (16 hex digits, minted by the
// coordinator that starts the root span).
type TraceID string

// SpanID identifies one span within a trace (16 hex digits).
type SpanID string

// newID mints a random 64-bit hex ID. crypto/rand keeps IDs collision-free
// across processes without coordination; on the (never-observed) failure
// path a process-local counter keeps IDs at least locally unique.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", idFallback.Add(1))
	}
	return fmt.Sprintf("%016x", binary.BigEndian.Uint64(b[:]))
}

var idFallback atomic.Uint64

// SpanContext is the propagated position in a distributed trace: the trace
// and the span that new child spans should attach under. The zero value
// means "no trace"; starting a child from it starts a new root trace.
type SpanContext struct {
	Trace TraceID `json:"trace"`
	Span  SpanID  `json:"span"`
}

// Valid reports whether the context names a trace.
func (c SpanContext) Valid() bool { return c.Trace != "" && c.Span != "" }

// DistSpan is one completed distributed span. Timestamps are wall-clock
// (UnixNano) so spans recorded on different nodes order on one shared
// timeline; within a node durations still come from the monotonic clock.
type DistSpan struct {
	Trace  TraceID `json:"trace"`
	Span   SpanID  `json:"span"`
	Parent SpanID  `json:"parent,omitempty"`
	// Name is the unit of work: "multi_all", "server_call", "request", ...
	Name string `json:"name"`
	// Node labels the process/server that recorded the span (the tracer's
	// Config.Node, or a label set with SetServer).
	Node string `json:"node,omitempty"`
	// Attempt distinguishes sibling retry spans of one logical call
	// (1 = first try).
	Attempt int `json:"attempt,omitempty"`
	// Err holds the failure that ended the span, empty on success.
	Err         string `json:"err,omitempty"`
	StartUnixNs int64  `json:"start_unix_ns"`
	DurNs       int64  `json:"dur_ns"`
}

// distRing is a bounded ring of distributed spans, newest overwriting
// oldest. Distributed spans are coarse (per batch / per server call), so a
// mutex-guarded ring mirrors spanRing's tradeoff.
type distRing struct {
	mu    sync.Mutex
	ring  []DistSpan
	next  int
	total int64
}

func newDistRing(size int) *distRing {
	if size < 1 {
		size = 1
	}
	return &distRing{ring: make([]DistSpan, 0, size)}
}

func (r *distRing) add(s DistSpan) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
		r.next = len(r.ring) % cap(r.ring)
		return
	}
	r.ring[r.next] = s
	r.next = (r.next + 1) % len(r.ring)
}

func (r *distRing) snapshot() []DistSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DistSpan, 0, len(r.ring))
	if len(r.ring) < cap(r.ring) {
		return append(out, r.ring...)
	}
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// ActiveSpan is an in-progress distributed span. The zero value (and any
// span started on a nil tracer) is inert: every method is a no-op and
// Context returns the zero SpanContext.
type ActiveSpan struct {
	tr    *Tracer
	span  DistSpan
	start time.Time
}

// StartSpan starts a new root span in a fresh trace.
func (t *Tracer) StartSpan(name string) *ActiveSpan {
	return t.StartSpanFrom(SpanContext{}, name)
}

// StartSpanFrom starts a span under parent. An invalid (zero) parent starts
// a new root span in a fresh trace — so a server can call it with whatever
// context a request carried, traced or not.
func (t *Tracer) StartSpanFrom(parent SpanContext, name string) *ActiveSpan {
	if t == nil || t.dist == nil {
		return nil
	}
	sp := &ActiveSpan{
		tr:    t,
		start: time.Now(),
		span: DistSpan{
			Span: SpanID(newID()),
			Name: name,
			Node: t.node,
		},
	}
	if parent.Valid() {
		sp.span.Trace = parent.Trace
		sp.span.Parent = parent.Span
	} else {
		sp.span.Trace = TraceID(newID())
	}
	sp.span.StartUnixNs = sp.start.UnixNano()
	return sp
}

// Context returns the span's propagation context (zero for inert spans).
func (sp *ActiveSpan) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: sp.span.Trace, Span: sp.span.Span}
}

// Tracer returns the tracer the span records to (nil for inert spans).
func (sp *ActiveSpan) Tracer() *Tracer {
	if sp == nil {
		return nil
	}
	return sp.tr
}

// StartChild starts a child span of sp on the same tracer.
func (sp *ActiveSpan) StartChild(name string) *ActiveSpan {
	if sp == nil {
		return nil
	}
	return sp.tr.StartSpanFrom(sp.Context(), name)
}

// SetServer overrides the span's node label (e.g. "srv3" for the
// coordinator's view of a server call).
func (sp *ActiveSpan) SetServer(label string) {
	if sp != nil {
		sp.span.Node = label
	}
}

// SetAttempt tags the span as the n-th attempt of a retried call.
func (sp *ActiveSpan) SetAttempt(n int) {
	if sp != nil {
		sp.span.Attempt = n
	}
}

// SetErr records the failure that the span's work ended with.
func (sp *ActiveSpan) SetErr(err string) {
	if sp != nil {
		sp.span.Err = err
	}
}

// End completes the span and retains it in the tracer's ring.
func (sp *ActiveSpan) End() {
	if sp == nil {
		return
	}
	sp.span.DurNs = int64(time.Since(sp.start))
	sp.tr.dist.add(sp.span)
}

// Span returns a copy of the span as recorded so far (duration filled only
// after End). Inert spans return the zero DistSpan.
func (sp *ActiveSpan) Span() DistSpan {
	if sp == nil {
		return DistSpan{}
	}
	return sp.span
}

// ImportSpans stitches spans recorded elsewhere (a server's response
// subtree) into this tracer's ring, preserving their IDs and timestamps.
func (t *Tracer) ImportSpans(spans []DistSpan) {
	if t == nil || t.dist == nil {
		return
	}
	for _, s := range spans {
		t.dist.add(s)
	}
}

// DistSpans returns the retained distributed spans, oldest first.
func (t *Tracer) DistSpans() []DistSpan {
	if t == nil || t.dist == nil {
		return nil
	}
	return t.dist.snapshot()
}

// DistSpansTotal returns how many distributed spans were recorded or
// imported over the tracer's lifetime.
func (t *Tracer) DistSpansTotal() int64 {
	if t == nil || t.dist == nil {
		return 0
	}
	t.dist.mu.Lock()
	defer t.dist.mu.Unlock()
	return t.dist.total
}

// TraceSpans returns the retained spans of one trace, in recording order.
func (t *Tracer) TraceSpans(id TraceID) []DistSpan {
	var out []DistSpan
	for _, s := range t.DistSpans() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// TraceNode is one span with its stitched children, the tree view of a
// cross-server trace.
type TraceNode struct {
	DistSpan
	Children []*TraceNode `json:"children,omitempty"`
}

// StitchTrace builds the span tree of one trace from a flat span set:
// children attach under their parent, sorted by start time (sibling retry
// attempts therefore appear in firing order); spans whose parent is missing
// from the set (or absent entirely) become roots. A single-root trace
// returns that root; multiple orphans are grouped under a synthetic node so
// the caller always gets one tree.
func StitchTrace(spans []DistSpan, id TraceID) *TraceNode {
	nodes := make(map[SpanID]*TraceNode)
	var ordered []*TraceNode
	for _, s := range spans {
		if s.Trace != id {
			continue
		}
		n := &TraceNode{DistSpan: s}
		nodes[s.Span] = n
		ordered = append(ordered, n)
	}
	if len(ordered) == 0 {
		return nil
	}
	var roots []*TraceNode
	for _, n := range ordered {
		if p, ok := nodes[n.Parent]; ok && n.Parent != "" && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortChildren func(n *TraceNode)
	sortChildren = func(n *TraceNode) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].StartUnixNs < n.Children[j].StartUnixNs
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	if len(roots) == 1 {
		sortChildren(roots[0])
		return roots[0]
	}
	synth := &TraceNode{DistSpan: DistSpan{Trace: id, Name: "(stitched)"}, Children: roots}
	sortChildren(synth)
	return synth
}

// Trace returns the stitched tree of one retained trace, or nil when no
// spans of that trace are retained.
func (t *Tracer) Trace(id TraceID) *TraceNode {
	return StitchTrace(t.DistSpans(), id)
}

// TraceIDs returns the distinct trace IDs among the retained spans, most
// recently recorded last.
func (t *Tracer) TraceIDs() []TraceID {
	seen := make(map[TraceID]bool)
	var out []TraceID
	for _, s := range t.DistSpans() {
		if !seen[s.Trace] {
			seen[s.Trace] = true
			out = append(out, s.Trace)
		}
	}
	return out
}

// WriteDistTraces writes the retained distributed spans as JSONL, oldest
// first, one DistSpan object per line. It returns the number of spans
// written; nil tracers (or disabled retention) write nothing.
func (t *Tracer) WriteDistTraces(w io.Writer) (int, error) {
	spans := t.DistSpans()
	if len(spans) == 0 {
		return 0, nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return 0, err
		}
	}
	return len(spans), bw.Flush()
}
