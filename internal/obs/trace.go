package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// span is one completed phase measurement retained for trace export.
type span struct {
	at    time.Duration // offset from the tracer's clock origin
	phase Phase
	dur   time.Duration
}

// spanRing is a bounded ring of completed spans; the newest overwrite the
// oldest. A plain mutex suffices: spans are recorded at page/request
// granularity, not per item.
type spanRing struct {
	mu   sync.Mutex
	ring []span
	next int
}

func newSpanRing(size int) *spanRing {
	if size < 1 {
		size = 1
	}
	return &spanRing{ring: make([]span, 0, size)}
}

func (r *spanRing) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
		r.next = len(r.ring) % cap(r.ring)
		return
	}
	r.ring[r.next] = s
	r.next = (r.next + 1) % len(r.ring)
}

func (r *spanRing) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.ring))
	if len(r.ring) < cap(r.ring) {
		return append(out, r.ring...)
	}
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// WriteTraces writes the retained spans as JSONL, oldest first: one object
// per line with the span's start offset from the tracer's clock origin
// (monotonic), its phase, and its duration, both in nanoseconds:
//
//	{"at_ns":1203944,"phase":"kernel","dur_ns":48210}
//
// It returns the number of spans written. A nil tracer writes nothing.
func (t *Tracer) WriteTraces(w io.Writer) (int, error) {
	if t == nil {
		return 0, nil
	}
	spans := t.spans.snapshot()
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		if _, err := fmt.Fprintf(bw, "{\"at_ns\":%d,\"phase\":%q,\"dur_ns\":%d}\n",
			int64(s.at), s.phase.String(), int64(s.dur)); err != nil {
			return 0, err
		}
	}
	return len(spans), bw.Flush()
}
