package store

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"metricdb/internal/obs"
)

// Pager reads pages through an LRU buffer: a buffer hit costs no disk I/O,
// a miss reads from the simulated disk and caches the page. This mirrors the
// paper's setup of a disk-resident database with a buffer of 10 % of the
// index size.
//
// The disk is accessed through the PageSource interface, so a Pager works
// unchanged over a bare *Disk or over a wrapper such as the fault injector.
//
// Pager is safe for concurrent use. Concurrent misses on the same page are
// coalesced into a single disk read ("singleflight"): the first caller goes
// to disk, later callers wait for its result. This keeps the cost-model
// invariant that a page is read from disk at most once per working set even
// when several goroutines — e.g. parallel sessions — request it at the
// same instant.
type Pager struct {
	disk PageSource
	buf  *Buffer

	mu sync.Mutex
	// inflight holds the disk reads in progress, one per concurrent miss.
	inflight []*flight
	// spare is a finished flight nobody waited on, kept for the next miss:
	// a miss with no company, the common case, then allocates nothing. A
	// flight that had waiters is never reused, because they read its page
	// and error after they wake.
	spare *flight

	// tracer, when set, receives a page_fetch span for every disk read the
	// pager issues (buffer hits and singleflight waiters observe nothing).
	// Held in an atomic pointer so SetTracer is safe against concurrent
	// readers; a nil tracer costs one predictable branch per miss.
	tracer atomic.Pointer[obs.Tracer]
}

// flight is one in-progress disk read awaited by one or more callers.
type flight struct {
	pid     PageID
	done    sync.WaitGroup
	waiters int // callers blocked on done; guarded by Pager.mu
	page    *Page
	err     error
}

// NewPager combines a page source and a buffer. A nil buffer means
// unbuffered access (every read hits the disk).
func NewPager(disk PageSource, buf *Buffer) (*Pager, error) {
	if disk == nil {
		return nil, fmt.Errorf("store: pager needs a disk")
	}
	return &Pager{disk: disk, buf: buf}, nil
}

// ReadPage returns the page, going to disk only on a buffer miss. The buffer
// probe happens under the pager lock so that exactly one Get (and so one
// hit-or-miss count) is charged per call, and so that a miss and the
// in-flight registration are atomic — two concurrent misses cannot both
// reach the disk.
//
// Every caller is handed one pin on the page it gets and may hand it back
// with Release; a caller that never does keeps the page alive, as before.
func (p *Pager) ReadPage(pid PageID) (*Page, error) {
	p.mu.Lock()
	if p.buf != nil {
		if pg, ok := p.buf.Get(pid); ok {
			p.mu.Unlock()
			return pg, nil
		}
	}
	for _, f := range p.inflight {
		if f.pid == pid {
			f.waiters++
			p.mu.Unlock()
			f.done.Wait()
			return f.page, f.err
		}
	}
	f := p.spare
	if f == nil {
		f = &flight{}
	}
	p.spare = nil
	f.pid = pid
	f.done.Add(1)
	p.inflight = append(p.inflight, f)
	p.mu.Unlock()

	tr := p.tracer.Load()
	traced := tr.Enabled()
	var fetchStart time.Time
	if traced {
		fetchStart = time.Now()
	}
	page, err := p.disk.Read(pid)
	if traced {
		tr.ObserveSince(obs.PhasePageFetch, fetchStart)
	}
	if err == nil && p.buf != nil {
		// Cache before releasing the waiters, so that by the time any
		// later ReadPage misses the buffer the page can only have been
		// evicted, never "not yet inserted".
		p.buf.Put(pid, page)
	}
	p.mu.Lock()
	p.inflight = slices.DeleteFunc(p.inflight, func(g *flight) bool { return g == f })
	if f.waiters == 0 {
		// Out of inflight, the flight is nobody else's: it goes back as
		// it came, with nothing to hand over.
		f.done.Done()
		p.spare = f
		p.mu.Unlock()
	} else {
		f.page, f.err = page, err
		if err == nil {
			// The reader's own pin came with the read; it pins once more
			// for each waiter before waking them, while nobody else can
			// let go.
			page.pin(f.waiters)
		}
		p.mu.Unlock()
		f.done.Done()
	}
	if err != nil {
		return nil, err
	}
	return page, nil
}

// Release hands back the pin ReadPage gave the caller on page: whoever got
// a page from ReadPage may release it once, after its last read of Items.
// When the buffer has let go of it too, a FileDisk's page is recycled for a
// later read. Releasing is optional — a page never released is never
// recycled and is left to the garbage collector — and on pages of any other
// source it does nothing.
func (p *Pager) Release(page *Page) { page.unpin() }

// SetTracer installs (or, with nil, removes) the tracer that times the
// pager's disk reads as page_fetch spans. It may be called at any time,
// including while reads are in flight. When the underlying page source is
// itself tracer-aware (a FileDisk timing real I/O as storage_read spans),
// the tracer is forwarded so one installation instruments the whole read
// path.
func (p *Pager) SetTracer(tr *obs.Tracer) {
	p.tracer.Store(tr)
	if s, ok := p.disk.(interface{ SetTracer(*obs.Tracer) }); ok {
		s.SetTracer(tr)
	}
}

// Tracer returns the installed tracer, or nil.
func (p *Pager) Tracer() *obs.Tracer { return p.tracer.Load() }

// NumPages returns the number of pages on the underlying disk.
func (p *Pager) NumPages() int { return p.disk.NumPages() }

// Disk returns the underlying page source (for statistics).
func (p *Pager) Disk() PageSource { return p.disk }

// Dim returns the dimensionality of the vectors on the underlying disk, or
// 0 when it is unknown: the disk is empty, or the innermost source (reached
// through Unwrap, like UnwrapSource) is not one that can tell. Callers use
// it to reject a query of the wrong shape before it reaches a distance
// kernel; PageSource itself stays four methods.
func (p *Pager) Dim() int {
	if d, ok := UnwrapSource(p.disk).(interface{ Dim() int }); ok {
		return d.Dim()
	}
	return 0
}

// Buffer returns the buffer, or nil for an unbuffered pager.
func (p *Pager) Buffer() *Buffer { return p.buf }

// ResetStats zeroes disk statistics and clears the buffer so experiments
// start cold, returning the previous disk snapshot.
func (p *Pager) ResetStats() IOStats {
	if p.buf != nil {
		p.buf.Clear()
	}
	return p.disk.ResetStats()
}
