package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// IOStats is a snapshot of simulated disk activity.
type IOStats struct {
	// Reads is the total number of page reads that reached the disk
	// (buffer hits are not included when reading through a Pager).
	Reads int64
	// SeqReads counts reads of the page physically following the previous
	// one; these need no seek.
	SeqReads int64
	// RandReads counts reads that required a disk seek.
	RandReads int64
}

// Add returns the component-wise sum of s and t.
func (s IOStats) Add(t IOStats) IOStats {
	return IOStats{
		Reads:     s.Reads + t.Reads,
		SeqReads:  s.SeqReads + t.SeqReads,
		RandReads: s.RandReads + t.RandReads,
	}
}

// PageSource is the disk interface the Pager reads through. *Disk is the
// canonical implementation; wrappers (e.g. the fault injector in
// internal/fault) interpose on Read while delegating the statistics, so an
// engine can run on unreliable storage without knowing it.
type PageSource interface {
	// Read fetches the page at pid.
	Read(pid PageID) (*Page, error)
	// NumPages returns the number of pages on the disk.
	NumPages() int
	// Stats returns a snapshot of the I/O statistics.
	Stats() IOStats
	// ResetStats zeroes the I/O statistics and returns the previous
	// snapshot.
	ResetStats() IOStats
}

// Disk simulates a disk holding data pages at consecutive physical
// addresses. It is safe for concurrent use: reads serialize on a mutex (a
// disk head is a serial device, and the sequential/random classification
// depends on the previous read), while the counters themselves are atomic
// so Stats can be sampled without blocking behind an in-flight read.
type Disk struct {
	mu        sync.Mutex
	pages     []*Page
	reads     atomic.Int64
	seqReads  atomic.Int64
	randReads atomic.Int64
	lastRead  PageID
	failOn    func(PageID) error
}

// NewDisk creates a disk from pages. Pages must have consecutive IDs
// starting at 0 (as produced by Paginate); NewDisk returns an error
// otherwise, because physical-order sequential I/O accounting depends on it.
var _ PageSource = (*Disk)(nil)

func NewDisk(pages []*Page) (*Disk, error) {
	for i, p := range pages {
		if p == nil {
			return nil, fmt.Errorf("store: page %d is nil", i)
		}
		if p.ID != PageID(i) {
			return nil, fmt.Errorf("store: page at slot %d has ID %d, want %d", i, p.ID, i)
		}
	}
	return &Disk{pages: pages, lastRead: InvalidPage - 1}, nil
}

// NumPages returns the number of pages on the disk.
func (d *Disk) NumPages() int { return len(d.pages) }

// Dim returns the dimensionality of the stored vectors, 0 for a disk
// without items. It reads no page in the accounting sense.
func (d *Disk) Dim() int {
	for _, p := range d.pages {
		if len(p.Items) > 0 {
			return len(p.Items[0].Vec)
		}
	}
	return 0
}

// Read fetches a page from the disk, updating I/O statistics. It returns an
// error for out-of-range addresses or when failure injection is armed.
func (d *Disk) Read(pid PageID) (*Page, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pid < 0 || int(pid) >= len(d.pages) {
		return nil, fmt.Errorf("store: read of page %d outside disk of %d pages", pid, len(d.pages))
	}
	if d.failOn != nil {
		if err := d.failOn(pid); err != nil {
			return nil, fmt.Errorf("store: injected failure reading page %d: %w", pid, err)
		}
	}
	d.reads.Add(1)
	if pid == d.lastRead+1 {
		d.seqReads.Add(1)
	} else {
		d.randReads.Add(1)
	}
	d.lastRead = pid
	return d.pages[pid], nil
}

// Stats returns a snapshot of the I/O statistics. It is lock-free and may
// be called while reads are in flight.
func (d *Disk) Stats() IOStats {
	return IOStats{
		Reads:     d.reads.Load(),
		SeqReads:  d.seqReads.Load(),
		RandReads: d.randReads.Load(),
	}
}

// ResetStats zeroes the I/O statistics and returns the previous snapshot.
// The sequential-read tracking is reset too.
func (d *Disk) ResetStats() IOStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := IOStats{
		Reads:     d.reads.Swap(0),
		SeqReads:  d.seqReads.Swap(0),
		RandReads: d.randReads.Swap(0),
	}
	d.lastRead = InvalidPage - 1
	return s
}

// FailOn installs a failure-injection hook consulted before every read.
// Passing nil disarms injection. Intended for tests.
func (d *Disk) FailOn(fn func(PageID) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failOn = fn
}
