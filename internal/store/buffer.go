package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Buffer is a fixed-capacity LRU page buffer. The paper's experiments use a
// buffer sized at 10 % of the index, which DefaultBufferPages computes.
// Buffer is safe for concurrent use; the hit/miss counters are atomic so
// that HitRate can be sampled without contending with readers on the LRU
// lock while queries are running.
// Page IDs are dense from 0: a page is found through a slice indexed by ID.
type Buffer struct {
	mu       sync.Mutex
	capacity int
	// slot[pid] is the index in entries of page pid, 0 when not cached.
	slot []int32
	// entries[1:] are the cached pages in a ring through entries[0], whose
	// next is the most recently used and prev the least.
	entries   []bufferEntry
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type bufferEntry struct {
	pid        PageID
	prev, next int32
	page       *Page
}

// NewBuffer creates an LRU buffer holding up to capacity pages. It returns
// an error if capacity is negative; a zero-capacity buffer is valid and
// caches nothing (every lookup misses).
func NewBuffer(capacity int) (*Buffer, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("store: buffer capacity must be >= 0, got %d", capacity)
	}
	return &Buffer{capacity: capacity, entries: make([]bufferEntry, 1)}, nil
}

// DefaultBufferPages returns the paper's buffer sizing: 10 % of numPages,
// but at least 1 page when the database is non-empty.
func DefaultBufferPages(numPages int) int {
	n := numPages / 10
	if n < 1 && numPages > 0 {
		n = 1
	}
	return n
}

// Get returns the cached page and true on a hit, or nil and false on a miss.
// A hit is pinned for the caller while the LRU lock still guarantees the
// buffer's own pin, so no eviction can recycle it in between.
func (b *Buffer) Get(pid PageID) (*Page, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.find(pid)
	if e == 0 {
		b.misses.Add(1)
		return nil, false
	}
	b.hits.Add(1)
	b.toFront(e)
	pg := b.entries[e].page
	pg.pin(1)
	return pg, true
}

// Put inserts or refreshes a page, evicting the least recently used page if
// the buffer is full. The buffer holds one pin on every page it caches and
// drops it when the page is evicted, replaced or cleared. A full buffer
// reuses the evicted entry, so a steady stream of misses allocates nothing
// here. A negative pid, which names no page, is not cached.
func (b *Buffer) Put(pid PageID, p *Page) {
	if b.capacity == 0 || pid < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p.pin(1)
	e := b.find(pid)
	switch {
	case e != 0:
		b.entries[e].page.unpin()
	case len(b.entries) > b.capacity:
		e = b.entries[0].prev
		b.slot[b.entries[e].pid] = 0
		b.evictions.Add(1)
		b.entries[e].page.unpin()
	default:
		e = int32(len(b.entries))
		b.entries = append(b.entries, bufferEntry{prev: e, next: e}) // linked to itself
	}
	b.entries[e].pid, b.entries[e].page = pid, p
	b.toFront(e)
	if n := int(pid) + 1; n > len(b.slot) {
		b.slot = append(b.slot, make([]int32, n-len(b.slot))...)
	}
	b.slot[pid] = e
}

// find returns the index of page pid's entry, 0 when it is not cached.
func (b *Buffer) find(pid PageID) int32 {
	if pid < 0 || int(pid) >= len(b.slot) {
		return 0
	}
	return b.slot[pid]
}

// toFront unlinks entry e and links it in as the most recently used.
func (b *Buffer) toFront(e int32) {
	es := b.entries
	es[es[e].prev].next, es[es[e].next].prev = es[e].next, es[e].prev
	es[e].prev, es[e].next = 0, es[0].next
	es[es[0].next].prev, es[0].next = e, e
}

// Len returns the number of buffered pages.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries) - 1
}

// Capacity returns the maximum number of buffered pages.
func (b *Buffer) Capacity() int { return b.capacity }

// HitRate returns hits, misses, and the hit ratio (0 when unused). It never
// takes the LRU lock, so sampling it cannot stall concurrent readers.
func (b *Buffer) HitRate() (hits, misses int64, ratio float64) {
	h, m := b.hits.Load(), b.misses.Load()
	if h+m == 0 {
		return h, m, 0
	}
	return h, m, float64(h) / float64(h+m)
}

// Evictions returns the number of LRU evictions since creation (or the last
// Clear). Like HitRate it never takes the LRU lock.
func (b *Buffer) Evictions() int64 { return b.evictions.Load() }

// Clear empties the buffer and resets hit statistics.
func (b *Buffer) Clear() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.entries[1:] {
		e.page.unpin()
	}
	clear(b.entries)
	b.entries = b.entries[:1]
	clear(b.slot)
	b.hits.Store(0)
	b.misses.Store(0)
	b.evictions.Store(0)
}
