package store

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Buffer is a fixed-capacity LRU page buffer. The paper's experiments use a
// buffer sized at 10 % of the index, which DefaultBufferPages computes.
// Buffer is safe for concurrent use; the hit/miss counters are atomic so
// that HitRate can be sampled without contending with readers on the LRU
// lock while queries are running.
type Buffer struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *bufferEntry
	entries   map[PageID]*bufferEntry
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type bufferEntry struct {
	pid  PageID
	page *Page
	elem *list.Element
}

// NewBuffer creates an LRU buffer holding up to capacity pages. It returns
// an error if capacity is negative; a zero-capacity buffer is valid and
// caches nothing (every lookup misses).
func NewBuffer(capacity int) (*Buffer, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("store: buffer capacity must be >= 0, got %d", capacity)
	}
	return &Buffer{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[PageID]*bufferEntry),
	}, nil
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
	e, ok := b.entries[pid]
	if !ok {
		b.misses.Add(1)
		return nil, false
	}
	b.hits.Add(1)
	b.order.MoveToFront(e.elem)
	e.page.pin(1)
	return e.page, true
}

// Put inserts or refreshes a page, evicting the least recently used page if
// the buffer is full. The buffer holds one pin on every page it caches and
// drops it when the page is evicted, replaced or cleared. A full buffer
// reuses the evicted entry, so a steady stream of misses allocates nothing
// here.
func (b *Buffer) Put(pid PageID, p *Page) {
	if b.capacity == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p.pin(1)
	if e, ok := b.entries[pid]; ok {
		e.page.unpin()
		e.page = p
		b.order.MoveToFront(e.elem)
		return
	}
	if oldest := b.order.Back(); oldest != nil && b.order.Len() >= b.capacity {
		e := oldest.Value.(*bufferEntry)
		delete(b.entries, e.pid)
		b.evictions.Add(1)
		e.page.unpin()
		e.pid, e.page = pid, p
		b.order.MoveToFront(oldest)
		b.entries[pid] = e
		return
	}
	e := &bufferEntry{pid: pid, page: p}
	e.elem = b.order.PushFront(e)
	b.entries[pid] = e
}

// Len returns the number of buffered pages.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.order.Len()
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
	for _, e := range b.entries {
		e.page.unpin()
	}
	b.order.Init()
	b.entries = make(map[PageID]*bufferEntry)
	b.hits.Store(0)
	b.misses.Store(0)
	b.evictions.Store(0)
}
