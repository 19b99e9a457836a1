// Package store provides the storage substrate of the library: database
// items, fixed-capacity data pages, a simulated disk with I/O accounting,
// and an LRU buffer pool.
//
// The paper measures I/O cost as the number of data pages read from disk
// (with pages ordered by physical address so seeks are minimized). The
// simulated disk reproduces exactly this accounting: every read is counted
// and classified as sequential (next physical page) or random (requires a
// seek), and the buffer pool absorbs re-reads just like the 10 %-of-index
// buffer used in the paper's experiments.
package store

import (
	"fmt"
	"math"
	"sync/atomic"

	"metricdb/internal/vec"
)

// ItemID identifies a database object.
type ItemID uint64

// Item is one database object: an identifier plus its feature vector.
// An optional Label carries class information for the classification
// experiments (it plays no role in query processing).
type Item struct {
	ID    ItemID
	Vec   vec.Vector
	Label int
}

// PageID is the physical address of a data page. Reads of consecutive
// PageIDs are sequential I/O; anything else costs a seek.
type PageID int32

// InvalidPage is the zero-value "no such page" sentinel.
const InvalidPage PageID = -1

// Page is a fixed-capacity data page holding items.
//
// A decoded page (FileDisk, DecodePage) is its record: it owns the record's
// bytes, and every Items[i].Vec points at item i's coordinates inside them,
// cap == len — nothing is copied out. A vector is valid for as long as the
// page is held (see below) and must not be written. A built page's items
// are the caller's, vectors included; they are not copied either.
//
// A page a FileDisk decoded also has a lifetime (the unexported fields; all
// zero on every other page): it counts its holders, and when the last one
// lets go it returns to the disk's free list to be read into again.
type Page struct {
	ID    PageID
	Items []Item
	// pageCompat carries Cols, for bench/ alone (compat.go).
	pageCompat

	home *FileDisk    // takes the page back at zero pins; nil: no lifetime, left to the GC
	pins atomic.Int32 // holders: one per ReadPage caller, one for the buffer
	rec  []uint64     // the record a decoded page was read into; its vectors point here

	// hdrs counts the leading entries of Items' backing array whose vectors
	// are the headers bind writes for a record in rec of dimension hdrDim
	// after a header of hdrLen bytes: a rebind of that shape writes only
	// their IDs and labels. Whatever repoints a vector resets it.
	hdrs, hdrDim, hdrLen int
}

// pin adds n holders. Only a holder may call it (the buffer for a reader
// under the LRU lock, the reading goroutine for its single-flight waiters),
// so a count that reached zero never rises again.
func (p *Page) pin(n int) {
	if p.home != nil {
		p.pins.Add(int32(n))
	}
}

// unpin drops one holder. The last one truncates the page — a stale holder
// then sees no items or an index panic, never another page's — and offers it
// to its disk's bounded free list.
func (p *Page) unpin() {
	if p.home == nil {
		return
	}
	n := p.pins.Add(-1)
	if n < 0 {
		panic("store: page released twice")
	}
	if n > 0 {
		return
	}
	if poisonRecycled {
		for _, it := range p.Items {
			for j := range it.Vec {
				it.Vec[j] = math.NaN()
			}
		}
	}
	p.ID, p.Items = InvalidPage, p.Items[:0]
	select {
	case p.home.free <- p:
	default: // list full: the GC has it
	}
}

// poisonRecycled, a test hook, additionally fills a recycled page's
// coordinates, in its record, with NaN.
var poisonRecycled bool

// Paginate packs items into pages of at most capacity items each, in the
// given order, assigning consecutive PageIDs starting at 0. It returns an
// error if capacity is not positive.
func Paginate(items []Item, capacity int) ([]*Page, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("store: page capacity must be positive, got %d", capacity)
	}
	pages := make([]*Page, 0, (len(items)+capacity-1)/capacity)
	for start := 0; start < len(items); start += capacity {
		end := start + capacity
		if end > len(items) {
			end = len(items)
		}
		pages = append(pages, &Page{
			ID:    PageID(len(pages)),
			Items: items[start:end],
		})
	}
	return pages, nil
}

// CheckFinite returns an error naming the first item, in item order, with a
// NaN or infinite coordinate, and that coordinate's dimension. Such an item
// can never be answered, has no VA-file cell, and breaks the total orders
// the index builds sort and select by.
func CheckFinite(items []Item) error {
	for i := range items {
		// v·0 is ±0 for a finite v and NaN for NaN and ±Inf, so one sum
		// an item spares the scan a branch a coordinate.
		var s float64
		for _, v := range items[i].Vec {
			s += v * 0
		}
		if s == 0 {
			continue
		}
		for d, v := range items[i].Vec {
			if v*0 != 0 {
				return fmt.Errorf("item %d has coordinate %v in dimension %d", items[i].ID, v, d)
			}
		}
	}
	return nil
}

// PageCapacityForBlockSize returns how many d-dimensional float64 items fit
// in a disk block of blockSize bytes, assuming 8 bytes per coordinate plus
// 8 bytes of identifier per item (the layout the paper's 32 KB X-tree blocks
// imply). The result is at least 1 so degenerate configurations still work.
func PageCapacityForBlockSize(blockSize, dim int) int {
	per := 8*dim + 8
	c := blockSize / per
	if c < 1 {
		c = 1
	}
	return c
}
