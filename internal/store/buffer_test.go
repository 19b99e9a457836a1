package store

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// lruModel is the buffer's reference: an LRU over container/list and a map,
// which is what Buffer was before it indexed its entries by page ID.
type lruModel struct {
	capacity                int
	order                   *list.List // front = most recently used; values modelEntry
	at                      map[PageID]*list.Element
	hits, misses, evictions int64
}

// modelEntry is a cached page under its ID: a page the buffer lets go of
// may be recycled at once, and a recycled page forgets its ID.
type modelEntry struct {
	pid  PageID
	page *Page
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{capacity: capacity, order: list.New(), at: map[PageID]*list.Element{}}
}

func (m *lruModel) get(pid PageID) (*Page, bool) {
	e, ok := m.at[pid]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	m.order.MoveToFront(e)
	return e.Value.(modelEntry).page, true
}

// put returns the page the buffer lets go of, nil when none.
func (m *lruModel) put(pid PageID, p *Page) (dropped *Page) {
	if m.capacity == 0 || pid < 0 {
		return nil
	}
	if e, ok := m.at[pid]; ok {
		dropped, e.Value = e.Value.(modelEntry).page, modelEntry{pid, p}
		m.order.MoveToFront(e)
		return dropped
	}
	if m.order.Len() >= m.capacity {
		back := m.order.Remove(m.order.Back()).(modelEntry)
		delete(m.at, back.pid)
		dropped = back.page
		m.evictions++
	}
	m.at[pid] = m.order.PushFront(modelEntry{pid, p})
	return dropped
}

func (m *lruModel) clear() (dropped []*Page) {
	for e := m.order.Front(); e != nil; e = e.Next() {
		dropped = append(dropped, e.Value.(modelEntry).page)
	}
	m.order.Init()
	m.at = map[PageID]*list.Element{}
	m.hits, m.misses, m.evictions = 0, 0, 0
	return dropped
}

// flying returns the pager's disk read in progress for page pid, nil when
// there is none; the caller holds the pager's lock.
func flying(p *Pager, pid PageID) *flight {
	for _, f := range p.inflight {
		if f.pid == pid {
			return f
		}
	}
	return nil
}

// TestBufferMatchesLRUModel drives the page-indexed buffer and an LRU over
// container/list through the same random Get, Put and Clear calls, at
// capacities 0, 1, 2 and 7, over dense page IDs, sparse ones, IDs past a
// million and the invalid ID, and checks after every call that both hold
// the same pages in the same LRU order (walked from either end of the
// buffer's links), that every cached page is found through its ID and
// nothing else is, that hits, misses and evictions agree, and that every
// page carries exactly the pins its holders account for: one for the
// buffer while it caches the page, one for a caller between a hit and its
// release, none once evicted, replaced or cleared.
func TestBufferMatchesLRUModel(t *testing.T) {
	fd, _ := openStored(t, 16, 2, 4, false)
	ids := func(first, step PageID) []PageID {
		out := make([]PageID, 12)
		for i := range out {
			out[i] = first + PageID(i)*step
		}
		return out
	}
	draws := []struct {
		name string
		ids  []PageID
	}{{"dense", ids(0, 1)}, {"sparse", ids(0, 997)}, {"large", ids(1<<20, 4099)}}
	for _, capacity := range []int{0, 1, 2, 7} {
		for _, draw := range draws {
			t.Run(fmt.Sprintf("%s/capacity%d", draw.name, capacity), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity)*31 + int64(len(draw.name))))
				buf, err := NewBuffer(capacity)
				if err != nil {
					t.Fatal(err)
				}
				model := newLRUModel(capacity)
				pins := map[*Page]int32{} // what every page's count must read
				id := func() PageID {
					if rng.Intn(50) == 0 {
						return InvalidPage
					}
					return draw.ids[rng.Intn(len(draw.ids))]
				}
				for op := 0; op < 3000; op++ {
					switch r := rng.Intn(40); {
					case r < 20:
						pid := id()
						got, hit := buf.Get(pid)
						want, wantHit := model.get(pid)
						if hit != wantHit || got != want {
							t.Fatalf("op %d: Get(%d) = %p, %v; the model's %p, %v", op, pid, got, hit, want, wantHit)
						}
						if hit {
							if n := got.pins.Load(); n != pins[got]+1 {
								t.Fatalf("op %d: a hit left page %d with %d pins, want %d", op, pid, n, pins[got]+1)
							}
							got.unpin() // the caller's release
						}
					case r < 39:
						pid := id()
						p := &Page{ID: pid, home: fd}
						p.pins.Store(1) // the reader's
						buf.Put(pid, p)
						pins[p] = 1
						if d := model.put(pid, p); d != nil {
							pins[d]--
						}
						if capacity > 0 && pid >= 0 {
							pins[p]++ // the buffer's
						}
						p.unpin()
						pins[p]--
					default:
						buf.Clear()
						for _, d := range model.clear() {
							pins[d]--
						}
					}
					checkBufferModel(t, op, buf, model, draw.ids, pins)
				}
			})
		}
	}
}

func checkBufferModel(t *testing.T, op int, buf *Buffer, model *lruModel, ids []PageID, pins map[*Page]int32) {
	t.Helper()
	if buf.Len() != model.order.Len() {
		t.Fatalf("op %d: %d pages buffered, the model %d", op, buf.Len(), model.order.Len())
	}
	e, prev := buf.entries[0].next, int32(0)
	for me := model.order.Front(); me != nil; me = me.Next() {
		if e == 0 {
			t.Fatalf("op %d: the buffer's order ends before the model's", op)
		}
		en, want := &buf.entries[e], me.Value.(modelEntry)
		if en.page != want.page || en.pid != want.pid || en.page.ID != want.pid || en.prev != prev {
			t.Fatalf("op %d: LRU order differs from the model's at page %d", op, en.pid)
		}
		if buf.find(en.pid) != e {
			t.Fatalf("op %d: page %d is not found through its ID", op, en.pid)
		}
		prev, e = e, en.next
	}
	if e != 0 || buf.entries[0].prev != prev {
		t.Fatalf("op %d: the buffer's order runs past the model's, or its last is not the least recently used", op)
	}
	for _, pid := range append(ids, InvalidPage) {
		if _, cached := model.at[pid]; !cached && buf.find(pid) != 0 {
			t.Fatalf("op %d: page %d is found through its ID and not buffered", op, pid)
		}
	}
	hits, misses, _ := buf.HitRate()
	if hits != model.hits || misses != model.misses || buf.Evictions() != model.evictions {
		t.Fatalf("op %d: hits %d, misses %d, evictions %d; the model's %d, %d, %d",
			op, hits, misses, buf.Evictions(), model.hits, model.misses, model.evictions)
	}
	for p, want := range pins {
		if n := p.pins.Load(); n != want {
			t.Fatalf("op %d: page %d has %d pins, want %d", op, p.ID, n, want)
		}
		if want == 0 {
			if p.ID != InvalidPage {
				t.Fatalf("op %d: page %d has no holder left and was not recycled", op, p.ID)
			}
			delete(pins, p)
		}
	}
}
