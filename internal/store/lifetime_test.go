package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Every test of the package runs with the poison hook on: a recycled page's
// coordinates are filled with NaN, so a stale reader is wrong loudly even
// when no later read has overwritten what it is looking at yet.
func init() { poisonRecycled = true }

// openStored writes n items of the given shape as a stored dataset, as
// version-2 records with columnar, and opens it, returning the disk and
// the in-memory pages it was written from.
func openStored(t testing.TB, n, dim, capacity int, columnar bool) (*FileDisk, []*Page) {
	t.Helper()
	dir := t.TempDir()
	pages, err := Paginate(testItems(n, dim), capacity)
	if err != nil {
		t.Fatal(err)
	}
	writeDataset(t, dir, pages, DatasetMeta{Dim: dim, PageCapacity: capacity}, columnar)
	fd, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() }) //nolint:errcheck
	return fd, pages
}

func storedPager(t testing.TB, src PageSource, capacity int) *Pager {
	t.Helper()
	buf, err := NewBuffer(capacity)
	if err != nil {
		t.Fatal(err)
	}
	pager, err := NewPager(src, buf)
	if err != nil {
		t.Fatal(err)
	}
	return pager
}

// fingerprint folds everything a reader can see of a page into one word.
func fingerprint(p *Page) uint64 {
	h := uint64(p.ID)*0x9E3779B97F4A7C15 + uint64(len(p.Items))
	for i := range p.Items {
		it := &p.Items[i]
		h = h*1099511628211 + uint64(it.ID)
		h = h*1099511628211 + uint64(int64(it.Label))
		for _, c := range it.Vec {
			h = h*1099511628211 + math.Float64bits(c)
		}
	}
	return h
}

// TestPagerPinsUnderEviction: a page a reader holds is its own until it
// lets go, however hard the others push it out of the buffer. Eight
// goroutines scan a stored dataset through a buffer of one and of two
// pages, each checking the page it holds against the original before and
// after giving the others time to evict it.
func TestPagerPinsUnderEviction(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		for _, capacity := range []int{1, 2} {
			fd, pages := openStored(t, 12*16, 5, 16, columnar)
			want := make([]uint64, len(pages))
			for i, p := range pages {
				want[i] = fingerprint(p)
			}
			pager := storedPager(t, fd, capacity)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 150; i++ {
						pid := PageID((g*5 + i*(g+1)) % len(pages))
						pg, err := pager.ReadPage(pid)
						if err != nil {
							t.Error(err)
							return
						}
						for check := 0; check < 2; check++ {
							if got := fingerprint(pg); got != want[pid] {
								t.Errorf("capacity %d: page %d changed under its reader (check %d, ID now %d, %d items)",
									capacity, pid, check, pg.ID, len(pg.Items))
								return
							}
							runtime.Gosched()
						}
						pager.Release(pg)
					}
				}(g)
			}
			wg.Wait()
			pager.ResetStats() // the buffer's pins go too: every page is back or collected
			st := fd.Storage()
			if st.PagesReused == 0 || st.PagesReused >= 8*150 {
				t.Errorf("capacity %d: %d of %d reads reused a page", capacity, st.PagesReused, 8*150)
			}
			if st.ChecksumFailures != 0 {
				t.Errorf("capacity %d: %d checksum failures", capacity, st.ChecksumFailures)
			}
		}
	}
}

// gatedSource holds every Read at a gate, so a test can pile waiters onto
// one in-flight miss before letting the read through.
type gatedSource struct {
	PageSource
	gate chan struct{}
}

func (s *gatedSource) Read(pid PageID) (*Page, error) {
	<-s.gate
	return s.PageSource.Read(pid)
}

// TestPagerPinsSingleflightWaiters: the callers coalesced onto one miss each
// hold a pin of their own. The page outlives the leader's release and its
// own eviction, and is recycled exactly when the last waiter lets go.
func TestPagerPinsSingleflightWaiters(t *testing.T) {
	const readers = 6
	fd, pages := openStored(t, 4*16, 3, 16, false)
	src := &gatedSource{PageSource: fd, gate: make(chan struct{})}
	pager := storedPager(t, src, 1)

	got := make(chan *Page, readers)
	for r := 0; r < readers; r++ {
		go func() {
			pg, err := pager.ReadPage(2)
			if err != nil {
				t.Error(err)
			}
			got <- pg
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		pager.mu.Lock()
		f := pager.inflight[2]
		joined := f != nil && f.waiters == readers-1
		pager.mu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never joined the flight")
		}
	}
	close(src.gate)
	held := make([]*Page, readers)
	for r := range held {
		held[r] = <-got
		if held[r] != held[0] {
			t.Fatal("coalesced readers got different pages")
		}
	}
	if fd.Stats().Reads != 1 {
		t.Fatalf("%d disk reads for one coalesced miss", fd.Stats().Reads)
	}
	page, want := held[0], fingerprint(pages[2])
	stale := page.Items[len(page.Items)-1].Vec
	if n := page.pins.Load(); n != readers+1 {
		t.Fatalf("page has %d pins, want one per reader plus the buffer's (%d)", n, readers+1)
	}

	pager.Release(held[0]) // the leader, or anyone: one pin
	other, err := pager.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	pager.Release(other) // page 2 is evicted now
	if _, ok := pager.Buffer().Get(2); ok {
		t.Fatal("page 2 still buffered")
	}
	for r := 1; r < readers; r++ {
		if fingerprint(page) != want {
			t.Fatalf("page changed with %d readers still holding it", readers-r)
		}
		if len(fd.free) != 0 {
			t.Fatalf("a page was recycled with %d readers still holding page 2", readers-r)
		}
		pager.Release(held[r])
	}
	if page.ID != InvalidPage || len(page.Items) != 0 || len(fd.free) != 1 {
		t.Fatalf("last release did not recycle the page (ID %d, %d items, %d free)", page.ID, len(page.Items), len(fd.free))
	}
	for _, c := range stale {
		if !math.IsNaN(c) {
			t.Fatal("recycled record not poisoned")
		}
	}
}

// TestPageRecycleNeverReleased: Release is optional. A reader that keeps
// every page it was handed keeps correct, stable items, and nothing is ever
// recycled from under it.
func TestPageRecycleNeverReleased(t *testing.T) {
	fd, pages := openStored(t, 10*16, 4, 16, true)
	pager := storedPager(t, fd, 1)
	var held []*Page
	for round := 0; round < 3; round++ {
		for pid := range pages {
			pg, err := pager.ReadPage(PageID(pid))
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, pg)
		}
	}
	pager.ResetStats()
	for i, pg := range held {
		if !samePage(pg, pages[i%len(pages)]) {
			t.Fatalf("held page %d (read %d) is no longer what was read", pg.ID, i)
		}
	}
	if st := fd.Storage(); len(fd.free) != 0 || st.PagesReused != 0 {
		t.Fatalf("free list %d, reused %d; nothing was released", len(fd.free), st.PagesReused)
	}
}

// TestPageRecycleBufferUnpins: the buffer's pin goes when an entry is
// replaced, evicted or cleared, and a pin dropped twice is a panic.
func TestPageRecycleBufferUnpins(t *testing.T) {
	fd, _ := openStored(t, 4*8, 2, 8, false)
	read := func(pid PageID) *Page {
		t.Helper()
		p, err := fd.Read(pid)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	recycled := func(p *Page) bool { return p.ID == InvalidPage && len(p.Items) == 0 }
	buf, err := NewBuffer(2)
	if err != nil {
		t.Fatal(err)
	}

	a := read(0)
	buf.Put(0, a)
	a.unpin() // the reader's; the buffer's keeps it
	if recycled(a) {
		t.Fatal("page recycled while buffered")
	}
	b := read(0)
	buf.Put(0, b) // replaces a
	if !recycled(a) {
		t.Fatal("replacing a buffer entry did not unpin the old page")
	}
	b.unpin()
	buf.Put(0, b) // refreshing with the same page keeps it
	if recycled(b) {
		t.Fatal("refreshing an entry with its own page recycled it")
	}
	c, d := read(1), read(2)
	buf.Put(1, c)
	c.unpin()
	buf.Put(2, d) // evicts page 0
	d.unpin()
	if !recycled(b) || recycled(c) {
		t.Fatal("eviction did not unpin exactly the least recently used page")
	}
	if got, ok := buf.Get(1); !ok || got != c || c.pins.Load() != 2 {
		t.Fatal("a hit did not pin the page for its reader")
	}
	buf.Clear()
	if recycled(c) || !recycled(d) {
		t.Fatal("Clear must drop the buffer's pins and only those")
	}
	c.unpin()
	if !recycled(c) {
		t.Fatal("last pin did not recycle")
	}
	defer func() {
		if r := recover(); r != "store: page released twice" {
			t.Fatalf("double release: recovered %v", r)
		}
	}()
	c.unpin()
}

// TestPageRecycleDropsRejectedPages: a record that fails a check lands in a
// page that is then nobody's — not served, not cached, not on the free list
// — and the next read of a good page is unaffected by it.
func TestPageRecycleDropsRejectedPages(t *testing.T) {
	fd, pages := openStored(t, 4*16, 4, 16, false)
	pager := storedPager(t, fd, 1)
	scan := func() error {
		for pid := range pages {
			pg, err := pager.ReadPage(PageID(pid))
			if err != nil {
				return err
			}
			if !samePage(pg, pages[pid]) {
				t.Fatalf("page %d read back wrong", pid)
			}
			pager.Release(pg)
		}
		return nil
	}
	if err := scan(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(fd.Dir(), fd.Manifest().PagesFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e := fd.Manifest().Pages[2]
	flip := func() { // damages page 2, or restores it
		t.Helper()
		raw[e.Offset+e.Length/2] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	flip()
	free := len(fd.free)
	if free == 0 {
		t.Fatal("nothing to recycle into: the test would not cover a dirty destination")
	}
	if err := scan(); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("scan over a damaged page: %v", err)
	}
	if _, ok := pager.Buffer().Get(2); ok {
		t.Fatal("rejected page was cached")
	}
	if st := fd.Storage(); st.ChecksumFailures != 1 {
		t.Fatalf("ChecksumFailures = %d, want 1", st.ChecksumFailures)
	}
	if len(fd.free) > free {
		t.Fatal("the rejected destination went back to the free list")
	}
	flip()
	if err := scan(); err != nil {
		t.Fatal(err)
	}
}

// TestStoredScanAllocations is the allocation tripwire — a count, not a
// time. A steady-state scan of a stored dataset through the pager, every
// page released after use, allocates at most one object per page read on
// the default path and copies no coordinate: every vector points into the
// record the pread landed in. (An earlier build allocated upwards of 240:
// the record, the Items array and a vector per item.) Every read after the
// free list's warm-up is a reuse. Both record versions are read.
func TestStoredScanAllocations(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		fd, pages := openStored(t, 30*64, 8, 64, columnar)
		capacity := DefaultBufferPages(len(pages))
		pager := storedPager(t, fd, capacity)
		coords := pageHeaderLen + itemFixedLen // item 0's coordinates, bytes into the record
		if columnar {
			coords = pageHeaderLenV2 + itemFixedLen
		}
		var sink float64
		scan := func() {
			for pid := range pages {
				pg, err := pager.ReadPage(PageID(pid))
				if err != nil {
					t.Fatal(err)
				}
				if unsafe.Pointer(&pg.Items[0].Vec[0]) != unsafe.Pointer(&pg.rec[coords/8]) {
					t.Fatal("page served with its coordinates copied out of the record")
				}
				sink += pg.Items[len(pg.Items)-1].Vec[0]
				pager.Release(pg)
			}
		}
		scan()
		perPage := testing.AllocsPerRun(5, scan) / float64(len(pages))
		if perPage > 1 {
			t.Errorf("columnar=%v: %.2f allocations per page read, want at most 1", columnar, perPage)
		}
		// Fresh pages: what the buffer holds plus the one being read.
		reads, warmup := fd.Stats().Reads, int64(capacity+1)
		if st := fd.Storage(); st.PagesReused != reads-warmup {
			t.Errorf("columnar=%v: %d of %d reads reused a page, want all but the first %d",
				columnar, st.PagesReused, reads, warmup)
		}
	}
}
