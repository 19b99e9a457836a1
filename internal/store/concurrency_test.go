package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricdb/internal/vec"
)

func concPages(t *testing.T, n int) []*Page {
	t.Helper()
	pages := make([]*Page, n)
	for i := range pages {
		pages[i] = &Page{ID: PageID(i), Items: []Item{{ID: ItemID(i), Vec: vec.Vector{float64(i)}}}}
	}
	return pages
}

// TestBufferConcurrency hammers Get/Put/HitRate/Len/Clear from many
// goroutines; run under -race it proves the LRU list, entry map and the
// atomic counters tolerate contention, and afterwards the hit+miss total
// must equal the number of Gets issued since the last Clear.
func TestBufferConcurrency(t *testing.T) {
	buf, err := NewBuffer(8)
	if err != nil {
		t.Fatal(err)
	}
	pages := concPages(t, 32)

	const goroutines = 8
	const opsPer = 2000
	var gets atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				pid := PageID((g*7 + i) % len(pages))
				switch i % 4 {
				case 0:
					buf.Put(pid, pages[pid])
				case 1, 2:
					if pg, ok := buf.Get(pid); ok && pg.ID != pid {
						t.Errorf("Get(%d) returned page %d", pid, pg.ID)
					}
					gets.Add(1)
				default:
					buf.HitRate()
					if n := buf.Len(); n < 0 || n > buf.Capacity() {
						t.Errorf("Len() = %d outside [0, %d]", n, buf.Capacity())
					}
				}
			}
		}(g)
	}
	wg.Wait()

	hits, misses, _ := buf.HitRate()
	if hits+misses != gets.Load() {
		t.Errorf("hits %d + misses %d = %d, want %d gets", hits, misses, hits+misses, gets.Load())
	}
	buf.Clear()
	if h, m, _ := buf.HitRate(); h != 0 || m != 0 {
		t.Errorf("Clear left counters at %d/%d", h, m)
	}
	if buf.Len() != 0 {
		t.Errorf("Clear left %d pages buffered", buf.Len())
	}
}

// TestDiskConcurrentStatsSampling checks that the read counters are exact
// under concurrent readers and that Stats can be sampled while reads are
// in flight (it is lock-free and must not block or tear).
func TestDiskConcurrentStatsSampling(t *testing.T) {
	disk, err := NewDisk(concPages(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const readsPer = 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() { // stats sampler racing the readers
		defer close(samplerDone)
		var prev int64
		for {
			select {
			case <-stop:
				return
			default:
				// Counters are loaded individually, so a snapshot may
				// skew between fields mid-flight; the per-counter loads
				// themselves must stay monotonic.
				s := disk.Stats()
				if s.Reads < prev {
					t.Errorf("Reads went backwards: %d after %d", s.Reads, prev)
					return
				}
				prev = s.Reads
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < readsPer; i++ {
				if _, err := disk.Read(PageID((g + i) % disk.NumPages())); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-samplerDone

	s := disk.Stats()
	if want := int64(goroutines * readsPer); s.Reads != want {
		t.Errorf("Reads = %d, want %d", s.Reads, want)
	}
	if s.SeqReads+s.RandReads != s.Reads {
		t.Errorf("SeqReads %d + RandReads %d != Reads %d", s.SeqReads, s.RandReads, s.Reads)
	}
}

// TestPagerSingleflight proves the read-once invariant under concurrency:
// with a buffer large enough to hold the working set, any number of
// goroutines reading any pages concurrently must produce exactly one disk
// read per distinct page — concurrent misses on the same page coalesce
// instead of racing to the disk.
func TestPagerSingleflight(t *testing.T) {
	const numPages = 16
	disk, err := NewDisk(concPages(t, numPages))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := NewBuffer(numPages)
	if err != nil {
		t.Fatal(err)
	}
	pager, err := NewPager(disk, buf)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < numPages; i++ {
				pid := PageID((g + i) % numPages) // staggered starts collide on purpose
				pg, err := pager.ReadPage(pid)
				if err != nil {
					t.Error(err)
					return
				}
				if pg.ID != pid {
					t.Errorf("ReadPage(%d) returned page %d", pid, pg.ID)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := disk.Stats().Reads; got != numPages {
		t.Errorf("disk Reads = %d, want %d (one per distinct page)", got, numPages)
	}
	// A caller that misses the buffer while the page's read is in flight is
	// charged its miss before it joins the flight, so the miss count
	// includes however many waiters the scheduler happened to coalesce;
	// only the disk sees exactly one read per page.
	hits, misses, _ := buf.HitRate()
	if misses < numPages {
		t.Errorf("buffer misses = %d, want at least %d", misses, numPages)
	}
	if hits+misses != goroutines*numPages {
		t.Errorf("hits %d + misses %d != %d ReadPage calls", hits, misses, goroutines*numPages)
	}
}

// TestPagerUncontendedMissAllocatesNothing: a miss nobody waited on leaves
// its flight for the next miss, so reading an in-memory disk through an
// unbuffered pager, or through a buffer of one page that every read
// misses, allocates nothing in steady state. A flight that had waiters is
// not kept: they read its page after they wake.
func TestPagerUncontendedMissAllocatesNothing(t *testing.T) {
	const numPages = 4
	for _, capacity := range []int{0, 1} {
		disk, err := NewDisk(concPages(t, numPages))
		if err != nil {
			t.Fatal(err)
		}
		var buf *Buffer
		if capacity > 0 {
			if buf, err = NewBuffer(capacity); err != nil {
				t.Fatal(err)
			}
		}
		pager, err := NewPager(disk, buf)
		if err != nil {
			t.Fatal(err)
		}
		pid := PageID(0)
		read := func() {
			pg, err := pager.ReadPage(pid % numPages)
			if err != nil || pg.ID != pid%numPages {
				t.Fatalf("ReadPage(%d): page %v, err %v", pid%numPages, pg, err)
			}
			pager.Release(pg)
			pid++
		}
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("buffer of %d: %v allocations a miss, want 0", capacity, got)
		}
		if got := disk.Stats().Reads; got != int64(pid) {
			t.Errorf("buffer of %d: %d disk reads for %d misses", capacity, got, pid)
		}
	}

	disk, err := NewDisk(concPages(t, numPages))
	if err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{PageSource: disk, gate: make(chan struct{})}
	pager, err := NewPager(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Page, 2)
	for r := 0; r < 2; r++ {
		go func() {
			pg, err := pager.ReadPage(1)
			if err != nil {
				t.Error(err)
			}
			got <- pg
		}()
	}
	var f *flight
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		pager.mu.Lock()
		f = flying(pager, 1)
		joined := f != nil && f.waiters == 1
		pager.mu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second reader never joined the flight")
		}
	}
	close(src.gate)
	if a, b := <-got, <-got; a != b || a.ID != 1 {
		t.Fatalf("coalesced readers got pages %v and %v", a, b)
	}
	pager.mu.Lock()
	kept, page := pager.spare == f, f.page
	pager.mu.Unlock()
	if kept || page == nil {
		t.Error("a flight its waiter read from was kept for the next miss")
	}
}

// TestPagerSingleflightError checks that waiters coalesced onto a failed
// read all observe the error and that nothing is cached.
func TestPagerSingleflightError(t *testing.T) {
	disk, err := NewDisk(concPages(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	disk.FailOn(func(pid PageID) error {
		if pid == 2 {
			return boom
		}
		return nil
	})
	buf, err := NewBuffer(4)
	if err != nil {
		t.Fatal(err)
	}
	pager, err := NewPager(disk, buf)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pager.ReadPage(2); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if failed.Load() != goroutines {
		t.Errorf("%d of %d readers saw the injected error", failed.Load(), goroutines)
	}
	if _, ok := buf.Get(2); ok {
		t.Error("failed page was cached")
	}
	disk.FailOn(nil)
	if _, err := pager.ReadPage(2); err != nil {
		t.Errorf("read after disarming injection: %v", err)
	}
}
