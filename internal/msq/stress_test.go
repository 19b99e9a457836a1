package msq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Stress tests for the pipeline's shared state, meant to run under the race
// detector (make differential / make race). They hammer one shared Session
// and one shared Processor from many goroutines while the pipeline itself
// runs at width 4, so every lock — session serialization, per-query answer
// shards, pager singleflight, buffer LRU, disk counters — sees contention.

// stressQueries builds g disjoint-ID query batches over one dataset.
func stressQueries(dim int, groups, perGroup int, seed int64) [][]Query {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]Query, groups)
	for g := range batches {
		qs := make([]Query, perGroup)
		for i := range qs {
			v := make(vec.Vector, dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			id := uint64(g*perGroup + i)
			switch i % 3 {
			case 0:
				qs[i] = Query{ID: id, Vec: v, Type: query.NewKNN(5)}
			case 1:
				qs[i] = Query{ID: id, Vec: v, Type: query.NewRange(0.5)}
			default:
				qs[i] = Query{ID: id, Vec: v, Type: query.NewBoundedKNN(4, 0.9)}
			}
		}
		batches[g] = qs
	}
	return batches
}

// TestStressSharedSession drives one Session from many goroutines. Calls
// serialize on the session mutex, but each call runs the width-4 pipeline,
// so the test exercises pipeline teardown/startup back to back plus the
// shared pager underneath, and verifies the final answers are still exact.
func TestStressSharedSession(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	const dim = 4
	items := testDB(31, 400, dim)
	eng := scanEngine(t, items)
	proc, err := New(eng, vec.Euclidean{}, Options{Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := proc.NewSession()

	const goroutines = 8
	batches := stressQueries(dim, goroutines, 4, 32)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(qs []Query) {
			defer wg.Done()
			if _, _, err := s.MultiQueryAll(qs); err != nil {
				errs <- err
			}
		}(batches[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every query of every batch must have its exact brute-force answers:
	// re-running through the same session returns the buffered lists.
	for _, qs := range batches {
		lists, _, err := s.MultiQueryAll(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			want := brute(items, vec.Euclidean{}, q.Vec, q.Type)
			if !sameAnswers(lists[i].Answers(), want) {
				t.Fatalf("query %d: answers corrupted under concurrent sessions", q.ID)
			}
		}
	}
}

// TestStressSharedProcessor runs many independent sessions concurrently on
// one processor, so the pipelines contend for the same engine, pager,
// buffer and disk — the deployment shape of the wire server, where each
// connection owns a session over a shared database.
func TestStressSharedProcessor(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	const dim = 4
	items := testDB(41, 400, dim)
	for _, width := range []int{1, 4} {
		width := width
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			eng := xtreeEngine(t, items, dim)
			proc, err := New(eng, vec.Euclidean{}, Options{Concurrency: width})
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			batches := stressQueries(dim, goroutines, 4, 42)
			var wg sync.WaitGroup
			failures := make(chan string, goroutines*4)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(qs []Query) {
					defer wg.Done()
					lists, _, err := proc.NewSession().MultiQueryAll(qs)
					if err != nil {
						failures <- err.Error()
						return
					}
					for i, q := range qs {
						want := brute(items, vec.Euclidean{}, q.Vec, q.Type)
						if !sameAnswers(lists[i].Answers(), want) {
							failures <- fmt.Sprintf("query %d: wrong answers", q.ID)
						}
					}
				}(batches[g])
			}
			wg.Wait()
			close(failures)
			for f := range failures {
				t.Fatal(f)
			}
		})
	}
}

// heldReads is an engine whose second page read blocks until release is
// closed; inflight counts the reads under way.
type heldReads struct {
	engine.Engine
	reads, inflight atomic.Int32
	started         chan struct{} // closed by the first read
	held            chan struct{} // closed when the second read blocks
	release         chan struct{}
}

func (h *heldReads) ReadPage(pid store.PageID) (*store.Page, error) {
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	switch h.reads.Add(1) {
	case 1:
		close(h.started)
	case 2:
		close(h.held)
		<-h.release
	}
	return h.Engine.ReadPage(pid)
}

// cancelAtHeldRead is canceled for every page check made after the first
// read: it waits for the second read to be held, so the page loop ends while
// its prefetcher is inside that read.
type cancelAtHeldRead struct {
	context.Context
	h *heldReads
}

func (c cancelAtHeldRead) Err() error {
	select {
	case <-c.h.started:
		<-c.h.held
		return context.Canceled
	default:
		return nil
	}
}

// TestPipelineCancelWaitsForPrefetch: a call canceled while the prefetcher's
// read is under way returns only after that read has finished, so a caller
// that closes the database next never races it (the data race `go test -race
// -run TestCloseAndCancelLeaks -count=150 .` used to report about once).
func TestPipelineCancelWaitsForPrefetch(t *testing.T) {
	h := &heldReads{
		Engine:  scanEngine(t, testDB(51, 400, 4)),
		started: make(chan struct{}),
		held:    make(chan struct{}),
		release: make(chan struct{}),
	}
	proc, err := New(h, vec.Euclidean{}, Options{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var inflight int32
	go func() {
		_, _, err := proc.NewSession().MultiQueryAllContext(cancelAtHeldRead{context.Background(), h}, stressQueries(4, 1, 3, 52)[0])
		inflight = h.inflight.Load()
		done <- err
	}()
	<-h.held
	select {
	case err := <-done:
		close(h.release)
		t.Fatalf("the call returned (%v) while its prefetcher's read was held", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if inflight != 0 {
		t.Fatalf("%d reads in flight when the call returned", inflight)
	}
}
