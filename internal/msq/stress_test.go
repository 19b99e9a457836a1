package msq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// Stress tests for the state sessions share, meant to run under the race
// detector (make differential / make race). They hammer one shared Session
// and one shared Processor from many goroutines, so every lock — session
// serialization, pager singleflight, buffer LRU, disk counters — sees
// contention.

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
// serialize on the session mutex over the shared pager underneath; the
// final answers must still be exact.
func TestStressSharedSession(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	const dim = 4
	items := testDB(31, 400, dim)
	eng := scanEngine(t, items)
	proc, err := New(eng, vec.Euclidean{}, Options{})
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
// one processor, so the sessions contend for the same engine, pager,
// buffer and disk — the deployment shape of the wire server, where each
// connection owns a session over a shared database. The subtests keep the
// pipeline widths they once ran at; the width goes to the deprecated
// WithConcurrency shim.
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
			proc, err := New(eng, vec.Euclidean{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			proc = proc.WithConcurrency(width)
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
