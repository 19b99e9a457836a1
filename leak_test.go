package metricdb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"metricdb/internal/leakcheck"
	"metricdb/internal/vec"
)

// cancelAt is the Euclidean distance with a trip wire: its n-th evaluation
// cancels a context, so a batch that gets that far is cancelled from inside,
// in the middle of a page.
type cancelAt struct {
	calls  *atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (m cancelAt) Distance(a, b Vector) float64 {
	if m.calls.Add(1) == m.n {
		m.cancel()
	}
	return vec.Euclidean{}.Distance(a, b)
}

func (cancelAt) Name() string { return "cancel-at" }

// TestCloseAndCancelLeaks: no goroutine outlives a stored DB's Close — after
// batches over the dataset's own pages and over a derived layout — or a
// batch cancelled in the middle of its page loop, in memory and stored.
func TestCloseAndCancelLeaks(t *testing.T) {
	const n, dim = 600, 6
	items := testItems(85, n, dim)
	dir := storedDir(t, 85, n, dim, 8)
	queries := make([]Query, 6)
	for i := range queries {
		queries[i] = Query{ID: uint64(i), Vec: items[i*97].Vec, Type: KNNQuery(5)}
	}

	t.Run("stored DB closed", func(t *testing.T) {
		base := runtime.NumGoroutine()
		for _, opts := range []Options{
			{Engine: EngineScan, BufferPages: 4},
			{Engine: EngineXTree, PageCapacity: 8},
		} {
			db, err := OpenStored(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.NewBatch().QueryAll(queries); err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.Query(items[5].Vec, KNNQuery(3)); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		leakcheck.Settle(t, base)
	})

	// The names keep the width the cases ran at when the page loop had a
	// second, pipelined path.
	for _, stored := range []bool{false, true} {
		t.Run(fmt.Sprintf("cancelled mid-batch/stored=%v/width=1", stored), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			opts := Options{
				PageCapacity: 8,
				Metric:       cancelAt{calls: &calls, n: 100, cancel: cancel},
			}
			var db *DB
			var err error
			if stored {
				db, err = OpenStored(dir, opts)
			} else {
				db, err = Open(items, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := db.NewBatch().QueryAllContext(ctx, queries); !errors.Is(err, context.Canceled) {
				t.Fatalf("batch cancelled at distance 100 of ≈ %d returned %v", n*len(queries), err)
			}
			if calls.Load() >= int64(n*len(queries)) {
				t.Fatalf("%d distances: the batch ran to the end before it saw the cancellation", calls.Load())
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			leakcheck.Settle(t, base)
		})
	}
}
