package parallel

import (
	"math/rand"
	"testing"

	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// TestClusterIntraServerConcurrency checks the Config.Concurrency plumbing:
// a cluster whose servers run the width-4 pipeline internally must return
// exactly the answers of a sequential cluster — the two parallelism axes
// (shared-nothing fan-out and intra-server pipelining) compose without
// changing results.
func TestClusterIntraServerConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const n, dim = 600, 4
	items := make([]store.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	queries := make([]msq.Query, 6)
	for i := range queries {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		if i%2 == 0 {
			queries[i] = msq.Query{ID: uint64(i), Vec: v, Type: query.NewKNN(7)}
		} else {
			queries[i] = msq.Query{ID: uint64(i), Vec: v, Type: query.NewRange(0.5)}
		}
	}

	build := func(width int) *Cluster {
		c, err := New(items, Config{
			Servers:      3,
			Engine:       engines.Scan,
			Dim:          dim,
			PageCapacity: 16,
			Concurrency:  width,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	seqLists, _, err := build(1).MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	wideLists, _, err := build(4).MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqLists {
		a, b := seqLists[i].Answers(), wideLists[i].Answers()
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d answers", i, len(a), len(b))
		}
		for j := range a {
			if a[j].ID != b[j].ID || a[j].Dist != b[j].Dist {
				t.Errorf("query %d answer %d: (%d, %v) vs (%d, %v)",
					i, j, a[j].ID, a[j].Dist, b[j].ID, b[j].Dist)
			}
		}
	}
}
