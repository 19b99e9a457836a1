package explore

import (
	"os"
	"testing"
	"time"

	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// TestIncrementalOverheadGate holds the incremental multiple query to the
// paper's claim on its headline use: one DBSCAN job whose neighbourhood
// queries slide a window of m = 50 through the session must not take longer
// than the same job issuing them one by one. The batched job reads fewer
// pages; what it pays on top is the bookkeeping of a call — restoring the
// buffered queries, the pass set-up — and, for a metric that gets the
// lemmas, the matrix and the probes. This job is Euclidean, so the default
// mode probes nothing. The ratio measured 0.7 while only the batched job had
// a vector kernel, and 0.9-1.2 once the single query swept its pages through
// the item-lane kernel too. Both jobs plan on swept box lanes now (an ε-plan
// is 0.3 µs, so the m = 1 job lost its largest fixed cost too) and the window
// is recognised instead of re-validated; the batch is a window on the seed
// list and the slice of answer lists is session scratch, so what the ratio
// compares is the rest of a 50-query call — the lookups and admission, on
// a recycled state, of the query that entered, decideActive — against the pages
// the window saves, and on an in-memory disk a saved page costs little. It
// reads 0.8-0.95, where it read 0.9-1.1 while every call rebuilt its batch
// and allocated its result slice (8 000 queries, both jobs 35-60 ms on the
// shared runner).
// The gate is 1.15, parity plus the run-to-run spread of the ratio, met by
// the first of up to five rounds that is under it. The two jobs run in one
// process, interleaved, each as the minimum of several trials.
//
// It is a wall-clock assertion, so it is not part of `go test ./...`:
// `make obsgate` sets METRICDB_OBSGATE and runs it without the race
// detector.
func TestIncrementalOverheadGate(t *testing.T) {
	if os.Getenv("METRICDB_OBSGATE") == "" {
		t.Skip("wall-clock gate; run via make obsgate")
	}
	const n, dim, eps, minPts, m, gate = 8000, 8, 0.05, 5, 50, 1.15
	items, err := dataset.Clustered(dataset.ClusteredConfig{Seed: 1, N: n, Dim: dim, Clusters: 20, Spread: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	cfg := xtree.DefaultConfig(dim)
	cfg.BufferPages = 8
	tree, err := xtree.Bulk(items, dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(tree, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}

	measure := func(batch int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			start := time.Now()
			if _, err := DBSCAN(Config{Proc: proc, Items: items, BatchSize: batch}, eps, minPts); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	measure(m) // warm up
	bestRatio := 1e9
	for round := 0; round < 5 && bestRatio > gate; round++ {
		single := measure(1)
		multi := measure(m)
		if r := float64(multi) / float64(single); r < bestRatio {
			bestRatio = r
		}
	}
	t.Logf("DBSCAN at m = %d / m = 1 wall time: best ratio %.2f (gate %.2f)", m, bestRatio, gate)
	if bestRatio > gate {
		t.Errorf("the sliding window at m = %d takes %.2f times the single queries, gate is %.2f", m, bestRatio, gate)
	}
}
