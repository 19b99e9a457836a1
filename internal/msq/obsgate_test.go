package msq

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/vec"
)

// TestTracerOverheadGate bounds what leaving the tracer on costs: the same
// multi-query batch — scan, both lemmas, AoS, width 1, the path every
// default deployment runs — with a tracer installed must finish within 10 %
// of the untraced wall time. The two are measured in one process,
// interleaved, each as the minimum of several trials, so the ratio is
// insensitive to the machine and to most scheduling noise.
//
// It is a wall-clock assertion, so it is not part of `go test ./...`:
// `make obsgate` sets METRICDB_OBSGATE and runs it without the race
// detector.
func TestTracerOverheadGate(t *testing.T) {
	if os.Getenv("METRICDB_OBSGATE") == "" {
		t.Skip("wall-clock gate; run via make obsgate")
	}
	const n, dim, m, gate = 8192, 16, 32, 1.10
	items := testDB(5, n, dim)
	rng := rand.New(rand.NewSource(6))
	queries := make([]Query, m)
	for i := range queries {
		queries[i] = Query{ID: uint64(i + 1), Vec: items[rng.Intn(n)].Vec, Type: query.NewKNN(8)}
	}
	e, err := scan.New(items, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(e, vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// WithTracer installs the tracer on the shared pager as well, so the
	// untraced processor's page fetches are traced too; that is the
	// cheaper side erring high, which only makes the gate stricter.
	traced := plain.WithTracer(obs.New(obs.Config{SlowQueryThreshold: -1}))

	measure := func(p *Processor) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			if _, _, err := p.MultiQuery(queries); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	measure(plain) // warm up
	bestRatio := 1e9
	for round := 0; round < 5 && bestRatio > gate; round++ {
		off := measure(plain)
		on := measure(traced)
		if r := float64(on) / float64(off); r < bestRatio {
			bestRatio = r
		}
	}
	t.Logf("tracer-on / tracer-off wall time: best ratio %.3f (gate %.2f)", bestRatio, gate)
	if bestRatio > gate {
		t.Errorf("tracing costs %.1f%% of the batch's wall time, gate is %.0f%%", (bestRatio-1)*100, (gate-1)*100)
	}
}
