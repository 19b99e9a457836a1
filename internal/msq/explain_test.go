package msq

import (
	"context"
	"testing"

	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// explainBatch is a mixed range/k-NN workload over the shared test dataset.
func explainBatch(items []store.Item) []Query {
	return []Query{
		{ID: 1, Vec: items[3].Vec, Type: query.NewRange(0.4)},
		{ID: 2, Vec: items[17].Vec, Type: query.NewKNN(5)},
		{ID: 3, Vec: items[41].Vec, Type: query.NewRange(0.25)},
		{ID: 4, Vec: items[59].Vec, Type: query.NewKNN(3)},
	}
}

// TestExplainWidthStability: pages visited, the offered set and answer
// counts are width-invariant; the full profile is identical across all
// pipeline widths >= 2 (see the stability contract in explain.go).
func TestExplainWidthStability(t *testing.T) {
	items := testDB(11, 500, 3)
	qs := explainBatch(items)

	profiles := map[int][]Profile{}
	for _, width := range []int{1, 2, 8} {
		p, err := New(scanEngine(t, items), vec.Euclidean{}, Options{Concurrency: width})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := p.ExplainContext(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		profiles[width] = ex.Queries
	}
	base := profiles[1]
	for _, width := range []int{2, 8} {
		for i, p := range profiles[width] {
			if p.PagesVisited != base[i].PagesVisited {
				t.Errorf("width %d query %d: pages visited %d, width 1 saw %d",
					width, p.ID, p.PagesVisited, base[i].PagesVisited)
			}
			if p.Offered() != base[i].Offered() {
				t.Errorf("width %d query %d: offered %d, width 1 offered %d",
					width, p.ID, p.Offered(), base[i].Offered())
			}
			if p.Answers != base[i].Answers {
				t.Errorf("width %d query %d: %d answers, width 1 found %d",
					width, p.ID, p.Answers, base[i].Answers)
			}
		}
	}
	for i := range profiles[2] {
		if profiles[2][i] != profiles[8][i] {
			t.Errorf("query %d profile differs between widths 2 and 8:\n  %+v\n  %+v",
				profiles[2][i].ID, profiles[2][i], profiles[8][i])
		}
	}
}

// TestExplainBufferAndPhaseFields: with a buffered pager the profile
// reports the call's pool deltas and a consistent hit ratio, and the
// wall-time fields are populated.
func TestExplainBufferAndPhaseFields(t *testing.T) {
	items := testDB(13, 300, 3)
	e, err := scan.New(items, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(e, vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.ExplainContext(context.Background(), explainBatch(items))
	if err != nil {
		t.Fatal(err)
	}
	if ex.BufferHits+ex.BufferMisses <= 0 {
		t.Fatal("buffered run recorded no pool activity")
	}
	want := float64(ex.BufferHits) / float64(ex.BufferHits+ex.BufferMisses)
	if ex.BufferHitRatio != want {
		t.Errorf("hit ratio = %g, want %g", ex.BufferHitRatio, want)
	}
	if ex.WallNs <= 0 {
		t.Error("wall time not recorded")
	}
	// The header names the mode in effect, not the option as given.
	if ex.Avoidance != "off" {
		t.Errorf("EXPLAIN avoidance = %q, want the resolved mode \"off\"", ex.Avoidance)
	}
	if want := vec.NewRows(vec.Euclidean{}).ISA(); ex.RowKernel != want || (want != "avx512" && want != "avx2" && want != "go") {
		t.Errorf("EXPLAIN row kernel = %q, want %q, one of avx512, avx2 and go", ex.RowKernel, want)
	}
	if ex.PhaseNs["kernel"] <= 0 {
		t.Errorf("phase wall times = %v, want a kernel entry", ex.PhaseNs)
	}
}
