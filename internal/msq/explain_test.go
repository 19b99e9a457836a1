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

// TestExplainWidthStability: the profile is a function of the batch and
// the engine alone. Fresh engines explained through the deprecated
// WithConcurrency shim at widths 1, 2 and 8 give identical profiles; the
// test is named for the intra-server pipeline the width once configured.
func TestExplainWidthStability(t *testing.T) {
	items := testDB(11, 500, 3)
	qs := explainBatch(items)

	var base []Profile
	for _, width := range []int{1, 2, 8} {
		p, err := New(scanEngine(t, items), vec.Euclidean{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := p.WithConcurrency(width).ExplainContext(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = ex.Queries
			continue
		}
		for i, p := range ex.Queries {
			if p != base[i] {
				t.Errorf("width %d query %d: profile %+v, width 1 %+v", width, p.ID, p, base[i])
			}
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
