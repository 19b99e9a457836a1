package scan

import (
	"math"
	"testing"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

func items(n int) []store.Item {
	out := make([]store.Item, n)
	for i := range out {
		out[i] = store.Item{ID: store.ItemID(i), Vec: vec.Vector{float64(i), 0}}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(items(4), 0, 0); err == nil {
		t.Error("zero page capacity accepted")
	}
	if _, err := New(items(4), 2, -1); err == nil {
		t.Error("negative buffer accepted")
	}
	if _, err := NewStored(nil, 0, nil); err == nil {
		t.Error("nil pager accepted")
	}
}

func TestPlanCoversAllPagesInPhysicalOrder(t *testing.T) {
	e, err := New(items(10), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "scan" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.NumPages() != 4 || e.NumItems() != 10 {
		t.Errorf("NumPages=%d NumItems=%d", e.NumPages(), e.NumItems())
	}
	plan := e.Prepare(vec.Vector{5, 5}).Plan(0.001) // queryDist is irrelevant to a scan
	if len(plan) != 4 {
		t.Fatalf("plan has %d pages, want 4", len(plan))
	}
	for i, ref := range plan {
		if ref.ID != store.PageID(i) {
			t.Errorf("plan[%d] = page %d, want physical order", i, ref.ID)
		}
		if ref.MinDist != 0 {
			t.Errorf("plan[%d].MinDist = %v, want 0", i, ref.MinDist)
		}
	}
	if got := e.Prepare(vec.Vector{9, 9}).MinDist(2); got != 0 {
		t.Errorf("MinDist = %v, want 0", got)
	}
	// The plan is the identity whatever the query, so it is built with the
	// engine and a run pays nothing for it.
	pages := 0
	if n := testing.AllocsPerRun(100, func() { pages += len(e.Prepare(vec.Vector{1, 2}).Plan(0.5)) }); n != 0 {
		t.Errorf("Prepare + Plan allocate %v times per query, want 0", n)
	}
	if pages != 101*4 {
		t.Errorf("the measured plans held %d pages, want %d", pages, 101*4)
	}
}

func TestSequentialIOAccounting(t *testing.T) {
	e, err := New(items(12), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range e.Prepare(nil).Plan(math.Inf(1)) {
		if _, err := e.ReadPage(ref.ID); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Pager().Disk().Stats()
	if s.Reads != 4 {
		t.Errorf("Reads = %d, want 4", s.Reads)
	}
	if s.RandReads != 1 || s.SeqReads != 3 {
		t.Errorf("scan should be sequential after the first seek: %+v", s)
	}
}
