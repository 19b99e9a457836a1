package vafile

import (
	"testing"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// FuzzQuantizationBounds builds a tiny VA-file from fuzzed coordinates and
// checks the safety contract on a fuzzed query point: the cell-derived
// lower bound never exceeds the true distance.
func FuzzQuantizationBounds(f *testing.F) {
	f.Add(0.1, 0.9, 0.5, 0.25, 0.75)
	f.Add(-3.0, 7.5, 0.0, 100.0, -100.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0)

	f.Fuzz(func(t *testing.T, a, b, c, q1, q2 float64) {
		for _, v := range []float64{a, b, c, q1, q2} {
			if v != v || v > 1e12 || v < -1e12 { // NaN or extreme: skip
				t.Skip()
			}
		}
		items := []store.Item{
			{ID: 0, Vec: vec.Vector{a, b}},
			{ID: 1, Vec: vec.Vector{b, c}},
			{ID: 2, Vec: vec.Vector{c, a}},
		}
		e, err := New(items, Config{PageCapacity: 2, Bits: 3})
		if err != nil {
			t.Fatal(err)
		}
		q := vec.Vector{q1, q2}
		m := vec.Euclidean{}
		scratch := make(vec.Vector, 2)
		zero := make(vec.Vector, 2)
		const eps = 1e-9
		for pid := 0; pid < e.NumPages(); pid++ {
			p, err := e.ReadPage(store.PageID(pid))
			if err != nil {
				t.Fatal(err)
			}
			for it := range p.Items {
				d := m.Distance(q, p.Items[it].Vec)
				lb := e.itemLowerBound(q, store.PageID(pid), it, scratch, zero)
				if lb > d+eps {
					t.Fatalf("lower bound %v exceeds distance %v", lb, d)
				}
			}
		}
	})
}
