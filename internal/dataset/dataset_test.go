package dataset

import (
	"math"
	"strings"
	"testing"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

func TestUniformDeterministicAndInRange(t *testing.T) {
	a := Uniform(42, 500, 8)
	b := Uniform(42, 500, 8)
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i].ID != store.ItemID(i) {
			t.Fatalf("item %d has ID %d", i, a[i].ID)
		}
		if !a[i].Vec.Equal(b[i].Vec) {
			t.Fatal("same seed produced different data")
		}
		for _, x := range a[i].Vec {
			if x < 0 || x >= 1 {
				t.Fatalf("coordinate %v outside [0,1)", x)
			}
		}
	}
	c := Uniform(43, 500, 8)
	if a[0].Vec.Equal(c[0].Vec) {
		t.Error("different seeds produced identical data")
	}
}

func TestClusteredValidation(t *testing.T) {
	bad := []ClusteredConfig{
		{N: -1, Dim: 4, Clusters: 2},
		{N: 10, Dim: 0, Clusters: 2},
		{N: 10, Dim: 4, Clusters: 0},
		{N: 10, Dim: 4, Clusters: 2, NoiseFraction: 1},
		{N: 10, Dim: 4, Clusters: 2, Spread: -1},
	}
	for _, cfg := range bad {
		if _, err := Clustered(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestClusteredIsActuallyClustered(t *testing.T) {
	items, err := Clustered(ClusteredConfig{Seed: 1, N: 2000, Dim: 16, Clusters: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Average intra-cluster distance must be much smaller than the
	// average inter-cluster distance.
	m := vec.Euclidean{}
	var intra, inter float64
	var nIntra, nInter int
	for i := 0; i < 300; i++ {
		for j := i + 1; j < 300; j++ {
			d := m.Distance(items[i].Vec, items[j].Vec)
			if items[i].Label == items[j].Label {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 {
		t.Fatal("labels missing")
	}
	if intra/float64(nIntra) >= 0.5*inter/float64(nInter) {
		t.Errorf("intra %.3f vs inter %.3f: not clustered", intra/float64(nIntra), inter/float64(nInter))
	}
}

func TestClusteredHistogram(t *testing.T) {
	items, err := Clustered(ClusteredConfig{Seed: 2, N: 100, Dim: 64, Clusters: 3, Histogram: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		var sum float64
		for _, x := range it.Vec {
			if x < 0 {
				t.Fatal("negative histogram bin")
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("histogram sums to %v", sum)
		}
	}
}

func TestClusteredNoise(t *testing.T) {
	items, err := Clustered(ClusteredConfig{Seed: 3, N: 1000, Dim: 4, Clusters: 2, NoiseFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	noise := 0
	for _, it := range items {
		if it.Label == -1 {
			noise++
		}
	}
	if noise < 200 || noise > 400 {
		t.Errorf("noise count %d, want ≈300", noise)
	}
}

func TestSampleQueries(t *testing.T) {
	items := Uniform(4, 100, 3)
	qs, err := SampleQueries(5, items, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 10 {
		t.Fatalf("len = %d", len(qs))
	}
	seen := make(map[store.ItemID]bool)
	for _, q := range qs {
		if seen[q.ID] {
			t.Fatal("duplicate query object")
		}
		seen[q.ID] = true
	}
	if _, err := SampleQueries(5, items, 101); err == nil {
		t.Error("oversampling accepted")
	}
	qs2, err := SampleQueries(5, items, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if qs[i].ID != qs2[i].ID {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestSessions(t *testing.T) {
	a := Sessions(7, 50)
	b := Sessions(7, 50)
	if len(a) != 50 {
		t.Fatalf("len = %d", len(a))
	}
	for i, s := range a {
		if !strings.HasPrefix(s, "/") {
			t.Fatalf("session %q is not a path", s)
		}
		if s != b[i] {
			t.Fatal("sessions not deterministic")
		}
	}
}

func TestNearUniformValidation(t *testing.T) {
	if _, err := NearUniform(1, 10, 0, 1, 0); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NearUniform(1, 10, 4, 0, 0); err == nil {
		t.Error("zero intrinsic accepted")
	}
	if _, err := NearUniform(1, 10, 4, 5, 0); err == nil {
		t.Error("intrinsic > dim accepted")
	}
	if _, err := NearUniform(1, 10, 4, 2, -1); err == nil {
		t.Error("negative noise accepted")
	}
	if _, err := NearUniform(1, -1, 4, 2, 0); err == nil {
		t.Error("negative n accepted")
	}
}

func TestNearUniformProperties(t *testing.T) {
	a, err := NearUniform(42, 400, 20, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NearUniform(42, 400, 20, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != store.ItemID(i) || !a[i].Vec.Equal(b[i].Vec) {
			t.Fatal("NearUniform not deterministic")
		}
		if a[i].Vec.Dim() != 20 {
			t.Fatalf("dim = %d", a[i].Vec.Dim())
		}
	}
	// The data must have lower intrinsic dimensionality than ambient:
	// nearest-neighbor distances should be clearly smaller than for
	// truly 20-d i.i.d. uniform data of the same cardinality and spread.
	m := vec.Euclidean{}
	nnDist := func(items []store.Item) float64 {
		var sum float64
		for i := 0; i < 50; i++ {
			best := math.Inf(1)
			for j := range items {
				if j == i {
					continue
				}
				if d := m.Distance(items[i].Vec, items[j].Vec); d < best {
					best = d
				}
			}
			sum += best
		}
		return sum / 50
	}
	iid := Uniform(7, 400, 20)
	if got, ref := nnDist(a), nnDist(iid); got >= ref {
		t.Errorf("NearUniform NN distance %.3f not below i.i.d. uniform %.3f", got, ref)
	}
}

func TestEstimateIntrinsicDimension(t *testing.T) {
	// Truly 2-d data embedded in 2-d: estimate ≈ 2.
	flat := Uniform(50, 1500, 2)
	est, err := EstimateIntrinsicDimension(flat, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est < 1.2 || est > 3.0 {
		t.Errorf("2-d uniform estimated as %.2f", est)
	}

	// Intrinsically 8-d data embedded in 20 dimensions: the estimate must
	// track the latent dimension, not the ambient one.
	embedded, err := NearUniform(51, 1500, 20, 8, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	est8, err := EstimateIntrinsicDimension(embedded, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est8 < 4 || est8 > 13 {
		t.Errorf("intrinsic-8 data estimated as %.2f", est8)
	}

	// Full 20-d uniform: clearly higher than the embedded case.
	full := Uniform(52, 1500, 20)
	est20, err := EstimateIntrinsicDimension(full, 100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est20 <= est8 {
		t.Errorf("ambient 20-d (%.2f) not above intrinsic 8-d (%.2f)", est20, est8)
	}
}

func TestEstimateIntrinsicDimensionValidation(t *testing.T) {
	items := Uniform(53, 50, 3)
	if _, err := EstimateIntrinsicDimension(items, 10, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := EstimateIntrinsicDimension(items[:3], 10, 10, 1); err == nil {
		t.Error("tiny dataset accepted")
	}
	if _, err := EstimateIntrinsicDimension(items, 0, 5, 1); err == nil {
		t.Error("zero sample accepted")
	}
	// All-duplicate data: degenerate neighborhoods.
	dup := make([]store.Item, 30)
	for i := range dup {
		dup[i] = store.Item{ID: store.ItemID(i), Vec: vec.Vector{1, 1}}
	}
	if _, err := EstimateIntrinsicDimension(dup, 10, 5, 1); err == nil {
		t.Error("degenerate data accepted")
	}
}
