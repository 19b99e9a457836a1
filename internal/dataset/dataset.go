// Package dataset generates the synthetic workloads that substitute for the
// paper's proprietary datasets (see DESIGN.md §4):
//
//   - Uniform: stands in for the Tycho catalogue — 20-dimensional,
//     "almost uniformly distributed" star feature vectors. Only the
//     distribution matters for the experiments, so seeded uniform vectors
//     preserve the relevant behaviour.
//   - Clustered: stands in for the TV-snapshot image database —
//     64-dimensional, "highly clustered" color histograms. A seeded
//     Gaussian mixture with L1-normalized non-negative components
//     reproduces the clustering that drives the paper's CPU-cost results.
//
// All generators are deterministic in their seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Uniform returns n items uniformly distributed in [0,1]^dim with
// IDs 0..n-1 and no labels.
func Uniform(seed int64, n, dim int) []store.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]store.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items
}

// NearUniform returns n cluster-free items whose 20-style feature vectors
// have a lower *intrinsic* dimensionality, like real measured features
// (the Tycho catalogue's 20 values per star are heavily correlated): a
// uniform latent vector z ∈ [0,1]^intrinsic is mapped through a fixed
// random linear embedding into dim dimensions, plus per-coordinate noise.
//
// Truly i.i.d. uniform data in 20 dimensions exhibits full-strength
// distance concentration, which would suppress both index selectivity and
// triangle-inequality avoidance far beyond what the paper's real data
// shows; the embedding restores realistic behaviour while keeping the data
// "almost uniformly distributed" (no cluster structure).
func NearUniform(seed int64, n, dim, intrinsic int, noise float64) ([]store.Item, error) {
	if n < 0 || dim <= 0 {
		return nil, fmt.Errorf("dataset: invalid size %d x %d", n, dim)
	}
	if intrinsic < 1 || intrinsic > dim {
		return nil, fmt.Errorf("dataset: intrinsic dimension %d outside [1, %d]", intrinsic, dim)
	}
	if noise < 0 {
		return nil, fmt.Errorf("dataset: negative noise %g", noise)
	}
	rng := rand.New(rand.NewSource(seed))
	// Fixed random embedding, row-normalized so coordinates stay O(1).
	embed := make([][]float64, dim)
	for i := range embed {
		row := make([]float64, intrinsic)
		var norm float64
		for j := range row {
			row[j] = rng.NormFloat64()
			norm += row[j] * row[j]
		}
		norm = math.Sqrt(norm)
		for j := range row {
			row[j] /= norm
		}
		embed[i] = row
	}
	items := make([]store.Item, n)
	for i := range items {
		z := make([]float64, intrinsic)
		for j := range z {
			z[j] = rng.Float64()
		}
		v := make(vec.Vector, dim)
		for d := 0; d < dim; d++ {
			var s float64
			for j := 0; j < intrinsic; j++ {
				s += embed[d][j] * z[j]
			}
			v[d] = s + noise*rng.NormFloat64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items, nil
}

// ClusteredConfig parameterizes the Gaussian-mixture generator.
type ClusteredConfig struct {
	Seed     int64
	N        int
	Dim      int
	Clusters int // number of mixture components (>= 1)
	// Spread is the per-coordinate standard deviation within a cluster;
	// zero selects 0.05, which produces the strong clustering the image
	// database exhibits.
	Spread float64
	// Histogram, when set, clamps components to be non-negative and
	// L1-normalizes each vector, making it a color-histogram lookalike.
	Histogram bool
	// NoiseFraction in [0,1) replaces that fraction of points with
	// uniform noise; zero is pure mixture.
	NoiseFraction float64
}

// Clustered returns n items drawn from a Gaussian mixture. Each item's
// Label is the index of its mixture component (noise points get label -1),
// which the classification experiments use as ground truth.
func Clustered(cfg ClusteredConfig) ([]store.Item, error) {
	if cfg.N < 0 || cfg.Dim <= 0 {
		return nil, fmt.Errorf("dataset: invalid size %d x %d", cfg.N, cfg.Dim)
	}
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("dataset: need at least one cluster, got %d", cfg.Clusters)
	}
	if cfg.NoiseFraction < 0 || cfg.NoiseFraction >= 1 {
		return nil, fmt.Errorf("dataset: noise fraction %g outside [0,1)", cfg.NoiseFraction)
	}
	spread := cfg.Spread
	if spread == 0 {
		spread = 0.05
	}
	if spread < 0 {
		return nil, fmt.Errorf("dataset: negative spread %g", spread)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([]vec.Vector, cfg.Clusters)
	for c := range centers {
		v := make(vec.Vector, cfg.Dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		centers[c] = v
	}

	items := make([]store.Item, cfg.N)
	for i := range items {
		v := make(vec.Vector, cfg.Dim)
		label := -1
		if rng.Float64() < cfg.NoiseFraction {
			for j := range v {
				v[j] = rng.Float64()
			}
		} else {
			label = rng.Intn(cfg.Clusters)
			center := centers[label]
			for j := range v {
				v[j] = center[j] + rng.NormFloat64()*spread
				if cfg.Histogram && v[j] < 0 {
					v[j] = 0
				}
			}
		}
		if cfg.Histogram {
			v.L1Normalize()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v, Label: label}
	}
	return items, nil
}

// SampleQueries picks m distinct random items from items as query objects,
// matching the paper's "M objects from the database were chosen randomly".
// It returns an error when m exceeds the dataset size.
func SampleQueries(seed int64, items []store.Item, m int) ([]store.Item, error) {
	if m > len(items) {
		return nil, fmt.Errorf("dataset: cannot sample %d queries from %d items", m, len(items))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(items))
	out := make([]store.Item, m)
	for i := 0; i < m; i++ {
		out[i] = items[perm[i]]
	}
	return out, nil
}
