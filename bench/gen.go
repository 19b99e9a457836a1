package main

import (
	"math"
	"math/rand"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The benchmark owns its input generators: a later edit to internal/dataset
// must not be able to move a workload. Every generator is a pure function
// of its seed. The seed draws the sample — the objects and the query pool —
// while the distribution they are drawn from (the embedding, the cluster
// centres) is fixed by shapeSeed, so that two seeds give two samples of the
// same workload and not two workloads.

const shapeSeed = 20000229 // ICDE 2000 opened on 29 February

// nearUniform returns n cluster-free dim-dimensional items whose
// coordinates are a fixed random linear image of a uniform latent vector in
// [0,1]^intrinsic plus 1 % Gaussian noise — "almost uniformly distributed"
// data with the correlated features of the paper's astronomy catalogue.
func nearUniform(seed int64, n, dim, intrinsic int) []store.Item {
	rng := rand.New(rand.NewSource(shapeSeed))
	embed := make([][]float64, dim)
	for d := range embed {
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
		embed[d] = row
	}
	rng = rand.New(rand.NewSource(seed))
	items := make([]store.Item, n)
	z := make([]float64, intrinsic)
	for i := range items {
		for j := range z {
			z[j] = rng.Float64()
		}
		v := make(vec.Vector, dim)
		for d := range v {
			var s float64
			for j, e := range embed[d] {
				s += e * z[j]
			}
			v[d] = s + 0.01*rng.NormFloat64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items
}

// clustered returns n items drawn from a mixture of k spherical Gaussians
// with per-coordinate deviation sigma and centres uniform in [0,1]^dim, in
// random order (cluster membership is not correlated with the item ID).
func clustered(seed int64, n, dim, k int, sigma float64) []store.Item {
	rng := rand.New(rand.NewSource(shapeSeed))
	centers := make([]vec.Vector, k)
	for c := range centers {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		centers[c] = v
	}
	rng = rand.New(rand.NewSource(seed))
	items := make([]store.Item, n)
	for i := range items {
		center := centers[rng.Intn(k)]
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = center[j] + sigma*rng.NormFloat64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items
}

// queryPool picks m distinct database objects as query objects, the paper's
// "M objects from the database were chosen randomly" (§6).
func queryPool(seed int64, items []store.Item, m int) []store.Item {
	perm := rand.New(rand.NewSource(seed)).Perm(len(items))
	pool := make([]store.Item, m)
	for i := range pool {
		pool[i] = items[perm[i]]
	}
	return pool
}

// digest is an FNV-1a accumulator over 64-bit words. It fingerprints both
// inputs (coordinate bits) and answers (IDs and distance bits).
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) word(w uint64) {
	for i := 0; i < 8; i++ {
		d.h = (d.h ^ (w & 0xff)) * 1099511628211
		w >>= 8
	}
}

func (d *digest) float(f float64) { d.word(math.Float64bits(f)) }

// itemsDigest fingerprints a list of items by ID and coordinate bits.
func itemsDigest(d *digest, items []store.Item) {
	for _, it := range items {
		d.word(uint64(it.ID))
		for _, x := range it.Vec {
			d.float(x)
		}
	}
}
