package vec

import (
	"math"
	"math/rand"
	"testing"
)

func testBlock(t *testing.T, rng *rand.Rand, dim, n int) *Block {
	t.Helper()
	b := NewBlock(dim, n)
	for i := 0; i < n; i++ {
		row := make(Vector, dim)
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		b.SetItem(i, row)
	}
	return b
}

func blockMetrics(t *testing.T, dim int) []BoundedMetric {
	t.Helper()
	mink, err := NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	w := make(Vector, dim)
	for i := range w {
		w[i] = 0.5 + float64(i%4)
	}
	wgt, err := NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	ident := make([]float64, dim*dim)
	for i := 0; i < dim; i++ {
		ident[i*dim+i] = 1
	}
	qf, err := NewQuadraticForm(dim, ident)
	if err != nil {
		t.Fatal(err)
	}
	return []BoundedMetric{
		Euclidean{}, Manhattan{}, Chebyshev{}, mink, wgt,
		NewCounting(qf).Kernel(), // generic fallback path
	}
}

// TestBlockRowIdentical asserts the row kernels are bit-identical to
// per-pair DistanceWithin calls for every metric, across limit regimes
// (infinite, tight, mixed) and query counts that exercise the grouped
// fast path, its remainder, and the scalar lanes.
func TestBlockRowIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, dim := range []int{1, 3, 4, 7, 16, 33} {
		b := testBlock(t, rng, dim, 24)
		for _, metric := range blockMetrics(t, dim) {
			k := NewBlockKernel(metric)
			for _, m := range []int{1, 2, 4, 5, 8, 11} {
				queries := make([]Vector, m)
				for a := range queries {
					queries[a] = make(Vector, dim)
					for d := range queries[a] {
						queries[a][d] = rng.NormFloat64()
					}
				}
				for _, regime := range []string{"inf", "tight", "mixed"} {
					limits := make([]float64, m)
					for a := range limits {
						switch regime {
						case "inf":
							limits[a] = math.Inf(1)
						case "tight":
							limits[a] = 0.5 * rng.Float64() * float64(dim)
						default:
							if a%2 == 0 {
								limits[a] = math.Inf(1)
							} else {
								limits[a] = rng.Float64() * float64(dim)
							}
						}
					}
					dOut := make([]float64, m)
					wOut := make([]bool, m)
					tileAb, wantTileAb := 0, 0
					for i := 0; i < b.N; i++ {
						ab := k.RowWithin(queries, b, i, limits, dOut, wOut)
						tileAb += ab
						wantAb := 0
						for a := range queries {
							d, w := metric.DistanceWithin(queries[a], b.Item(i), limits[a])
							if w != wOut[a] {
								t.Fatalf("%s dim=%d m=%d %s: row (%d,%d) within %v want %v",
									metric.Name(), dim, m, regime, a, i, wOut[a], w)
							}
							// dOut is contractual only where within holds;
							// an abandoned lane must merely exceed its limit.
							if w && math.Float64bits(d) != math.Float64bits(dOut[a]) {
								t.Fatalf("%s dim=%d m=%d %s: row (%d,%d) dist %v want %v",
									metric.Name(), dim, m, regime, a, i, dOut[a], d)
							}
							if !w {
								if !(dOut[a] > limits[a]) {
									t.Fatalf("%s dim=%d m=%d %s: row (%d,%d) abandoned dist %v not beyond limit %v",
										metric.Name(), dim, m, regime, a, i, dOut[a], limits[a])
								}
								wantAb++
							}
						}
						if ab != wantAb {
							t.Fatalf("%s dim=%d m=%d %s: abandoned %d want %d", metric.Name(), dim, m, regime, ab, wantAb)
						}
						wantTileAb += wantAb
					}
					// The page pass settles one AddCalls per tile from the
					// summed row returns, so the sum must be the tile's count.
					if tileAb != wantTileAb {
						t.Fatalf("%s dim=%d m=%d %s: tile abandoned %d want %d", metric.Name(), dim, m, regime, tileAb, wantTileAb)
					}
				}
			}
		}
	}
}
