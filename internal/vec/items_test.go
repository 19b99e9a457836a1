package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// itemBodies returns one Items per body the build can run for metric: the
// selected one and, where that is the assembly, the portable one beside it.
func itemBodies(metric BoundedMetric) map[string]*Items {
	bodies := map[string]*Items{"selected": NewItems(metric)}
	if bodies["selected"].asm {
		bodies["portable"] = &Items{}
	}
	return bodies
}

// checkItems sweeps rows tile at a time the way a live pass does and holds
// every row against one DistanceWithin under the limit of its moment: the
// same flag and, where it holds, the same distance bits; a sweep that
// reports nothing within must hold no row within. next picks the limit
// after a row resolved (within or not), so limits can tighten inside a
// sweep and move freely between sweeps. It returns the limit it ended with.
func checkItems(t *testing.T, what string, metric BoundedMetric, k *Items, tile int, q Vector, rows []Vector, limit float64, next func(i int, d float64, within bool, limit float64) float64) float64 {
	t.Helper()
	dists := make([]float64, tile)
	for base := 0; base < len(rows); base += tile {
		n := min(tile, len(rows)-base)
		alive := k.Sweep(q, rows[base:base+n], limit, dists)
		for j := 0; j < n; j++ {
			d, within := metric.DistanceWithin(q, rows[base+j], limit)
			got := dists[j] <= limit
			if got != within || (within && !alive) {
				t.Fatalf("%s: row %d (sweep alive %v, limit %v, distance %v, got %v): within %v, want %v",
					what, base+j, alive, limit, d, dists[j], got, within)
			}
			if within && math.Float64bits(dists[j]) != math.Float64bits(d) {
				t.Fatalf("%s: row %d: distance %v (%#x), want %v (%#x)", what, base+j,
					dists[j], math.Float64bits(dists[j]), d, math.Float64bits(d))
			}
			limit = next(base+j, d, within, limit)
		}
	}
	return limit
}

// TestItemLanesIdentical is TestBlockRowIdentical for the item-lane kernel:
// assembly ≡ portable ≡ DistanceWithin, every metric over a few shapes, then
// the Euclidean bodies over every dimension, group tail and limit boundary.
func TestItemLanesIdentical(t *testing.T) {
	t.Run("metrics", testItemsEveryMetric)
	t.Run("euclidean", testEucItemsContract)
	t.Run("hostile", testEucItemsHostile)
}

func testItemsEveryMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, dim := range []int{1, 3, 4, 7, 16, 33} {
		b := testBlock(t, rng, dim, 27)
		rows := make([]Vector, b.N)
		for i := range rows {
			rows[i] = b.Item(i)
		}
		q := randomVector(rng, dim)
		for _, metric := range blockMetrics(t, dim) {
			for _, start := range []float64{math.Inf(1), 0.5 * float64(dim), 0} {
				for body, k := range itemBodies(metric) {
					what := fmt.Sprintf("%s dim=%d limit=%v %s", metric.Name(), dim, start, body)
					// A 3-NN list: the limit is the third-best distance so far.
					var best []float64
					checkItems(t, what, metric, k, 1+dim%11, q, rows, start, func(_ int, d float64, within bool, limit float64) float64 {
						if !within {
							return limit
						}
						best = append(best, d)
						for i := len(best) - 1; i > 0 && best[i] < best[i-1]; i-- {
							best[i], best[i-1] = best[i-1], best[i]
						}
						if len(best) < 3 {
							return limit
						}
						best = best[:3]
						return math.Min(limit, best[2])
					})
				}
			}
		}
	}
}

// testEucItemsContract holds the Euclidean bodies against euclideanWithin
// for every dimension 1–40 (tails that are not a multiple of the check
// cadence) and every row count 1–20 in sweeps of 5, 8 and 20 (every short
// last group, alone and behind full ones), with the limit re-set after
// every row the way a live pass tightens it — to a boundary of the next
// pair (eucLimit: the distance itself, its neighbours on both sides, 0, a
// limit whose square overflows, +Inf), never upwards inside a sweep.
func testEucItemsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for dim := 1; dim <= 40; dim++ {
		for n := 1; n <= 20; n++ {
			rows := make([]Vector, n)
			for i := range rows {
				rows[i] = randomVector(rng, dim)
			}
			q := randomVector(rng, dim)
			rows[n/2] = q // one pair at distance 0
			for body, k := range itemBodies(Euclidean{}) {
				for kind := 0; kind < 7; kind++ {
					for _, tile := range []int{5, itemLanes, 20} {
						what := fmt.Sprintf("dim=%d n=%d kind=%d tile=%d %s", dim, n, kind, tile, body)
						start := eucLimit(kind, Euclidean{}.Distance(q, rows[0]))
						checkItems(t, what, Euclidean{}, k, tile, q, rows, start, func(i int, _ float64, _ bool, limit float64) float64 {
							if i+1 == n {
								return limit
							}
							l := eucLimit(kind+i, Euclidean{}.Distance(q, rows[i+1]))
							if (i+1)%tile == 0 || l < limit {
								return l // between sweeps anything goes; inside one, only down
							}
							return limit
						})
					}
				}
			}
		}
	}
}

// testEucItemsHostile puts NaN and ±Inf coordinates in the rows and the
// query, at every position of a chunk and of the tail, under limits 0,
// finite, overflowing when squared, and +Inf.
func testEucItemsHostile(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324}
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 19} {
		for _, n := range []int{1, 3, 8, 9, 13} {
			for _, limit := range []float64{0, 0.9, 1e200, math.MaxFloat64, math.Inf(1)} {
				rows := make([]Vector, n)
				for i := range rows {
					rows[i] = randomVector(rng, dim)
					if i%2 == 0 {
						rows[i][(i/2)%dim] = hostile[i%len(hostile)]
					}
				}
				for _, q := range []Vector{randomVector(rng, dim), rows[0]} {
					for body, k := range itemBodies(Euclidean{}) {
						what := fmt.Sprintf("dim=%d n=%d limit=%v %s", dim, n, limit, body)
						checkItems(t, what, Euclidean{}, k, n, q, rows, limit, func(_ int, d float64, within bool, limit float64) float64 {
							if within && d < limit {
								return d
							}
							return limit
						})
					}
				}
			}
		}
	}
}

// TestItemsDimensionMismatch: like Rows.Sweep, the Euclidean bodies check
// every row's length against the query's before any load.
func TestItemsDimensionMismatch(t *testing.T) {
	for body, k := range itemBodies(Euclidean{}) {
		for _, short := range []int{0, itemLanes + 2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a row of the wrong dimension in lane %d did not panic", body, short)
					}
				}()
				rows := make([]Vector, itemLanes+3)
				for j := range rows {
					rows[j] = Vector{1, 2, 3, 4}
				}
				rows[short] = Vector{1, 2, 3}
				k.Sweep(Vector{0, 0, 0, 0}, rows, math.Inf(1), make([]float64, len(rows)))
			}()
		}
	}
}

// FuzzEucItems feeds the Euclidean item-lane bodies coordinates straight
// from the fuzzer's bytes — any float64, NaN and infinities included — under
// limits on every boundary of eucLimit that tighten as rows are accepted,
// and requires what testEucItemsContract does: lane for lane the outcome of
// euclideanWithin.
func FuzzEucItems(f *testing.F) {
	f.Add(fuzzCoords(0.5, 0.25, 0.75), uint8(3), uint8(1), uint8(1))
	f.Add(fuzzCoords(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(4), uint8(8), uint8(0))
	f.Add(fuzzCoords(1e-300, 1e300, -1e300, 3), uint8(5), uint8(9), uint8(2))        // sums that underflow and overflow
	f.Add(fuzzCoords(math.Inf(1), 1, math.NaN(), -2), uint8(7), uint8(17), uint8(5)) // hostile rows
	f.Add(fuzzCoords(0.1, 0.2, 0.3, 0.4, 0.5), uint8(20), uint8(19), uint8(3))
	f.Add([]byte{1, 2, 3}, uint8(39), uint8(12), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, dimIn, nIn, kind uint8) {
		dim, n := 1+int(dimIn)%40, 1+int(nIn)%20
		vector := fuzzVectors(data, dim)
		q := vector()
		rows := make([]Vector, n)
		for i := range rows {
			rows[i] = vector()
		}
		rows[n-1] = q
		for body, k := range itemBodies(Euclidean{}) {
			what := fmt.Sprintf("dim=%d n=%d kind=%d %s", dim, n, kind, body)
			start := eucLimit(int(kind), Euclidean{}.Distance(q, rows[0]))
			checkItems(t, what, Euclidean{}, k, 1+int(kind)%19, q, rows, start, func(_ int, d float64, within bool, limit float64) float64 {
				if within && d < limit {
					return d
				}
				return limit
			})
		}
	})
}
