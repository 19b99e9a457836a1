package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
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

// itemRecord is shaped like a page's item: the vector between two other
// fields, so SweepRecords reads it at a stride and an offset of its own.
type itemRecord struct {
	ID    uint64
	Vec   Vector
	Label int
}

func recordVec(r *itemRecord) *Vector { return &r.Vec }

// asRecords puts rows into records, in order.
func asRecords(rows []Vector) []itemRecord {
	recs := make([]itemRecord, len(rows))
	for i, row := range rows {
		recs[i] = itemRecord{ID: uint64(i), Vec: row, Label: -i}
	}
	return recs
}

// checkItems sweeps rows tile at a time the way a live pass does, through
// both entries — Sweep over the []Vector and SweepRecords over recs, the
// same vectors in records — and holds every row against one
// DistanceWithin under the limit of its moment: the same flag and, where
// it holds, the same distance bits and a set bit in the sweep's mask. The
// two entries must agree bit for bit, no bit past the tile may be set, and
// a row whose bit is clear must be past the limit the sweep ran under.
// next picks the limit after a row resolved (within or not), so limits can
// tighten inside a sweep and move freely between sweeps. It returns the
// limit it ended with.
func checkItems(t *testing.T, what string, metric BoundedMetric, k *Items, tile int, q Vector, rows []Vector, recs []itemRecord, limit float64, next func(i int, d float64, within bool, limit float64) float64) float64 {
	t.Helper()
	dists, recDists := make([]float64, tile), make([]float64, tile)
	for base := 0; base < len(rows); base += tile {
		n := min(tile, len(rows)-base)
		mask := k.Sweep(q, rows[base:base+n], limit, dists)
		if got := SweepRecords(k, q, recs[base:base+n], recordVec, limit, recDists); got != mask {
			t.Fatalf("%s: rows %d-%d: mask in place %064b, over the vectors %064b", what, base, base+n-1, got, mask)
		}
		if n < 64 && mask>>n != 0 {
			t.Fatalf("%s: rows %d-%d: mask %064b has bits past the sweep", what, base, base+n-1, mask)
		}
		swept := limit
		for j := 0; j < n; j++ {
			if math.Float64bits(dists[j]) != math.Float64bits(recDists[j]) {
				t.Fatalf("%s: row %d: %v in place, %v over the vectors", what, base+j, recDists[j], dists[j])
			}
			if mask>>j&1 == 0 && !(dists[j] > swept) {
				t.Fatalf("%s: row %d: bit clear but %v is not past the sweep's limit %v", what, base+j, dists[j], swept)
			}
			d, within := metric.DistanceWithin(q, rows[base+j], limit)
			got := dists[j] <= limit
			if got != within || (within && mask>>j&1 == 0) {
				t.Fatalf("%s: row %d (mask %064b, limit %v, distance %v, got %v): within %v, want %v",
					what, base+j, mask, limit, d, dists[j], got, within)
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
					checkItems(t, what, metric, k, 1+dim%11, q, rows, asRecords(rows), start, func(_ int, d float64, within bool, limit float64) float64 {
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
// cadence) and every row count 1–20, and a few around one and two full
// masks, in sweeps of 5, 8, 20 and 64 (every short last group, alone and
// behind full ones, a sweep of 1–7 rows after a full one, and bit 63),
// with the limit re-set after every row the way a live pass tightens it —
// to a boundary of the next pair (eucLimit: the distance itself, its
// neighbours on both sides, 0, a limit whose square overflows, +Inf),
// never upwards inside a sweep.
func testEucItemsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	counts := []int{63, 64, 65, 71, 127, 128}
	for n := 20; n >= 1; n-- {
		counts = append([]int{n}, counts...)
	}
	for dim := 1; dim <= 40; dim++ {
		for _, n := range counts {
			rows := make([]Vector, n)
			for i := range rows {
				rows[i] = randomVector(rng, dim)
			}
			q := randomVector(rng, dim)
			rows[n/2] = q // one pair at distance 0
			recs := asRecords(rows)
			for body, k := range itemBodies(Euclidean{}) {
				for kind := 0; kind < 7; kind++ {
					for _, tile := range []int{5, itemLanes, 20, MaxSweepRows} {
						what := fmt.Sprintf("dim=%d n=%d kind=%d tile=%d %s", dim, n, kind, tile, body)
						start := eucLimit(kind, Euclidean{}.Distance(q, rows[0]))
						checkItems(t, what, Euclidean{}, k, tile, q, rows, recs, start, func(i int, _ float64, _ bool, limit float64) float64 {
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
						checkItems(t, what, Euclidean{}, k, n, q, rows, asRecords(rows), limit, func(_ int, d float64, within bool, limit float64) float64 {
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
// every row's length against the query's before any load, through both
// entries: a short row and a long one, at lanes 0, 3, 4 and 7 of a full
// group, in the group after it, in the last group (which overlaps the one
// before it) and in a sweep shorter than a group, panic with the message
// every kernel gives.
func TestItemsDimensionMismatch(t *testing.T) {
	q := Vector{0, 0, 0, 0}
	for body, k := range itemBodies(Euclidean{}) {
		for _, c := range []struct{ n, at int }{
			{19, 0}, {19, 3}, {19, 4}, {19, 7}, {19, 11}, {19, 16}, {19, 18}, {5, 0}, {5, 3}, {5, 4},
		} {
			for _, wrong := range []Vector{{1, 2, 3}, {1, 2, 3, 4, 5}} {
				rows := make([]Vector, c.n)
				for j := range rows {
					rows[j] = Vector{1, 2, 3, 4}
				}
				rows[c.at] = wrong
				want := fmt.Sprintf("vec: dimension mismatch %d vs %d", len(q), len(wrong))
				for entry, sweep := range map[string]func(){
					"Sweep":        func() { k.Sweep(q, rows, math.Inf(1), make([]float64, len(rows))) },
					"SweepRecords": func() { SweepRecords(k, q, asRecords(rows), recordVec, math.Inf(1), make([]float64, len(rows))) },
				} {
					func() {
						defer func() {
							if msg := recover(); msg != want {
								t.Errorf("%s %s: a row of dimension %d at %d of %d: panic %v, want %q", body, entry, len(wrong), c.at, c.n, msg, want)
							}
						}()
						sweep()
					}()
				}
			}
		}
	}
}

// TestSweepRecordsRefusesAForeignVector: the vector SweepRecords reads must
// be a field of the record it was asked about.
func TestSweepRecordsRefusesAForeignVector(t *testing.T) {
	other := Vector{1}
	for name, vecOf := range map[string]func(*itemRecord) *Vector{
		"outside": func(*itemRecord) *Vector { return &other },
		"next":    func(r *itemRecord) *Vector { return &(*[2]itemRecord)(unsafe.Pointer(r))[1].Vec },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a vector outside the record did not panic", name)
				}
			}()
			recs := asRecords([]Vector{{1}, {2}})
			SweepRecords(NewItems(Euclidean{}), Vector{0}, recs[:1], vecOf, 1, make([]float64, 1))
		}()
	}
}

// FuzzEucItems feeds the Euclidean item-lane bodies coordinates straight
// from the fuzzer's bytes — any float64, NaN and infinities included — under
// limits on every boundary of eucLimit that tighten as rows are accepted,
// and requires what testEucItemsContract does, through both entries and in
// sweeps of up to 64 rows: lane for lane the outcome of euclideanWithin.
func FuzzEucItems(f *testing.F) {
	f.Add(fuzzCoords(0.5, 0.25, 0.75), uint8(3), uint8(1), uint8(1))
	f.Add(fuzzCoords(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(4), uint8(8), uint8(0))
	f.Add(fuzzCoords(1e-300, 1e300, -1e300, 3), uint8(5), uint8(9), uint8(2))        // sums that underflow and overflow
	f.Add(fuzzCoords(math.Inf(1), 1, math.NaN(), -2), uint8(7), uint8(17), uint8(5)) // hostile rows
	f.Add(fuzzCoords(0.1, 0.2, 0.3, 0.4, 0.5), uint8(20), uint8(19), uint8(3))
	f.Add([]byte{1, 2, 3}, uint8(39), uint8(12), uint8(4))
	f.Add(fuzzCoords(0.3, -0.7, 2, 0.1, 5), uint8(8), uint8(69), uint8(63)) // a full mask, then a sweep of six
	f.Fuzz(func(t *testing.T, data []byte, dimIn, nIn, kind uint8) {
		dim, n := 1+int(dimIn)%40, 1+int(nIn)%130
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
			checkItems(t, what, Euclidean{}, k, 1+int(kind)%MaxSweepRows, q, rows, asRecords(rows), start, func(_ int, d float64, within bool, limit float64) float64 {
				if within && d < limit {
					return d
				}
				return limit
			})
		}
	})
}
