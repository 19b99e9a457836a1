//go:build linux

package vec

import (
	"fmt"
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps enough pages for n values of T and one more, makes the last
// inaccessible and returns n zeros whose last one ends flush against it: a
// load of even one byte past v[n-1] faults.
func guarded[T any](t *testing.T, n int) []T {
	t.Helper()
	size := int(unsafe.Sizeof(*new(T))) * n
	page := syscall.Getpagesize()
	mapped := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, mapped+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[mapped:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[mapped-size])), n)
}

// guardedFloats is guarded for float64s.
func guardedFloats(t *testing.T, n int) []float64 { return guarded[float64](t, n) }

// guardedVector returns a random vector that ends flush against an
// inaccessible page (see guardedFloats).
func guardedVector(t *testing.T, rng *rand.Rand, dim int) Vector {
	t.Helper()
	v := guardedFloats(t, dim)
	for d := range v {
		v[d] = rng.NormFloat64()
	}
	return v
}

// TestItemLanesStayInBounds runs every body, through both entries, over a
// query and rows that each end flush against an inaccessible page, for
// dimensions 1–20 (every tail of the four-dimension chunk) and 1–9 rows
// (every short group, a full one and one more), with limits that abandon
// early, late and never. The rows' headers lie flush against one too, at
// both strides: the []Vector Sweep walks and the records SweepRecords does.
// A body that loads past a row's last coordinate, or past the last header,
// dies of SIGSEGV here.
func TestItemLanesStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for dim := 1; dim <= 20; dim++ {
		for n := 1; n <= 9; n++ {
			q, rows, recs := guardedVector(t, rng, dim), guarded[Vector](t, n), guarded[itemRecord](t, n)
			for i := range rows {
				rows[i] = guardedVector(t, rng, dim)
				recs[i] = itemRecord{ID: uint64(i), Vec: rows[i], Label: i}
			}
			for _, limit := range []float64{0, math.Sqrt(float64(dim)), math.Inf(1)} {
				for body, k := range itemBodies(Euclidean{}) {
					what := fmt.Sprintf("dim=%d n=%d limit=%v %s", dim, n, limit, body)
					checkItems(t, what, Euclidean{}, k, n, q, rows, recs, limit, func(_ int, _ float64, _ bool, limit float64) float64 {
						return limit
					})
				}
			}
		}
	}
}

// TestRowLanesStayInBounds is TestItemLanesStayInBounds for the row
// kernel: the transposed queries, their thresholds and the screened tile
// (centred coordinates, norms and kept masks) each end flush against an
// inaccessible page, as does the item, for dimensions 1–20, 1–40 queries
// (1–5 blocks: every remainder after a run of four, and every amount of
// padding) and tiles of one and two groups, with limits that abandon early
// (0), late (just under the distance) and never. A body that reads or
// writes past any of them dies of SIGSEGV here.
func TestRowLanesStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for dim := 1; dim <= 20; dim++ {
		t.Run(fmt.Sprint("dim=", dim), func(t *testing.T) {
			item := guardedVector(t, rng, dim)
			tile := []Vector{item, randomVector(rng, dim), item, randomVector(rng, dim), item}
			for m := 1; m <= 40; m++ {
				queries := make([]Vector, m)
				for a := range queries {
					queries[a] = randomVector(rng, dim)
				}
				for _, limit := range []string{"early", "late", "never"} {
					limits := make([]float64, m)
					for a, q := range queries {
						switch limit {
						case "late":
							limits[a] = 0.99 * Euclidean{}.Distance(q, item)
						case "never":
							limits[a] = math.Inf(1)
						}
					}
					for body, r := range rowBodies(Euclidean{}) {
						r.Load(queries, limits)
						q, h := guardedFloats(t, len(r.q)), guardedFloats(t, len(r.h))
						copy(q, r.q)
						copy(h, r.h)
						r.q, r.h = q, h
						what := fmt.Sprintf("dim=%d m=%d limit %s %s", dim, m, limit, body)
						var sc RowScratch
						checkSweep(t, what, Euclidean{}, r, &sc, queries, limits, item)
						if !r.screens() {
							continue
						}
						for _, n := range []int{1, len(tile)} {
							want, rows, wantX, _ := screenDefinition(r, tile[:n])
							x, nx, kept := guardedFloats(t, len(wantX)), guardedFloats(t, len(rows)), guarded[uint64](t, len(want))
							eucCentreAVX2(rows, r.centre, x, nx)
							r.scaleNorms(nx)
							r.screen(x, nx, kept)
							for i, w := range want {
								if kept[i] != w {
									t.Fatalf("%s: tile of %d: kept word %d is %064b, the definition %064b", what, n, i, kept[i], w)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestBoxLanesStayInBounds is TestItemLanesStayInBounds for the box-lane
// kernel: the query and the group storage each end flush against an
// inaccessible page, for dimensions 1–20 and 1–9 boxes (every short last
// group, full ones and one more), swept whole, in chunks and box by box. A
// body that reads past q[dim-1] or past the last group dies of SIGSEGV here.
func TestBoxLanesStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for dim := 1; dim <= 20; dim++ {
		for n := 1; n <= 9; n++ {
			lo, hi := testBoxes(rng, dim, n)
			q := guardedVector(t, rng, dim)
			for body, b := range boxBodies(Euclidean{}, lo, hi) {
				data := guardedFloats(t, len(b.data))
				copy(data, b.data)
				b.data = data
				got := make([]float64, n)
				b.Sweep(q, 0, got)
				for i, want := range got {
					if d := b.Bound(q, i); math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("dim=%d n=%d %s: box %d alone %v, swept %v", dim, n, body, i, d, want)
					}
				}
				for from := 0; from < n; from += boxLanes {
					b.Sweep(q, from, got[from:min(from+boxLanes, n)])
				}
			}
		}
	}
}
