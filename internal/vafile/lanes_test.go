package vafile

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/vec"
)

// laneBodies lists the lane-pass bodies the build and the CPU run, by the
// value of Engine.asm that selects them: the portable one always, the
// assembly where vec's probe allows it.
func laneBodies() []bool {
	if vec.HaveAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

func bodyName(asm bool) string {
	if asm {
		return "avx2"
	}
	return "go"
}

// runLanes runs the body asm selects.
func runLanes(asm bool, t []laneTerm, cells []uint8, dim, ncells int) laneBounds {
	var b laneBounds
	if asm {
		sweepPageLanesAVX2(t, cells, dim, ncells, &b)
	} else {
		sweepPageLanes(t, cells, dim, ncells, &b)
	}
	return b
}

// laneReference is what sweepPageLanes is defined to return, one lane and
// one item at a time: each lane's sum of its terms in dimension order from
// zero, the smallest of them over the whole items of cells.
func laneReference(t []laneTerm, cells []uint8, dim, ncells int) laneBounds {
	var b laneBounds
	for j := range lanes {
		b[j] = math.Inf(1)
		for it := 0; (it+1)*dim <= len(cells); it++ {
			var lo float64
			for d, c := range cells[it*dim : (it+1)*dim] {
				lo += t[d*ncells+int(c)][j]
			}
			b[j] = min(b[j], lo)
		}
	}
	return b
}

// sameLanes reports the first lane on which got differs from want in a bit.
func sameLanes(got, want laneBounds) error {
	for j := range lanes {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("lane %d: %v, want %v", j, got[j], want[j])
		}
	}
	return nil
}

// randomCells returns n items' cells below ncells, the last dimension of the
// first item on the last cell (the last term of the table).
func randomCells(rng *rand.Rand, n, dim, ncells int) []uint8 {
	cells := make([]uint8, n*dim)
	for i := range cells {
		cells[i] = uint8(rng.Intn(ncells))
	}
	if n > 0 {
		cells[dim-1] = uint8(ncells - 1)
	}
	return cells
}

// TestLaneSweepBodiesAgree: every lane-pass body returns laneReference's bits
// on the tables of real queries — inside the data, on cell edges, far out and
// so far out that terms overflow to +Inf — for dimensions 1–20, bits 1/6/8
// and every sum-combined metric, over every page of the engine, empty and
// short pages (0–9 items) and cells with a tail shorter than an item; and a
// block's handles answer MinDist and Plan with the same bits
// whichever body swept them, a query with a NaN coordinate included.
func TestLaneSweepBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for dim := 1; dim <= 20; dim++ {
		items := testItems(int64(40+dim), 60, dim)
		for _, m := range sweepMetrics(t, dim) {
			for _, bits := range []int{1, 6, 8} {
				e, err := New(items, Config{PageCapacity: 7, Bits: bits, Metric: m})
				if err != nil {
					t.Fatal(err)
				}
				if e.kernel.Term == nil || e.kernel.Max {
					break // not swept in lanes
				}
				pool := sweepQueries(e, rng)
				huge := make(vec.Vector, dim)
				for d := range huge {
					huge[d] = math.MaxFloat64 / 3 * float64(1-2*(d%2))
				}
				pool = append(pool, huge)
				what := fmt.Sprintf("%s dim=%d bits=%d", m.Name(), dim, bits)

				tab := make([]laneTerm, dim*e.cells)
				for g := 0; g < len(pool); g += lanes {
					group := make([]prepared, min(lanes, len(pool)-g))
					for j := range group {
						group[j].q = pool[g+j]
					}
					e.fillLaneTables(tab, group)
					var pages [][]uint8
					for _, pa := range e.pages {
						pages = append(pages, pa.cells)
					}
					for n := 0; n <= 9; n++ {
						cells := randomCells(rng, n, dim, e.cells)
						pages = append(pages, cells, append(cells, 0))
					}
					for _, cells := range pages {
						want := laneReference(tab, cells, dim, e.cells)
						for _, asm := range laneBodies() {
							if err := sameLanes(runLanes(asm, tab, cells, dim, e.cells), want); err != nil {
								t.Fatalf("%s %s, %d cells of queries %v: %v", what, bodyName(asm), len(cells), pool[g:g+len(group)], err)
							}
						}
					}
				}

				if !vec.HaveAVX2() {
					continue
				}
				// A NaN coordinate fills rows of its lane with NaN terms.
				nan := slices.Clone(pool[0])
				nan[dim/2] = math.NaN()
				pool = append(pool, nan)
				handles := func(asm bool) []engine.PreparedQuery {
					e.asm = asm
					block := make([]engine.PreparedQuery, len(pool))
					e.PrepareBlock(pool, block)
					block[0].MinDist(0)
					return block
				}
				portable, avx2 := handles(false), handles(true)
				for i := range pool {
					if err := sameHandles(e, avx2[i], portable[i]); err != nil {
						t.Fatalf("%s member %d: avx2 against go: %v", what, i, err)
					}
				}
			}
		}
	}
}

// FuzzLaneSweep holds every lane-pass body to laneReference on tables and
// cells no engine would build: random cells (a byte past an item's end
// included), terms from zero to the largest float64 and +Inf, so that sums
// overflow, and pages of no item, a short one or a dozen.
func FuzzLaneSweep(f *testing.F) {
	f.Add(uint8(7), uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, int64(1), uint16(0))
	f.Add(uint8(0), uint8(0), []byte{}, int64(2), uint16(0xffff))
	f.Add(uint8(19), uint8(7), []byte{255, 0, 255, 0, 128}, int64(3), uint16(0x0101))
	f.Add(uint8(2), uint8(1), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, int64(4), uint16(0x8000))
	f.Fuzz(func(t *testing.T, dimB, bitsB uint8, raw []byte, seed int64, infs uint16) {
		dim, ncells := 1+int(dimB%20), 1<<(1+bitsB%8)
		cells := make([]uint8, min(len(raw), 12*dim))
		for i := range cells {
			cells[i] = uint8(int(raw[i]) % ncells)
		}
		rng := rand.New(rand.NewSource(seed))
		tab := make([]laneTerm, dim*ncells)
		term := func(i int) float64 {
			switch {
			case infs>>(i%16)&1 == 1 && rng.Intn(4) == 0:
				return math.Inf(1)
			case rng.Intn(8) == 0:
				return 0
			case rng.Intn(8) == 0:
				return math.MaxFloat64 * rng.Float64()
			}
			return rng.ExpFloat64()
		}
		for i := range tab {
			for j := range lanes {
				tab[i][j] = term(i + j)
			}
		}
		want := laneReference(tab, cells, dim, ncells)
		for _, asm := range laneBodies() {
			if err := sameLanes(runLanes(asm, tab, cells, dim, ncells), want); err != nil {
				t.Fatalf("%s dim=%d ncells=%d %d cells: %v", bodyName(asm), dim, ncells, len(cells), err)
			}
		}
	})
}
