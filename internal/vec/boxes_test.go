package vec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// foreignL1 is a coordinatewise metric this package has no GapKernel for.
type foreignL1 struct{ Manhattan }

// gapVectorBound is the definition every body of Boxes must equal bit for
// bit: the metric applied to the materialized gap vector and the origin —
// 0 for a metric that is not coordinatewise.
func gapVectorBound(m Metric, q, lo, hi Vector) float64 {
	base := BaseMetric(m)
	if cw, ok := base.(Coordinatewise); !ok || !cw.CoordinatewiseMetric() {
		return 0
	}
	gap, zero := make(Vector, len(q)), make(Vector, len(q))
	for d := range q {
		gap[d] = BoxGap(q[d], lo[d], hi[d])
	}
	return base.Distance(gap, zero)
}

// boxBodies returns one Boxes per body the build can run for m: the selected
// one and, where that is the assembly, the portable one beside it.
func boxBodies(m Metric, lo, hi []Vector) map[string]*Boxes {
	bodies := map[string]*Boxes{"selected": NewBoxes(m, lo, hi)}
	if bodies["selected"].asm {
		portable := NewBoxes(m, lo, hi)
		portable.asm = false
		bodies["portable"] = portable
	}
	return bodies
}

// checkBoxes holds every body to the definition: one sweep of all the boxes,
// sweeps in chunks of four and of twelve (a caller with less scratch than
// boxes), and the one-box form.
func checkBoxes(t *testing.T, what string, m Metric, lo, hi []Vector, q Vector) {
	t.Helper()
	n := len(lo)
	got, want := make([]float64, n), make([]float64, n)
	for i := range want {
		want[i] = gapVectorBound(m, q, lo[i], hi[i])
	}
	for body, b := range boxBodies(m, lo, hi) {
		same := func(how string, i int, d float64) {
			t.Helper()
			if math.Float64bits(d) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s %s: box %d [%v, %v] q=%v: %v (%#x), want %v (%#x)", what, body, how,
					i, lo[i], hi[i], q, d, math.Float64bits(d), want[i], math.Float64bits(want[i]))
			}
		}
		for _, chunk := range []int{n, 4, 12} {
			for i := range got {
				got[i] = -1
			}
			for from := 0; from < n; from += chunk {
				b.Sweep(q, from, got[from:min(from+chunk, n)])
			}
			for i, d := range got {
				same(fmt.Sprintf("chunk=%d", chunk), i, d)
			}
		}
		for i := range want {
			same("one box", i, b.Bound(q, i))
		}
	}
}

// testBoxes returns n boxes that cycle through the shapes a directory holds
// and the ones it must survive: an ordinary rectangle, a point (lo == hi),
// the empty rectangle (+Inf, −Inf), and faces at ±1e300, whose squared gaps
// overflow.
func testBoxes(rng *rand.Rand, dim, n int) (lo, hi []Vector) {
	lo, hi = make([]Vector, n), make([]Vector, n)
	for i := range lo {
		lo[i], hi[i] = make(Vector, dim), make(Vector, dim)
		for d := 0; d < dim; d++ {
			a, b := rng.Float64(), rng.Float64()
			switch i % 4 {
			case 1:
				b = a
			case 2:
				a, b = math.Inf(1), math.Inf(-1)
			case 3:
				if d%3 == 0 {
					a, b = -1e300*a, 1e300*b
				}
			}
			if i%4 != 2 {
				a, b = min(a, b), max(a, b)
			}
			lo[i][d], hi[i][d] = a, b
		}
	}
	return lo, hi
}

// testBoxQueries returns queries outside, inside and on a face of box 0, and
// one far enough out for every squared gap to overflow.
func testBoxQueries(rng *rand.Rand, lo, hi Vector) []Vector {
	dim := len(lo)
	outside, inside, face, huge := make(Vector, dim), make(Vector, dim), make(Vector, dim), make(Vector, dim)
	for d := 0; d < dim; d++ {
		outside[d] = 3*rng.Float64() - 1
		inside[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
		face[d] = inside[d]
		huge[d] = -1e300 * rng.Float64()
	}
	face[0], face[dim-1] = lo[0], hi[dim-1]
	return []Vector{outside, inside, face, huge}
}

// TestBoxLanesIdentical is TestItemLanesIdentical for the box-lane kernel:
// assembly ≡ portable ≡ the gap-vector form, every metric over a few shapes,
// then the Euclidean bodies over every dimension and every short last group.
func TestBoxLanesIdentical(t *testing.T) {
	t.Run("metrics", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, dim := range []int{1, 3, 4, 7, 16, 33} {
			metrics := []Metric{foreignL1{}}
			for _, m := range blockMetrics(t, dim) {
				metrics = append(metrics, m, NewCounting(m))
			}
			for _, p := range []float64{1, 2.5, 40} {
				mk, err := NewMinkowski(p)
				if err != nil {
					t.Fatal(err)
				}
				metrics = append(metrics, mk)
			}
			for _, n := range []int{1, 5, 27} {
				lo, hi := testBoxes(rng, dim, n)
				for _, q := range testBoxQueries(rng, lo[0], hi[0]) {
					for _, m := range metrics {
						checkBoxes(t, fmt.Sprintf("%s dim=%d n=%d", m.Name(), dim, n), m, lo, hi, q)
					}
				}
			}
		}
	})
	t.Run("euclidean", func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for dim := 1; dim <= 40; dim++ {
			for n := 1; n <= 70; n++ {
				lo, hi := testBoxes(rng, dim, n)
				for _, q := range testBoxQueries(rng, lo[0], hi[0]) {
					checkBoxes(t, fmt.Sprintf("dim=%d n=%d", dim, n), Euclidean{}, lo, hi, q)
				}
			}
		}
	})
}

// TestBoxesDimensionMismatch: a query that is longer or shorter than the
// boxes panics with this package's message before any body runs — it neither
// index-panics nor bounds on a coordinate prefix.
func TestBoxesDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	lo, hi := testBoxes(rng, 4, 6)
	for _, m := range []Metric{Euclidean{}, Manhattan{}, foreignL1{}, NewCounting(Chebyshev{})} {
		for body, b := range boxBodies(m, lo, hi) {
			for _, q := range []Vector{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5, 0.5}, nil} {
				for name, call := range map[string]func(){
					"Sweep": func() { b.Sweep(q, 0, make([]float64, 6)) },
					"Bound": func() { b.Bound(q, 5) },
				} {
					func() {
						defer func() {
							if msg, _ := recover().(string); !strings.HasPrefix(msg, "vec: dimension mismatch") {
								t.Errorf("%s %s %s: a query of dimension %d panicked with %q", m.Name(), body, name, len(q), msg)
							}
						}()
						call()
					}()
				}
			}
		}
	}
}

// FuzzEucBoxes feeds the Euclidean box bodies faces and queries straight
// from the fuzzer's bytes. Boxes are what a directory can hold — any two
// non-NaN values in order, infinite faces included, or the empty rectangle —
// and for a finite query the bodies must return the bits of the gap-vector
// form; a NaN or infinite query, which only a caller that skips validation
// can present, must merely come back.
func FuzzEucBoxes(f *testing.F) {
	f.Add(fuzzCoords(0.5, 0.25, 0.75), uint8(3), uint8(1))
	f.Add(fuzzCoords(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(4), uint8(8))
	f.Add(fuzzCoords(1e-300, 1e300, -1e300, 3), uint8(5), uint8(9)) // gaps that underflow and overflow
	f.Add(fuzzCoords(math.Inf(1), 1, math.Inf(-1), -2), uint8(7), uint8(17))
	f.Add(fuzzCoords(math.NaN(), 0.2, 0.3, 0.4, 0.5), uint8(20), uint8(19))
	f.Add([]byte{1, 2, 3}, uint8(39), uint8(69))
	f.Fuzz(func(t *testing.T, data []byte, dimIn, nIn uint8) {
		dim, n := 1+int(dimIn)%40, 1+int(nIn)%70
		vector := fuzzVectors(data, dim)
		q := vector()
		lo, hi := make([]Vector, n), make([]Vector, n)
		for i := range lo {
			lo[i], hi[i] = vector(), vector()
			for d := range lo[i] {
				a, b := lo[i][d], hi[i][d]
				if a != a || b != b {
					a, b = math.Inf(1), math.Inf(-1)
				} else if a > b {
					a, b = b, a
				}
				lo[i][d], hi[i][d] = a, b
			}
		}
		for _, x := range q {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				for _, b := range boxBodies(Euclidean{}, lo, hi) {
					b.Sweep(q, 0, make([]float64, n))
				}
				return
			}
		}
		checkBoxes(t, fmt.Sprintf("dim=%d n=%d", dim, n), Euclidean{}, lo, hi, q)
	})
}
