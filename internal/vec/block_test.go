package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func testBlock(t *testing.T, rng *rand.Rand, dim, n int) *Block {
	t.Helper()
	b := &Block{Dim: dim, N: n, F64: make([]float64, n*dim)}
	for j := range b.F64 {
		b.F64[j] = rng.NormFloat64()
	}
	return b
}

func blockMetrics(t *testing.T, dim int) []BoundedMetric {
	t.Helper()
	mink, err := NewMinkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	mink2, err := NewMinkowski(2)
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
		Euclidean{}, Manhattan{}, Chebyshev{}, mink, mink2, wgt,
		NewCounting(qf).Kernel(), // no native kernel: the full-distance fallback
	}
}

// rowBodies returns one freshly built Rows per body the build and the CPU
// can run for metric: for the Euclidean kernel the portable body and every
// assembly body, whichever NewRows selects; for any other metric the
// generic body alone.
func rowBodies(metric BoundedMetric) map[string]*Rows {
	if r := NewRows(metric); r.bm != nil {
		return map[string]*Rows{"generic": r}
	}
	bodies := map[string]*Rows{}
	for b := rowGo; b <= rowAVX512; b++ {
		if b.runs() {
			r := NewRows(metric)
			r.body = b
			bodies[b.String()] = r
		}
	}
	return bodies
}

// eucScreenGo is the screen bodies' definition, operation by operation
// (see screenSlack): for each tile item and each block of lanes, one
// accumulator per lane starts at the item's scaled norm and takes one fused
// multiply-add per dimension, in dimension order — the lane's −2·(q −
// centre) by the item's centred coordinate — and the lane is kept where the
// accumulator is not greater than its threshold. A fused multiply-add
// rounds once whatever unit runs it, so the assembly's accumulators are
// these bit for bit, and its masks are these. kept is [item][words], lane a
// bit a%64 of word a/64.
func eucScreenGo(q, t, x, nx []float64, kept []uint64, dim int) {
	blocks := len(t) / rowLanes
	words := (len(t) + 63) / 64
	for j, norm := range nx {
		xj := x[j/screenItems*screenItems*dim+j%screenItems:]
		for b := 0; b < blocks; b++ {
			var mask uint64
			for l := 0; l < rowLanes; l++ {
				s := norm
				for d := 0; d < dim; d++ {
					s = math.FMA(q[(b*dim+d)*rowLanes+l], xj[d*screenItems], s)
				}
				if !(s > t[b*rowLanes+l]) {
					mask |= 1 << l
				}
			}
			kept[j*words+b/8] |= mask << (b % 8 * rowLanes)
		}
	}
}

// eucCentreGo is eucCentreAVX2's definition: each row's coordinates less
// centre's, to x as [group][dim][screenItems], and the sum of their squares
// to nx: one fused multiply-add each, the even dimensions' and the odd
// ones' in two sums in dimension order, added at the end.
func eucCentreGo(rows []Vector, centre, x, nx []float64) {
	dim := len(centre)
	for j, row := range rows {
		xj := x[j/screenItems*screenItems*dim+j%screenItems:]
		var s [2]float64
		for d, v := range row[:dim] {
			c := v - centre[d]
			xj[d*screenItems] = c
			s[d%2] = math.FMA(c, c, s[d%2])
		}
		nx[j] = s[0] + s[1]
	}
}

// screenDefinition screens items as eucCentreGo and eucScreenGo define it
// against r's loaded set under r's limits, whichever body r runs, and
// returns the kept lanes, [item][keptWords], and the padded tile, centred:
// its rows, coordinates and sums of squares.
func screenDefinition(r *Rows, items []Vector) (kept []uint64, rows []Vector, x, nx []float64) {
	def := &Rows{body: rowAVX512} // the screens' layout; nothing here runs the assembly
	def.Load(r.loaded, r.limits)
	sc := RowScratch{tile: append([]Vector(nil), items...)}
	def.padTile(&sc)
	rows, x, nx = sc.tile, make([]float64, len(sc.tile)*def.dim), make([]float64, len(sc.tile))
	eucCentreGo(rows, def.centre, x, nx)
	scaled := append([]float64(nil), nx...)
	def.scaleNorms(scaled)
	kept = make([]uint64, len(sc.kept))
	eucScreenGo(def.q, def.h, x, scaled, kept, def.dim)
	return kept, rows, x, nx
}

// keptLane reports whether kept, as screenDefinition returns it for r,
// keeps lane a of item j.
func keptLane(r *Rows, kept []uint64, j, a int) bool {
	words := (r.m + 63) / 64
	return kept[j*words+a/64]>>(a%64)&1 != 0
}

// sameBits reports whether got and want hold the same float64s bit for
// bit, a NaN matching any NaN.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// checkScreen holds the screen to its contract on items against r's
// loaded set and limits: by the definition, every lane it rejects is one
// euclideanWithin rejects, whichever body r runs; and where r's body is a
// screen the build and the CPU run, its centred tile and masks are the
// definition's, bit for bit.
func checkScreen(t *testing.T, what string, r *Rows, items ...Vector) {
	t.Helper()
	want, rows, wantX, wantNx := screenDefinition(r, items)
	for j, item := range items {
		for a, q := range r.loaded {
			if keptLane(r, want, j, a) {
				continue
			}
			if d, within := euclideanWithin(q, item, r.limits[a]); within {
				t.Fatalf("%s: item %d lane %d: the screen rejects a pair at %v (%#x) within its limit %v (%#x)",
					what, j, a, d, math.Float64bits(d), r.limits[a], math.Float64bits(r.limits[a]))
			}
		}
	}
	if !r.screens() || !r.body.runs() {
		return
	}
	x, nx := make([]float64, len(wantX)), make([]float64, len(wantNx))
	eucCentreAVX2(rows, r.centre, x, nx)
	if !sameBits(x, wantX) || !sameBits(nx, wantNx) {
		t.Fatalf("%s: the tile centred to %v, sums %v; the definition %v, %v", what, x, nx, wantX, wantNx)
	}
	var sc RowScratch
	r.Screen(items, &sc)
	for i, w := range want {
		if sc.kept[i] != w {
			t.Fatalf("%s: kept word %d: %s keeps lanes %064b, the definition %064b", what, i, r.body, sc.kept[i], w)
		}
	}
}

// checkHits holds one item's hits against one DistanceWithin per loaded
// query under limits: the same lanes within, in lane order, none of them a
// padding lane, the same distance bits, and hence the same abandoned count.
func checkHits(t *testing.T, what string, metric BoundedMetric, hits []RowHit, queries []Vector, limits []float64, item Vector) {
	t.Helper()
	next := 0
	for a, q := range queries {
		d, within := metric.DistanceWithin(q, item, limits[a])
		got := next < len(hits) && int(hits[next].Lane) == a
		if got != within {
			t.Fatalf("%s: lane %d of %d (limit %v, distance %v): within %v, want %v", what, a, len(queries), limits[a], d, got, within)
		}
		if !within {
			continue
		}
		if math.Float64bits(hits[next].D) != math.Float64bits(d) {
			t.Fatalf("%s: lane %d: distance %v (%#x), want %v (%#x)", what, a,
				hits[next].D, math.Float64bits(hits[next].D), d, math.Float64bits(d))
		}
		next++
	}
	if next != len(hits) {
		t.Fatalf("%s: %d hits for %d queries, %d of them matched: %v", what, len(hits), len(queries), next, hits)
	}
}

// checkSweep sweeps item and holds the result to checkHits. It returns the
// hits.
func checkSweep(t *testing.T, what string, metric BoundedMetric, r *Rows, sc *RowScratch, queries []Vector, limits []float64, item Vector) []RowHit {
	t.Helper()
	hits := r.Sweep(item, sc)
	checkHits(t, what, metric, hits, queries, limits, item)
	return hits
}

// checkTile screens items as one tile and resolves the live ones in order,
// each held to checkHits under the limits of that moment — an item the
// screen left out to having no hits; after each item, a hit on an even
// lane tightens the lane's limit to its distance, as a k-NN list's accept
// does between the items of a live tile.
func checkTile(t *testing.T, what string, metric BoundedMetric, r *Rows, sc *RowScratch, queries []Vector, limits []float64, items []Vector) {
	t.Helper()
	live := r.Screen(items, sc)
	if live>>len(items) != 0 {
		t.Fatalf("%s: live items %b of %d", what, live, len(items))
	}
	for j, item := range items {
		var hits []RowHit
		if live>>j&1 != 0 {
			hits = r.Resolve(j, sc)
		}
		checkHits(t, fmt.Sprintf("%s, tile item %d", what, j), metric, hits, queries, limits, item)
		for _, hit := range hits {
			if hit.Lane%2 == 0 {
				limits[hit.Lane] = hit.D
				r.SetLimit(int(hit.Lane), hit.D)
			}
		}
	}
}

// TestBlockRowIdentical asserts the loaded row kernel is bit-identical to
// per-pair DistanceWithin calls, one item at a time and a tile at a time:
// every metric over a few shapes, then the Euclidean bodies over every
// shape and limit boundary, and over blocks made to die at chosen checks.
func TestBlockRowIdentical(t *testing.T) {
	t.Run("metrics", testRowsEveryMetric)
	t.Run("euclidean", testEucRowsContract)
	t.Run("fates", testEucRowsFates)
}

// testRowsEveryMetric runs every metric through every body the build can
// run, item by item and as one tile of every item, the BlockKernel adapter
// included, across limit regimes (infinite, tight, mixed) and query counts
// that fill a block, leave padding in the last one, and span several.
func testRowsEveryMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, dim := range []int{1, 3, 4, 7, 16, 33} {
		b := testBlock(t, rng, dim, 24)
		for _, metric := range blockMetrics(t, dim) {
			adapter := NewBlockKernel(metric)
			for _, m := range []int{1, 2, 4, 5, 8, 11, 17} {
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
					what := fmt.Sprintf("%s dim=%d m=%d %s", metric.Name(), dim, m, regime)
					var want [][]RowHit
					items := make([]Vector, b.N)
					for i := range items {
						items[i] = b.Item(i)
					}
					for body, r := range rowBodies(metric) {
						var sc RowScratch
						r.Load(queries, limits)
						first := want == nil
						for _, item := range items {
							hits := checkSweep(t, what+" "+body, metric, r, &sc, queries, limits, item)
							if first {
								want = append(want, append([]RowHit(nil), hits...))
							}
						}
						tight := append([]float64(nil), limits...)
						r.Load(queries, tight)
						checkTile(t, what+" "+body, metric, r, &sc, queries, tight, items)
					}
					dOut, wOut := make([]float64, m), make([]bool, m)
					for i := 0; i < b.N; i++ {
						ab := adapter.RowWithin(queries, b, i, limits, dOut, wOut)
						if ab != m-len(want[i]) {
							t.Fatalf("%s: adapter abandoned %d of item %d, want %d", what, ab, i, m-len(want[i]))
						}
						next := 0
						for a := range queries {
							within := next < len(want[i]) && int(want[i][next].Lane) == a
							if wOut[a] != within {
								t.Fatalf("%s: adapter lane %d of item %d within %v, want %v", what, a, i, wOut[a], within)
							}
							if !within {
								if !math.IsInf(dOut[a], 1) {
									t.Fatalf("%s: adapter lane %d of item %d abandoned at %v, want +Inf", what, a, i, dOut[a])
								}
								continue
							}
							if math.Float64bits(dOut[a]) != math.Float64bits(want[i][next].D) {
								t.Fatalf("%s: adapter lane %d of item %d distance %v, want %v", what, a, i, dOut[a], want[i][next].D)
							}
							next++
						}
					}
				}
			}
		}
	}
}

// eucLimit returns a limit for a pair at exact distance d: the boundary
// cases of the squared-limit screen and of the exact comparison behind it.
// Kinds 1–3 are the rowLimitSlack band: the distance itself and its
// neighbours on both sides.
func eucLimit(kind int, d float64) float64 {
	switch kind % 7 {
	case 0:
		return 0
	case 1:
		return d
	case 2:
		return math.Nextafter(d, math.Inf(-1))
	case 3:
		return math.Nextafter(d, math.Inf(1))
	case 4:
		return 1e200 // finite; its square is not
	case 5:
		return math.Inf(1)
	}
	return d * 0.75
}

// testEucRowsContract holds the Euclidean bodies — every screen body the
// CPU can run, and the portable one — against euclideanWithin, and the
// screens against their definition, for every dimension 1–40 (tails that
// are not a multiple of the portable body's check cadence) and every set
// size 1–40 (every amount of padding in the last block) and then every
// whole block count to 9 (two runs of four blocks and every remainder after
// them). Item by item, each lane's limit is re-set before each item: to a
// boundary of that very pair, to the distance a hit just returned, or left
// alone. Then the items go as one tile, the limits only tightening.
func testEucRowsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const nItems = 5
	for dim := 1; dim <= 40; dim++ {
		items := make([]Vector, nItems)
		for i := range items {
			items[i] = randomVector(rng, dim)
		}
		for m := 1; m <= 9*rowLanes; m++ {
			if m > 40 && m%rowLanes != 0 {
				continue
			}
			queries := make([]Vector, m)
			for a := range queries {
				queries[a] = randomVector(rng, dim)
			}
			queries[m/2] = items[nItems/2] // one pair at distance 0
			for body, r := range rowBodies(Euclidean{}) {
				what := fmt.Sprintf("dim=%d m=%d %s", dim, m, body)
				var sc RowScratch
				limits := make([]float64, m)
				for a := range limits {
					limits[a] = eucLimit(a+dim, Euclidean{}.Distance(queries[a], items[0]))
				}
				r.Load(queries, limits)
				for i, item := range items {
					for a := range limits {
						if (a+i)%3 == 0 {
							limits[a] = eucLimit(a+i+m, Euclidean{}.Distance(queries[a], item))
							r.SetLimit(a, limits[a])
						}
					}
					checkScreen(t, what, r, item)
					for _, hit := range checkSweep(t, what, Euclidean{}, r, &sc, queries, limits, item) {
						if hit.Lane%2 == 0 { // a 1-NN list accepting the hit
							limits[hit.Lane] = hit.D
							r.SetLimit(int(hit.Lane), hit.D)
						}
					}
				}
				for a := range limits {
					limits[a] = eucLimit(a+m, Euclidean{}.Distance(queries[a], items[a%nItems]))
				}
				r.Load(queries, limits)
				checkScreen(t, what, r, items...)
				checkTile(t, what, Euclidean{}, r, &sc, queries, limits, items)
			}
		}
	}
}

// testEucRowsFates decides, block by block, at which of the portable body's
// checks a block dies — the first, a later one, the last, or never — and
// holds every Euclidean body to euclideanWithin on it, and the screens to
// their definition: runs of blocks that die whole at one check or one block
// at a time, dead blocks before and after live ones, in every position of
// 1–9 blocks. Every coordinate is 1 and the
// item 0, so a lane's sum after d dimensions is d exactly and a squared
// limit just under a check's dimension kills the lane there. In some sets
// one lane turns NaN at a random dimension: after its block died, a NaN is
// not past its limit, and only eucRowsGo's early stop says the block is dead.
func testEucRowsFates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, dim := range []int{3, 5, 8, 10, 13} {
		var checks []int // the dimensions after which eucRowsGo checks a block
		for d := 4; d < dim; d += 4 {
			checks = append(checks, d)
		}
		checks = append(checks, dim)
		item, half := make(Vector, dim), make(Vector, dim)
		for d := range half {
			half[d] = 0.5
		}
		for trial := 0; trial < 400; trial++ {
			blocks := 1 + rng.Intn(9)
			m := (blocks-1)*rowLanes + 1 + rng.Intn(rowLanes)
			queries, limits := make([]Vector, m), make([]float64, m)
			for a := range queries {
				queries[a] = make(Vector, dim)
				for d := range queries[a] {
					queries[a][d] = 1
				}
			}
			for b := 0; b < blocks; b++ {
				lo, hi := b*rowLanes, min((b+1)*rowLanes, m)
				fate := rng.Intn(len(checks) + 1) // len(checks): survives
				for a := lo; a < hi; a++ {
					dies := rng.Intn(fate + 1)
					if a == lo+rng.Intn(hi-lo) {
						dies = fate // the lane that holds the block until its fate
					}
					limits[a] = math.Inf(1)
					if dies < len(checks) {
						limits[a] = math.Sqrt(float64(checks[dies]) - 0.5)
					}
				}
			}
			if rng.Intn(3) == 0 {
				queries[rng.Intn(m)][rng.Intn(dim)] = math.NaN()
			}
			for body, r := range rowBodies(Euclidean{}) {
				var sc RowScratch
				r.Load(queries, limits)
				for _, it := range []Vector{item, half} {
					what := fmt.Sprintf("dim=%d m=%d trial %d %s", dim, m, trial, body)
					checkScreen(t, what, r, it)
					checkSweep(t, what, Euclidean{}, r, &sc, queries, limits, it)
				}
			}
		}
	}
}

// fuzzCoords is a fuzz seed: the given coordinates as the bytes fuzzVectors
// reads them from.
func fuzzCoords(xs ...float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// fuzzVectors returns a source of dim-dimensional vectors whose coordinates
// come straight from the fuzzer's bytes, cycling through them — any float64,
// NaN and infinities included.
func fuzzVectors(data []byte, dim int) func() Vector {
	at := 0
	return func() Vector {
		v := make(Vector, dim)
		for d := range v {
			var b [8]byte
			for i := range b {
				if len(data) > 0 {
					b[i] = data[at%len(data)]
				}
				at++
			}
			at += 3 // so that a short input does not repeat with period 8
			v[d] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		return v
	}
}

// FuzzEucRows feeds the Euclidean bodies coordinates straight from the
// fuzzer's bytes — any float64, NaN and infinities included — under limits
// on every boundary of eucLimit, and requires what testEucRowsContract
// does: lane for lane the outcome of euclideanWithin, item by item and as a
// tile, and from the screen only rejections euclideanWithin makes too, in
// the definition's masks.
func FuzzEucRows(f *testing.F) {
	f.Add(fuzzCoords(0.5, 0.25, 0.75), uint8(3), uint8(1), uint8(1))
	f.Add(fuzzCoords(1, 2, 3, 4, 5, 6, 7, 8, 9), uint8(4), uint8(8), uint8(0))
	f.Add(fuzzCoords(1e-300, 1e300, -1e300, 3), uint8(5), uint8(9), uint8(2))        // sums that underflow and overflow
	f.Add(fuzzCoords(math.Inf(1), 1, math.NaN(), -2), uint8(7), uint8(17), uint8(5)) // hostile items
	f.Add(fuzzCoords(0.1, 0.2, 0.3, 0.4, 0.5), uint8(20), uint8(40), uint8(3))
	f.Add([]byte{1, 2, 3}, uint8(39), uint8(23), uint8(4))
	f.Add(fuzzCoords(math.NaN(), 1, 2, math.Inf(-1), 0.5), uint8(6), uint8(71), uint8(6)) // nine blocks: two groups of four, one alone
	f.Add(fuzzCoords(3, -1, 0.5, 2, 7), uint8(11), uint8(47), uint8(5))                   // six blocks: a group and a pair
	f.Add(fuzzCoords(1e9+0.5, 1e9-0.25, 1e9+1e-5, 1e9), uint8(2), uint8(16), uint8(1))    // offset data, neighbours 1e-5 apart
	f.Add(fuzzCoords(3e155, -2e154, 1e200, 7), uint8(3), uint8(12), uint8(4))             // coordinates whose squares overflow
	f.Fuzz(func(t *testing.T, data []byte, dimIn, mIn, kind uint8) {
		dim, m := 1+int(dimIn)%40, 1+int(mIn)%(9*rowLanes)
		vector := fuzzVectors(data, dim)
		queries := make([]Vector, m)
		for a := range queries {
			queries[a] = vector()
		}
		items := []Vector{vector(), vector(), queries[m-1]}
		for body, r := range rowBodies(Euclidean{}) {
			var sc RowScratch
			limits := make([]float64, m)
			for a := range limits {
				limits[a] = eucLimit(int(kind)+a, Euclidean{}.Distance(queries[a], items[0]))
			}
			r.Load(queries, limits)
			for i, item := range items {
				what := fmt.Sprintf("dim=%d m=%d kind=%d item %d %s", dim, m, kind, i, body)
				checkScreen(t, what, r, item)
				for _, hit := range checkSweep(t, what, Euclidean{}, r, &sc, queries, limits, item) {
					limits[hit.Lane] = hit.D
					r.SetLimit(int(hit.Lane), hit.D)
				}
			}
			for a := range limits {
				limits[a] = eucLimit(int(kind)+a+1, Euclidean{}.Distance(queries[a], items[a%len(items)]))
			}
			r.Load(queries, limits)
			what := fmt.Sprintf("dim=%d m=%d kind=%d tile %s", dim, m, kind, body)
			checkScreen(t, what, r, items...)
			checkTile(t, what, Euclidean{}, r, &sc, queries, limits, items)
		}
	})
}

// TestRowsLoadAgain: Load keeps the transposed copy when it is handed the
// set it already holds (a mark in a padding lane survives) and transposes
// any other (the copy, poisoned beforehand, does not show). Either way the
// sweeps that follow are those of a freshly built Rows loaded with the same
// arguments: after the same set under tightened limits, and after a set
// that differs in one lane, in order, or in length.
func TestRowsLoadAgain(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const dim, m = 6, 11
	items := make([]Vector, 12)
	for i := range items {
		items[i] = randomVector(rng, dim)
	}
	queries := make([]Vector, m)
	for a := range queries {
		queries[a] = randomVector(rng, dim)
	}
	swapped := append([]Vector(nil), queries...)
	swapped[2], swapped[7] = swapped[7], swapped[2]
	replaced := append([]Vector(nil), queries...)
	replaced[m-1] = randomVector(rng, dim)
	// Each lane's limit is its query's distance to one of the items, scaled:
	// some items within, some not, at every scale used.
	limitsAt := func(scale float64) []float64 {
		limits := make([]float64, m)
		for a := range limits {
			limits[a] = scale * Euclidean{}.Distance(queries[a], items[a])
		}
		return limits
	}
	steps := []struct {
		name    string
		queries []Vector
		limits  []float64
		changed bool
	}{
		{"first", queries, limitsAt(1), true},
		{"same set, tighter", queries, limitsAt(0.95), false},
		{"same set from another slice", append([]Vector(nil), queries...), limitsAt(0.9), false},
		{"one lane replaced", replaced, limitsAt(0.9), true},
		{"back", queries, limitsAt(0.9), true},
		{"two lanes swapped", swapped, limitsAt(0.9), true},
		{"a prefix", queries[:5], limitsAt(0.9), true},
		{"the prefix again, tighter", queries[:5], limitsAt(0.85), false},
		{"grown back", queries, limitsAt(0.85), true},
	}
	for body, r := range rowBodies(Euclidean{}) {
		var sc RowScratch
		for _, step := range steps {
			// The first padding lane's first coordinate: no sweep reads it, a
			// transpose zeroes it.
			n := len(step.queries)
			mark := n/rowLanes*rowLanes*dim + n%rowLanes
			if step.changed {
				for i := range r.q {
					r.q[i] = math.NaN() // a stale copy would show in the sweeps
				}
			} else {
				r.q[mark] = 1
			}
			r.Load(step.queries, step.limits)
			if !step.changed && r.q[mark] != 1 {
				t.Errorf("%s, %s: the set was transposed again", body, step.name)
			}
			fresh := NewRows(Euclidean{})
			fresh.body = r.body
			fresh.Load(step.queries, step.limits)
			var fsc RowScratch
			hits := 0
			for i, item := range items {
				got := checkSweep(t, body+", "+step.name, Euclidean{}, r, &sc, step.queries, step.limits, item)
				hits += len(got)
				want := fresh.Sweep(item, &fsc)
				if len(got) != len(want) {
					t.Fatalf("%s, %s, item %d: %d hits, a fresh Load gives %d", body, step.name, i, len(got), len(want))
				}
				for k := range got {
					if got[k].Lane != want[k].Lane || math.Float64bits(got[k].D) != math.Float64bits(want[k].D) {
						t.Fatalf("%s, %s, item %d: hit %v, a fresh Load gives %v", body, step.name, i, got[k], want[k])
					}
				}
			}
			if hits == 0 || hits == len(items)*len(step.queries) {
				t.Errorf("%s, %s: %d hits of %d pairs: the limits decide nothing", body, step.name, hits, len(items)*len(step.queries))
			}
		}
	}
}

// TestRowScreenSound holds the screen to the one thing it promises — a lane
// it rejects is one euclideanWithin rejects — where its error bound is
// tightest: data offset by 0, 1e6 and 1e9 from the origin (the case
// centring is for), items that are near-duplicates of a query (a few ulps
// off) or exact duplicates (under limit 0), limits of +Inf, exactly the
// distance, one ulp either side of it, inside the rowLimitSlack band above
// and below it, coordinates whose squares overflow and, under limit 0,
// coordinates so small that theirs underflow. By the definition
// (eucScreenGo, on every build) and by every screen body the CPU runs,
// against the definition's masks; and every body's Resolves, as a tile and
// item by item, equal euclideanWithin bit for bit. Offset data must also
// be screened: the definition rejects nearly every pair that is not a
// near-duplicate and is farther than twice its limit.
func TestRowScreenSound(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	limitAt := func(kind int, d float64) float64 {
		switch kind % 9 {
		case 0:
			return math.Inf(1)
		case 1:
			return d
		case 2:
			return math.Nextafter(d, math.Inf(-1))
		case 3:
			return math.Nextafter(d, math.Inf(1))
		case 4:
			return d / (1 + 3e-11) // h is past d²: the exact comparison decides
		case 5:
			return d * (1 + 3e-11)
		case 6:
			return 0
		case 7:
			return d / 2
		}
		return 2 * d
	}
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for _, offset := range []float64{0, 1e6, 1e9} {
		far, farRejected := 0, 0
		for trial := 0; trial < trials; trial++ {
			dim, m := 1+rng.Intn(24), 1+rng.Intn(3*rowLanes)
			scale, tiny := 1.0, trial%10 == 8 && offset == 0
			switch {
			case trial%10 == 9:
				scale = 1e154 // squares that overflow, norms past screenMax
			case tiny:
				scale = 0x1p-540 // squares that underflow: below screenFloor
			}
			point := func() Vector {
				v := make(Vector, dim)
				for d := range v {
					if tiny {
						v[d] = scale * float64(rng.Intn(9)-4)
					} else {
						v[d] = offset + scale*rng.NormFloat64()
					}
				}
				return v
			}
			queries := make([]Vector, m)
			for a := range queries {
				queries[a] = point()
			}
			items := make([]Vector, 1+rng.Intn(9))
			for j := range items {
				switch j % 3 {
				case 0:
					items[j] = point()
				case 1: // a near-duplicate of a query: a few ulps off in each coordinate
					items[j] = append(Vector(nil), queries[rng.Intn(m)]...)
					for d := range items[j] {
						for k := rng.Intn(4); k > 0; k-- {
							items[j][d] = math.Nextafter(items[j][d], math.Inf(2*rng.Intn(2)-1))
						}
					}
				default: // an exact duplicate
					items[j] = queries[rng.Intn(m)]
				}
			}
			limits := make([]float64, m)
			for a := range limits {
				if !tiny {
					limits[a] = limitAt(rng.Intn(9), Euclidean{}.Distance(queries[a], items[rng.Intn(len(items))]))
				}
			}
			what := fmt.Sprintf("offset %g dim=%d m=%d trial %d", offset, dim, m, trial)
			def := &Rows{body: rowAVX512} // the screens' layout; nothing here runs the assembly
			def.Load(queries, limits)
			checkScreen(t, what, def, items...)
			if scale == 1 {
				kept, _, _, _ := screenDefinition(def, items)
				for j, item := range items {
					for a, q := range queries {
						if d := (Euclidean{}).Distance(q, item); d > 2*limits[a] && d > 1e-3 {
							far++
							if !keptLane(def, kept, j, a) {
								farRejected++
							}
						}
					}
				}
			}
			for body, r := range rowBodies(Euclidean{}) {
				var sc RowScratch
				tight := append([]float64(nil), limits...)
				r.Load(queries, tight)
				checkScreen(t, what+" "+body, r, items...)
				checkTile(t, what+" "+body, Euclidean{}, r, &sc, queries, tight, items)
				r.Load(queries, limits)
				for _, item := range items {
					checkSweep(t, what+" "+body, Euclidean{}, r, &sc, queries, limits, item)
				}
			}
		}
		if far == 0 || float64(farRejected) < 0.99*float64(far) {
			t.Errorf("offset %g: the screen rejects %d of %d pairs farther than twice their limit", offset, farRejected, far)
		}
	}
}
