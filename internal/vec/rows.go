package vec

import (
	"fmt"
	"math"
	"math/bits"
)

// rowLanes is the width of one block of loaded queries: eight float64
// lanes, one AVX-512 register or two AVX2 ones — for the screens one
// vector operand of the matrix product, for the portable body eight scalar
// sums checked against their limits together.
const rowLanes = 8

// Rows is a set of queries loaded for one page, the row-at-a-time building
// block of the blocked page pass: Load fixes the queries and their limits
// once at the page barrier, Screen takes a tile of the page's items,
// Resolve returns one tile item's lanes within their limits, and SetLimit
// follows a limit that tightened between items. Sweep is a one-item tile.
// Whatever body runs, a lane's outcome is DistanceWithin(query, item,
// limit) bit for bit under the lane's limit at the Resolve: the same within
// flag and, where it holds, the same distance.
//
// For the Euclidean metric the queries are stored transposed, in blocks of
// rowLanes lanes — q[block][dim][lane] — so that a lane is a query and
// never a dimension, and one instruction advances every lane of a block.
// Two kinds of body read them.
//
// The screen bodies (AVX-512, AVX2 with FMA) treat a tile as a matrix
// product: over coordinates centred on the first loaded query, the
// estimate ‖q′‖² + ‖x′‖² − 2q′·x′ of every lane's squared distance to every
// tile item, one fused multiply-add per lane and dimension, and a lane is
// rejected only where the estimate is past its squared limit by more than
// its rounding error could be (see screenSlack). What the screen keeps —
// a few lanes in a thousand at the benchmark's limits — Resolve decides by
// euclideanWithin itself, so nothing the caller sees is the estimate's.
//
// The portable body (eucRowsGo) keeps the scalar kernel's arithmetic: each
// lane adds its squared differences in strict index order, one multiply
// and one add per term, and Resolve settles it from the full sum.
//
// Every other metric takes the generic body, a loop over the metric's own
// DistanceWithin.
//
// Load, SetLimit and the first Screen with a scratch grow buffers; in
// steady state nothing allocates. Concurrent Screens and Resolves over one
// loaded set are safe, each with its own RowScratch.
type Rows struct {
	// bm is the generic body's kernel, nil when the Euclidean bodies run.
	bm BoundedMetric
	// body is the Euclidean body. Fixed by NewRows from the build and the
	// CPU; tests set it to run every body on the same inputs.
	body   rowBody
	dim, m int
	loaded []Vector  // the loaded set, Load's own copy of the headers
	limits []float64 // per lane, len m
	// q is [block][dim][rowLanes]: the coordinates for the portable body,
	// −2·(q − centre) for the screens; 0 on padding lanes.
	q []float64
	// h is [block][rowLanes]: for the portable body limit²·rowLimitSlack,
	// for the screens that less the lane's share of the estimate
	// (threshold); -1 on padding lanes.
	h []float64
	// The screens' own: the first query's coordinates, (1−c)·‖q − centre‖²
	// per lane (NaN where the lane is not screened) and 1−c.
	centre, norms []float64
	scale         float64
}

// RowHit is one lane of a Resolve whose distance is within its limit.
type RowHit struct {
	Lane int32   // index into the loaded queries
	D    float64 // the exact distance
}

// RowScratch is what one Screen writes and its Resolves read: the caller
// keeps one per goroutine and hands it to every call. The zero value is
// ready.
type RowScratch struct {
	hits []RowHit
	tile []Vector // the screened items, as handed over
	// The screens' group of screenItems tile items, centred: the
	// coordinates as [dim][screenItems], so that a dimension is one 32-byte
	// row, and (1−c)·‖x − centre‖² per item (NaN where the item is not
	// screened). And for the whole tile, padded to whole groups (padTile),
	// the lanes the screen kept, [item][keptWords], one bit a lane: lane a
	// is bit a%64 of word a/64.
	x, nx []float64
	kept  []uint64
}

// NewRows returns an empty set for m: the Euclidean bodies for Euclidean
// and Minkowski p = 2 (matching the scalar delegation), the generic body
// for anything else.
func NewRows(m BoundedMetric) *Rows {
	if euclideanKernel(m) {
		return &Rows{body: bestRowBody}
	}
	return &Rows{bm: m}
}

// A rowBody is one Euclidean body.
type rowBody uint8

const (
	rowGo     rowBody = iota // eucRowsGo, on every build
	rowAVX2                  // eucScreenAVX2: a block to two YMM registers, four items
	rowAVX512                // eucScreenAVX512: four blocks of ZMM registers, four items
)

func (b rowBody) String() string { return [...]string{"go", "avx2", "avx512"}[b] }

// runs reports whether the build and the CPU can run b.
func (b rowBody) runs() bool {
	return b == rowGo || haveAVX2 && haveFMA && (b == rowAVX2 || b == rowAVX512 && haveAVX512)
}

// bestRowBody is the body NewRows gives a Euclidean set: the widest one the
// build and the CPU can run.
var bestRowBody = func() rowBody {
	b := rowAVX512
	for !b.runs() {
		b--
	}
	return b
}()

// HaveAVX2 reports whether the build and the CPU run the AVX2 bodies: the
// probe behind every kernel here, for a package that keeps an AVX2 body of
// its own (the VA-file's lane sweep).
func HaveAVX2() bool { return haveAVX2 }

// HaveAVX512CLMUL reports whether the build and the CPU run carry-less
// multiplies on ZMM registers (AVX512F, AVX512VL, VPCLMULQDQ and SSE4.2,
// the operating system saving the ZMM state). No kernel here uses it: it is
// exported for the store's CRC-32C fold, so the tree keeps one CPUID probe.
func HaveAVX512CLMUL() bool { return haveCLMUL512 }

// ISA names the instruction set r sweeps with: "avx512" or "avx2" for a
// screen body, "go" for the portable Euclidean body (another architecture,
// a -tags purego build, a CPU without AVX2 and FMA or an operating system
// that does not save the YMM registers) and for the generic one.
func (r *Rows) ISA() string { return r.body.String() }

// screens reports whether r runs a screen body.
func (r *Rows) screens() bool { return r.bm == nil && r.body != rowGo }

// Load replaces the loaded set. queries must stay unchanged until the next
// Load; limits is copied. The queries' common dimension is checked here,
// once, and each item's against it in Screen.
//
// A page pass loads the same active set page after page with nothing but
// tighter limits, so Load recognizes the previous set — the same backing
// arrays in the same lanes — and then rewrites the thresholds only: the
// transposed copy, and the screens' centre and norms, stay. A caller that
// reuses a query's backing array for other coordinates must not hand it to
// the Load after the one that saw the old ones.
func (r *Rows) Load(queries []Vector, limits []float64) {
	r.m = len(queries)
	r.limits = append(r.limits[:0], limits[:r.m]...)
	if !sameVectors(queries, r.loaded) {
		r.transpose(queries)
	}
	if r.bm == nil {
		for a, limit := range r.limits {
			r.h[a] = r.threshold(a, limit)
		}
	}
}

// transpose lays queries out for r's body and keeps their headers.
func (r *Rows) transpose(queries []Vector) {
	r.loaded = r.loaded[:0] // nothing, should a dimension check below panic
	if r.bm != nil || r.m == 0 {
		r.h = r.h[:0]
		r.loaded = append(r.loaded, queries...)
		return
	}
	dim := len(queries[0])
	r.dim = dim
	padded := (r.m + rowLanes - 1) / rowLanes * rowLanes
	r.q, r.h = grow(r.q, padded*dim), grow(r.h, padded)
	screens := r.screens()
	if screens {
		r.centre = append(r.centre[:0], queries[0]...)
		r.norms = grow(r.norms, padded)
		r.scale = 1 - screenSlack(dim)
	}
	for a := 0; a < padded; a++ {
		lane := r.q[a/rowLanes*rowLanes*dim+a%rowLanes:]
		if a >= r.m {
			for d := 0; d < dim; d++ {
				lane[d*rowLanes] = 0
			}
			r.h[a] = -1
			continue
		}
		mustSameDim(queries[a], queries[0])
		if !screens {
			for d, x := range queries[a] {
				lane[d*rowLanes] = x
			}
			continue
		}
		var s float64
		for d, x := range queries[a] {
			c := x - r.centre[d]
			lane[d*rowLanes] = -2 * c
			s += c * c
		}
		r.norms[a] = r.screened(s)
	}
	r.loaded = append(r.loaded, queries...)
}

// grow returns s resized to n, reallocated only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sameVectors reports whether a and b are the same vectors lane for lane:
// equal lengths over one backing array.
func sameVectors(a, b []Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if len(v) != len(b[i]) || (len(v) > 0 && &v[0] != &b[i][0]) {
			return false
		}
	}
	return true
}

// SetLimit replaces lane a's limit for the items resolved from now on —
// what a live pass does when the lane's query accepts an item. Between
// the items of one tile a limit may only tighten: the screen ran under the
// limits the tile started with.
func (r *Rows) SetLimit(a int, limit float64) {
	r.limits[a] = limit
	if r.bm == nil {
		r.h[a] = r.threshold(a, limit)
	}
}

// threshold is lane a's h under limit: the portable body's squared-limit
// screen, or the screens' T (see screenSlack).
func (r *Rows) threshold(a int, limit float64) float64 {
	h := limit * limit * rowLimitSlack
	if r.screens() {
		return max(h, screenFloor) - r.norms[a]
	}
	return h
}

// Sweep evaluates item against every loaded query and returns the lanes
// within their limits, in lane order, with their exact distances; every
// other lane is abandoned: its distance exceeds its limit. The result
// lives in sc until sc's next Screen or Resolve.
func (r *Rows) Sweep(item Vector, sc *RowScratch) []RowHit {
	r.Screen([]Vector{item}, sc)
	return r.Resolve(0, sc)
}

// maxRowTile is the most items one Screen takes: one bit each of live.
const maxRowTile = 64

// Screen takes a tile of at most 64 items (maxRowTile) for the Resolves that
// follow, and for a screen body runs the screen over it under the limits
// of this moment. It returns the items that need a Resolve, bit j for item
// j: any other has no lane within its limit now, nor under any tighter
// limit. The item headers are copied; their coordinates must stay
// unchanged until sc's next Screen.
func (r *Rows) Screen(items []Vector, sc *RowScratch) (live uint64) {
	if len(items) > maxRowTile {
		panic(fmt.Sprintf("vec: a tile of %d items, more than %d", len(items), maxRowTile))
	}
	sc.tile = append(sc.tile[:0], items...)
	if cap(sc.hits) < r.m {
		sc.hits = make([]RowHit, 0, r.m)
	}
	if r.m == 0 {
		return 0
	}
	all := uint64(1)<<len(items) - 1 // a shift by 64 is 0: all 64 bits
	if r.bm != nil {
		return all
	}
	for _, item := range items {
		if len(item) != r.dim {
			panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", r.dim, len(item)))
		}
	}
	if !r.screens() {
		return all
	}
	r.padTile(sc)
	words := r.keptWords()
	for g := 0; g < len(sc.tile); g += screenItems {
		// A group at a time, so that the next group's rows, prefetched as
		// this one is centred, arrive while it is screened.
		eucCentreAVX2(sc.tile[g:], r.centre, sc.x, sc.nx)
		r.scaleNorms(sc.nx)
		r.screen(sc.x, sc.nx, sc.kept[g*words:(g+screenItems)*words])
	}
	return r.live(sc, len(items))
}

// live returns the first n tile items with a lane the screen kept, bit j
// for item j.
func (r *Rows) live(sc *RowScratch, n int) uint64 {
	words := r.keptWords()
	var live uint64
	for j := 0; j < n; j++ {
		var kept uint64
		for _, lanes := range sc.kept[j*words : (j+1)*words] {
			kept |= lanes
		}
		if kept != 0 {
			live |= 1 << j
		}
	}
	return live
}

// padTile fills sc's tile up to a whole number of groups of screenItems
// by repeating its last item — lanes no Resolve reads — and sizes the
// screens' buffers to a group and the kept lanes to the tile.
func (r *Rows) padTile(sc *RowScratch) {
	for len(sc.tile)%screenItems != 0 {
		sc.tile = append(sc.tile, sc.tile[len(sc.tile)-1])
	}
	sc.x, sc.nx = grow(sc.x, screenItems*r.dim), grow(sc.nx, screenItems)
	sc.kept = grow(sc.kept, len(sc.tile)*r.keptWords())
	clear(sc.kept) // the bits past the last block: the bodies write whole bytes only
}

// keptWords is the length of an item's row of kept lanes: a bit a lane,
// the padding lanes included, rounded up to whole words.
func (r *Rows) keptWords() int { return (len(r.h) + 63) / 64 }

// scaleNorms turns sums of squares into the norms the screens read (see
// screened).
func (r *Rows) scaleNorms(nx []float64) {
	for j, s := range nx {
		nx[j] = r.screened(s)
	}
}

// screen runs r's screen body over centred groups of items.
func (r *Rows) screen(x, nx []float64, kept []uint64) {
	if r.body == rowAVX512 {
		eucScreenAVX512(r.q, r.h, x, nx, kept, r.dim)
	} else {
		eucScreenAVX2(r.q, r.h, x, nx, kept, r.dim)
	}
}

// Resolve returns tile item j's lanes within their limits of this moment,
// in lane order, with their exact distances; every other lane is
// abandoned. The result lives in sc until sc's next Screen or Resolve.
func (r *Rows) Resolve(j int, sc *RowScratch) []RowHit {
	hits, item := sc.hits[:0], sc.tile[j]
	switch {
	case r.bm != nil:
		for a, q := range r.loaded {
			if d, within := r.bm.DistanceWithin(q, item, r.limits[a]); within {
				hits = append(hits, RowHit{Lane: int32(a), D: d})
			}
		}
	case r.m == 0:
	case r.body == rowGo:
		hits = eucRowsGo(r.q, r.h, r.limits[:r.m], item, hits)
	default:
		words := r.keptWords()
		for w, lanes := range sc.kept[j*words : (j+1)*words] {
			for ; lanes != 0; lanes &= lanes - 1 {
				a := w*64 + bits.TrailingZeros64(lanes)
				if a >= r.m {
					break // padding
				}
				if d, within := euclideanWithin(r.loaded[a], item, r.limits[a]); within {
					hits = append(hits, RowHit{Lane: int32(a), D: d})
				}
			}
		}
	}
	sc.hits = hits
	return hits
}

// screenItems is how many tile items a screen body takes at once; a tile
// is padded to a whole number of such groups.
const screenItems = 4

// The screen and its error bound. For a lane with centred coordinates a
// (a_d = fl(q_d − centre_d)) and a tile item with b, over n dimensions,
// write A = Σa², B = Σb², P = Σa·b, D′² = A + B − 2P, D² = ‖q − x‖² and
// u = 2⁻⁵³. The bodies compute, with k = fl(1 − c):
//
//	nq = fl(k·fl(Σa²)) per lane, nx = fl(k·fl(Σb²)) per item,
//	T  = fl(h − nq) per lane (threshold), h = max(fl(fl(limit²)·rowLimitSlack), screenFloor),
//	S  = nx, then S = fma(−2a_d, b_d, S) for d = 0 … n−1 (one rounding each),
//
// and reject the lane iff S > T: with est = (nq + nx)/k − 2P the estimate
// of ‖q′ − x′‖² and E = c·(nq + nx)/k its error bound, S > T is est − E >
// h, rearranged so that a pair costs one fused multiply-add a dimension
// and one compare. Rounding by rounding:
//
//   - the two sums of squares are within γ_n of A and B, and k·(1+u) ≤
//     1 − c + 1.5u, so A + B − nq − nx ≥ (A + B)(c − γ_n − 2.5u);
//   - the FMA chain over n + 1 terms is within γ_n·(nx + Σ|2a_d·b_d|) ≤
//     2γ_n·(A + B) of nx − 2P;
//   - T is within u·(h + nq) of h − nq;
//   - centring: each a_d − b_d is within u·(|a_d| + |b_d|)/(1−u) of
//     q_d − x_d, and D ≤ ‖a‖ + ‖b‖ ≤ √(2(A+B)), so D′² − D² ≤
//     4u·(A + B)·(1 + O(u)).
//
// Summed, S > T implies D² > h·(1 − u) + (A + B)·(c − 3γ_n − 7.5u) − ν,
// where ν, at most (8n + 16)·2⁻¹⁰⁷⁴, is what gradual underflow adds to
// those relative bounds. With c = (3n + 16)·u the second term is positive
// (γ_n = nu/(1 − nu) leaves 8.5u − O(n²u²)), and screenFloor ≫ ν, so
// D² > h·(1 − u) − ν: either limit² is below screenFloor/2 and D² is more
// than twice it, or D² > limit²·(1 + 0.99e-10). The scalar kernel's sum is
// within γ_{n+2} of D² and ν of underflow below it, so it exceeds limit²
// by rowLimitSlack's margin and euclideanWithin rejects the pair too. That
// is all the screen promises: rejected lanes are rejected by the
// definition; kept ones are decided by it.
//
// The bounds hold only while nothing overflows, so a lane or an item whose
// fl(Σa²) is not at most screenMax — huge, infinite or NaN — gets a NaN
// norm: its T or its S is NaN, and the ordered compare keeps it. Below
// screenMax, |S| ≤ 3·2¹⁰²⁰ at every step. A limit whose square overflows,
// like an infinite one, gives T = +Inf and keeps every lane; a NaN limit
// keeps it the same way.
//
// Centring is what makes c·(A + B) small: with coordinates ≈ 50 and
// neighbours 1e-5 apart, uncentred norms of 2500 per dimension would put
// E above every squared limit and the screen would reject nothing.
func screenSlack(dim int) float64 { return float64(3*dim+16) * 0x1p-53 }

const (
	screenFloor = 0x1p-960  // the least h the screens compare with (see screenSlack)
	screenMax   = 0x1p+1020 // the greatest norm they screen (see screenSlack)
)

// screened is a lane's or an item's norm as the screens read it: s scaled
// by r's 1−c, or NaN when s is not at most screenMax.
func (r *Rows) screened(s float64) float64 {
	if !(s <= screenMax) {
		return math.NaN()
	}
	return r.scale * s
}

// rowLimitSlack widens the squared limit h = fl(fl(limit²)·rowLimitSlack)
// that every Euclidean body screens against. The guarantee needed is
// one-sided: a squared distance past h must imply a distance past limit,
// so a lane can be declared abandoned without a square root. Each rounding
// contributes ~1.1e-16 of relative error while the slack adds 1e-10 of
// headroom, so the implication holds with margin for the portable body's
// exact sums, and for the screens' estimates less their error bound (see
// screenSlack); lanes in the (at most ~1e-10-wide) band above the exact
// squared limit fall through to the exact square-root comparison. A limit
// whose square overflows, like an infinite one, screens nothing and
// resolves the same way.
const rowLimitSlack = 1 + 1e-10

// eucLane resolves one lane of a surviving block from its full squared sum:
// past the widened screen h the lane is abandoned without a square root,
// otherwise the exact comparison decides, which is the scalar kernel's
// final check verbatim. Flags therefore match euclideanWithin exactly: both
// decide within ⟺ sqrt(full sum) <= limit (the scalar early return fires
// only when that predicate already fails, and a sum that stays under the
// limit is accumulated to the end by both).
func eucLane(s, limit, h float64) (float64, bool) {
	if s > h {
		return 0, false
	}
	d := math.Sqrt(s)
	return d, d <= limit
}

// eucRowsGo is the portable Euclidean body: for each block of rowLanes
// loaded queries, the lanes' running sums of squared differences to item,
// checked after every fourth dimension and after the last — sums only
// grow, so once every lane is past its squared limit h all are provably
// abandoned and the block stops. A block with a lane still at or under its
// limit at the end has its real lanes (the first len(limits)) resolved by
// eucLane, in lane order, onto hits. A NaN sum is past nothing, so it
// survives to eucLane, which rejects it like the scalar kernel does.
func eucRowsGo(q, h, limits []float64, item Vector, hits []RowHit) []RowHit {
	dim := len(item)
	for b := 0; b*rowLanes < len(h); b++ {
		hb := h[b*rowLanes : (b+1)*rowLanes : (b+1)*rowLanes]
		qb := q[b*rowLanes*dim : (b+1)*rowLanes*dim]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		dead := false
		for d := 0; d < dim && !dead; {
			v := item[d]
			ql := qb[d*rowLanes : (d+1)*rowLanes : (d+1)*rowLanes]
			e0 := ql[0] - v
			s0 += e0 * e0
			e1 := ql[1] - v
			s1 += e1 * e1
			e2 := ql[2] - v
			s2 += e2 * e2
			e3 := ql[3] - v
			s3 += e3 * e3
			e4 := ql[4] - v
			s4 += e4 * e4
			e5 := ql[5] - v
			s5 += e5 * e5
			e6 := ql[6] - v
			s6 += e6 * e6
			e7 := ql[7] - v
			s7 += e7 * e7
			d++
			dead = (d&3 == 0 || d == dim) &&
				s0 > hb[0] && s1 > hb[1] && s2 > hb[2] && s3 > hb[3] &&
				s4 > hb[4] && s5 > hb[5] && s6 > hb[6] && s7 > hb[7]
		}
		if dead {
			continue
		}
		sums := [rowLanes]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		for l, s := range sums[:min(rowLanes, len(limits)-b*rowLanes)] {
			a := b*rowLanes + l
			if d, within := eucLane(s, limits[a], hb[l]); within {
				hits = append(hits, RowHit{Lane: int32(a), D: d})
			}
		}
	}
	return hits
}
