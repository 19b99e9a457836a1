package vec

import (
	"fmt"
	"math"
)

// rowLanes is the width of one block of loaded queries: eight float64
// lanes, one AVX-512 register or two AVX2 ones. An abandon-point histogram
// of the scan batch chose it (EXPERIMENTS, "Where the batch spends its time,
// again"): under live limits a lane on its own is past its limit after 1.30
// four-dimension chunks, a group of four after 1.78 and a group of eight
// after 2.11 — twice the lanes per instruction for a fifth more chunks.
// Wider blocks were not the way on (EXPERIMENTS, "Where the row kernel
// waits"): a block is one chain of dependent adds, so the AVX-512 body keeps
// the width and runs four blocks at once instead.
const rowLanes = 8

// Rows is a set of queries loaded for one page, the row-at-a-time building
// block of the blocked page pass: Load fixes the queries and their limits
// once at the page barrier, Sweep evaluates one item against all of them,
// SetLimit follows a limit that tightened between items. Whatever body
// runs, a lane's outcome is DistanceWithin(query, item, limit) bit for bit:
// the same within flag and, where it holds, the same distance.
//
// For the Euclidean metric the queries are stored transposed, in blocks of
// rowLanes lanes — q[block][dim][lane] — so that a lane is a query and
// never a dimension: each lane adds its squared differences in strict index
// order, one multiply and one add per term and no fused multiply-add, which
// are the scalar kernel's roundings exactly, while one instruction advances
// every lane of a register. The last block is padded with lanes whose
// squared limit is -1: no sum is below it, so a padding lane never holds a
// block alive, and Sweep resolves the first m lanes only, so it never
// surfaces and is never counted. Every other metric takes the generic body,
// a loop over the metric's own DistanceWithin.
//
// Load, SetLimit and the first Sweep with a scratch grow buffers; in steady
// state nothing allocates. Concurrent Sweeps over one loaded set are safe,
// each with its own RowScratch.
type Rows struct {
	// bm is the generic body's kernel, nil when the Euclidean bodies run.
	bm BoundedMetric
	// body is the Euclidean sweep. Fixed by NewRows from the build and the
	// CPU; tests set it to run every body on the same inputs.
	body    rowBody
	dim, m  int
	queries []Vector  // as loaded, until the next Load (generic body only)
	loaded  []Vector  // the set q holds transposed, Load's own copy of the headers
	limits  []float64 // per lane, len m
	q       []float64 // [block][dim][rowLanes]
	h       []float64 // [block][rowLanes]: limit²·rowLimitSlack, -1 on padding
}

// RowHit is one lane of a Sweep whose distance is within its limit.
type RowHit struct {
	Lane int32   // index into the loaded queries
	D    float64 // the exact distance
}

// RowScratch is what one Sweep writes: the caller keeps one per goroutine
// and hands it to every call. The zero value is ready.
type RowScratch struct {
	hits  []RowHit
	sums  []float64 // the surviving blocks' squared sums, rowLanes each
	alive []int32   // the surviving blocks' indices
}

// NewRows returns an empty set for m: the transposed Euclidean bodies for
// Euclidean and Minkowski p = 2 (matching the scalar delegation), the
// generic body for anything else.
func NewRows(m BoundedMetric) *Rows {
	if euclideanKernel(m) {
		return &Rows{body: bestRowBody}
	}
	return &Rows{bm: m}
}

// A rowBody is one implementation of eucRowsGo's contract.
type rowBody uint8

const (
	rowGo     rowBody = iota // eucRowsGo, on every build
	rowAVX2                  // eucRowsAVX2: a block to two YMM registers
	rowAVX512                // eucRowsAVX512: a block to a ZMM register, four in flight
)

func (b rowBody) String() string { return [...]string{"go", "avx2", "avx512"}[b] }

// runs reports whether the build and the CPU can run b.
func (b rowBody) runs() bool {
	return b == rowGo || b == rowAVX2 && haveAVX2 || b == rowAVX512 && haveAVX512
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

// ISA names the instruction set r sweeps with: "avx512" or "avx2" for an
// assembly body, "go" for the portable Euclidean body (another architecture,
// a -tags purego build, a CPU without AVX2 or an operating system that does
// not save the YMM registers) and for the generic one.
func (r *Rows) ISA() string { return r.body.String() }

// Load replaces the loaded set. queries must stay unchanged until the next
// Load; limits is copied. The queries' common dimension is checked here,
// once, and each item's against it in Sweep.
//
// A page pass loads the same active set page after page with nothing but
// tighter limits, so Load recognizes the previous set — the same backing
// arrays in the same lanes — and then rewrites the limits only. A caller
// that reuses a query's backing array for other coordinates must not hand
// it to the Load after the one that saw the old ones.
func (r *Rows) Load(queries []Vector, limits []float64) {
	r.m = len(queries)
	r.limits = append(r.limits[:0], limits[:r.m]...)
	if r.bm != nil {
		r.queries = queries
		return
	}
	if r.m == 0 {
		r.h, r.loaded = r.h[:0], r.loaded[:0]
		return
	}
	if sameVectors(queries, r.loaded) {
		for a, limit := range r.limits {
			r.h[a] = limit * limit * rowLimitSlack
		}
		return
	}
	r.loaded = r.loaded[:0] // nothing, should a dimension check below panic
	dim := len(queries[0])
	r.dim = dim
	padded := (r.m + rowLanes - 1) / rowLanes * rowLanes
	if cap(r.q) < padded*dim {
		r.q = make([]float64, padded*dim)
	}
	if cap(r.h) < padded {
		r.h = make([]float64, padded)
	}
	r.q, r.h = r.q[:padded*dim], r.h[:padded]
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
		for d, x := range queries[a] {
			lane[d*rowLanes] = x
		}
		r.h[a] = limits[a] * limits[a] * rowLimitSlack
	}
	r.loaded = append(r.loaded, queries...)
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

// SetLimit replaces lane a's limit for the items swept from now on — what
// a live pass does when the lane's query accepts an item.
func (r *Rows) SetLimit(a int, limit float64) {
	r.limits[a] = limit
	if r.bm == nil {
		r.h[a] = limit * limit * rowLimitSlack
	}
}

// Sweep evaluates item against every loaded query and returns the lanes
// within their limits, in lane order, with their exact distances; every
// other lane is abandoned: its distance exceeds its limit. The result
// lives in sc until sc's next Sweep.
func (r *Rows) Sweep(item Vector, sc *RowScratch) []RowHit {
	if cap(sc.hits) < r.m {
		sc.hits = make([]RowHit, 0, r.m)
	}
	hits := sc.hits[:0]
	if r.bm != nil {
		for a, q := range r.queries {
			if d, within := r.bm.DistanceWithin(q, item, r.limits[a]); within {
				hits = append(hits, RowHit{Lane: int32(a), D: d})
			}
		}
		return hits
	}
	if r.m == 0 {
		return hits
	}
	if len(item) != r.dim {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", r.dim, len(item)))
	}
	if cap(sc.sums) < len(r.h) {
		sc.sums = make([]float64, len(r.h))
		sc.alive = make([]int32, len(r.h)/rowLanes)
	}
	sums, alive := sc.sums[:len(r.h)], sc.alive[:len(r.h)/rowLanes]
	n := r.sweepBlocks(item, sums, alive)
	for k, b := range alive[:n] {
		lo := int(b) * rowLanes
		hi := min(lo+rowLanes, r.m)
		for a := lo; a < hi; a++ {
			if d, within := eucLane(sums[k*rowLanes+a-lo], r.limits[a], r.h[a]); within {
				hits = append(hits, RowHit{Lane: int32(a), D: d})
			}
		}
	}
	return hits
}

// sweepBlocks runs r's body over every loaded block: eucRowsGo's contract.
func (r *Rows) sweepBlocks(item Vector, sums []float64, alive []int32) int {
	switch r.body {
	case rowAVX512:
		if n := eucRowsAVX512(r.q, r.h, item, sums, alive); n >= 0 {
			return n
		}
		// A NaN sum, which no checked item or query produces: the definition
		// decides what the four blocks in flight could not.
	case rowAVX2:
		return eucRowsAVX2(r.q, r.h, item, sums, alive)
	}
	return eucRowsGo(r.q, r.h, item, sums, alive)
}

// rowLimitSlack widens the squared-limit screen of the Euclidean row
// bodies. The guarantee needed is one-sided: s > fl(fl(limit²)·rowLimitSlack)
// must imply sqrt(s) > limit, so a lane can be declared abandoned without a
// square root. Each rounding contributes ~1.1e-16 of relative error while
// the slack adds 1e-10 of headroom, so the implication holds with margin;
// lanes in the (at most ~1e-10-wide) band above the exact squared limit
// simply fall through to the exact square-root comparison. A limit whose
// square overflows, like an infinite one, screens nothing and resolves the
// same way.
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

// eucRowsGo is the portable Euclidean sweep and the definition of what the
// assembly computes: for each block of rowLanes loaded queries, the lanes'
// running sums of squared differences to item, checked after every fourth
// dimension and after the last — sums only grow, so once every lane is past
// its squared limit all are provably abandoned and the block stops; where a
// block stops is free, because an abandoned lane's sum is never read. A
// block with a lane still at or under its limit at the end survives: its
// index goes to alive, its sums to sums, both compacted, and the count is
// returned. A NaN sum is past nothing, so it survives to eucLane, which
// rejects it like the scalar kernel does.
func eucRowsGo(q, h []float64, item Vector, sums []float64, alive []int32) int {
	dim, n := len(item), 0
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
		out := sums[n*rowLanes : (n+1)*rowLanes : (n+1)*rowLanes]
		out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = s0, s1, s2, s3, s4, s5, s6, s7
		alive[n] = int32(b)
		n++
	}
	return n
}
