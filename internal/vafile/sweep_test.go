package vafile

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The oracle: the arithmetic the query path used before the cell tables —
// fill a gap vector per item, with a three-way branch per coordinate, and
// ask the metric for its distance from the origin. Test-only; the sweep has
// to return its bits.

// itemLowerBound returns the cell-derived lower bound on the distance from
// q to the it-th item of page pi, writing the per-dimension gaps into
// scratch (len dim).
func (e *Engine) itemLowerBound(q vec.Vector, pi store.PageID, it int, scratch, zero vec.Vector) float64 {
	if !e.cw {
		return 0
	}
	cells := e.pages[pi].cells[it*e.dim : (it+1)*e.dim]
	for d := 0; d < e.dim; d++ {
		b := e.bounds[d]
		c := int(cells[d])
		lo, hi := b[c], b[c+1]
		switch {
		case q[d] < lo:
			scratch[d] = lo - q[d]
		case q[d] > hi:
			scratch[d] = q[d] - hi
		default:
			scratch[d] = 0
		}
	}
	return e.base.Distance(scratch, zero)
}

// oraclePageBound is the minimum item lower bound of a page.
func (e *Engine) oraclePageBound(q vec.Vector, pid store.PageID) float64 {
	scratch, zero := make(vec.Vector, e.dim), make(vec.Vector, e.dim)
	lb := math.Inf(1)
	for it := 0; it < len(e.pages[pid].cells)/e.dim; it++ {
		lb = math.Min(lb, e.itemLowerBound(q, pid, it, scratch, zero))
	}
	return lb
}

// doubledManhattan is a coordinatewise metric vec does not ship, so the
// engine has no tables for it.
type doubledManhattan struct{}

func (doubledManhattan) Distance(a, b vec.Vector) float64 {
	return 2 * vec.Manhattan{}.Distance(a, b)
}
func (doubledManhattan) Name() string               { return "doubled-manhattan" }
func (doubledManhattan) CoordinatewiseMetric() bool { return true }

func mustMinkowski(t testing.TB, p float64) vec.Minkowski {
	t.Helper()
	m, err := vec.NewMinkowski(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sweepItems draws n items in [0,1]^dim whose dimension flat is constant.
func sweepItems(seed int64, n, dim, flat int) []store.Item {
	items := testItems(seed, n, dim)
	for i := range items {
		items[i].Vec[flat] = 0.7
	}
	return items
}

// sweepMetrics are the five coordinatewise metrics vec ships (Minkowski at
// an integer order, a fractional one and the two it delegates), plus one it
// does not.
func sweepMetrics(t testing.TB, dim int) []vec.Metric {
	w := make(vec.Vector, dim)
	for i := range w {
		w[i] = 0.25 + float64(i)
	}
	we, err := vec.NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	return []vec.Metric{
		vec.Euclidean{}, vec.Manhattan{}, vec.Chebyshev{}, we,
		mustMinkowski(t, 3), mustMinkowski(t, 2.5), mustMinkowski(t, 1), mustMinkowski(t, 2),
		doubledManhattan{},
	}
}

// sweepQueries returns queries inside the data range, on cell edges and the
// range's corners, and far outside it.
func sweepQueries(e *Engine, rng *rand.Rand) []vec.Vector {
	var qs []vec.Vector
	for i := 0; i < 4; i++ {
		in, edge, far := make(vec.Vector, e.dim), make(vec.Vector, e.dim), make(vec.Vector, e.dim)
		for d := range in {
			in[d] = rng.Float64()
			edge[d] = e.bounds[d][rng.Intn(e.cells+1)]
			far[d] = (rng.Float64() - 0.5) * 100
		}
		qs = append(qs, in, edge, far)
	}
	lo, hi := make(vec.Vector, e.dim), make(vec.Vector, e.dim)
	for d := range lo {
		lo[d], hi[d] = e.bounds[d][0], e.bounds[d][e.cells]
	}
	return append(qs, lo, hi)
}

// TestSweepMatchesGapVectorOracle: the table path returns the float64 bits
// of the gap-vector arithmetic for every page's MinDist, and Plan is the
// oracle's plan.
func TestSweepMatchesGapVectorOracle(t *testing.T) {
	const dim = 5
	items := sweepItems(11, 300, dim, 3)
	for _, m := range sweepMetrics(t, dim) {
		for _, bits := range []int{1, 6, 8} {
			t.Run(fmt.Sprintf("%s/bits=%d", m.Name(), bits), func(t *testing.T) {
				e, err := New(items, Config{PageCapacity: 16, Bits: bits, Metric: vec.NewCounting(m)})
				if err != nil {
					t.Fatal(err)
				}
				if _, foreign := m.(doubledManhattan); (e.kernel.Term != nil) == foreign {
					t.Fatalf("engine has a gap kernel: %v", !foreign)
				}
				for _, q := range sweepQueries(e, rand.New(rand.NewSource(int64(bits)))) {
					pq := e.Prepare(q)
					var want []engine.PageRef
					limit := 0.0
					for pid := 0; pid < e.NumPages(); pid++ {
						lb := e.oraclePageBound(q, store.PageID(pid))
						if got := pq.MinDist(store.PageID(pid)); math.Float64bits(got) != math.Float64bits(lb) {
							t.Fatalf("q %v page %d: MinDist %v (%x), oracle %v (%x)", q, pid, got, math.Float64bits(got), lb, math.Float64bits(lb))
						}
						if pid == e.NumPages()/2 {
							limit = lb // a query distance that cuts the plan and ties with a page
						}
					}
					for pid := 0; pid < e.NumPages(); pid++ {
						if lb := e.oraclePageBound(q, store.PageID(pid)); lb <= limit {
							want = append(want, engine.PageRef{ID: store.PageID(pid), MinDist: lb})
						}
					}
					got := pq.Plan(limit)
					if len(got) != len(want) || cap(got) != len(want) {
						t.Fatalf("q %v: plan of %d refs (cap %d), oracle %d", q, len(got), cap(got), len(want))
					}
					for i := range got {
						if i > 0 && (got[i-1].MinDist > got[i].MinDist || got[i-1].MinDist == got[i].MinDist && got[i-1].ID >= got[i].ID) {
							t.Fatalf("q %v: plan out of order at %d: %+v then %+v", q, i, got[i-1], got[i])
						}
						if lb := e.oraclePageBound(q, got[i].ID); lb != got[i].MinDist || lb > limit {
							t.Fatalf("q %v: plan ref %+v, oracle bound %v, limit %v", q, got[i], lb, limit)
						}
					}
				}
			})
		}
	}
}

// TestSweepSoundness: MinDist(p) <= d(q, o) for every item o of every page
// p. Against the metric's Distance that holds without a
// tolerance — subtraction, the terms, their combination in Distance's order
// and the finish are all monotone in floating point; the processor's
// bounded kernel sums in another order, so it gets one of a few ulps.
func TestSweepSoundness(t *testing.T) {
	const dim = 5
	items := sweepItems(12, 300, dim, 1)
	for _, m := range sweepMetrics(t, dim) {
		for _, bits := range []int{1, 4, 8} {
			e, err := New(items, Config{PageCapacity: 16, Bits: bits, Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range sweepQueries(e, rand.New(rand.NewSource(int64(bits)))) {
				pq := e.Prepare(q)
				for pid := 0; pid < e.NumPages(); pid++ {
					page, err := e.ReadPage(store.PageID(pid))
					if err != nil {
						t.Fatal(err)
					}
					lb := pq.MinDist(page.ID)
					for _, it := range page.Items {
						d := m.Distance(q, it.Vec)
						within, ok := vec.DistanceWithin(m, q, it.Vec, math.Inf(1))
						if !ok || lb > d || lb > within*(1+1e-14) {
							t.Fatalf("%s bits %d q %v page %d item %d: %v exceeds %v / %v", m.Name(), bits, q, pid, it.ID, lb, d, within)
						}
					}
				}
			}
		}
	}
}

// TestSweepAllocations: a handle's first probe pays for the handle and its
// per-page memo and nothing else once the engine's free list holds a table;
// after it MinDist allocates nothing and Plan exactly its result.
func TestSweepAllocations(t *testing.T) {
	items := testItems(13, 4000, 8)
	e, err := New(items, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := items[7].Vec
	pq := e.Prepare(q)
	pq.MinDist(0) // sweeps, and leaves its table on the free list
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += pq.MinDist(1) + pq.MinDist(2) }); n != 0 {
		t.Errorf("MinDist on a swept handle: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { benchSinkRefs += len(pq.Plan(0.3)) }); n != 1 {
		t.Errorf("Plan on a swept handle: %v allocations, want 1 (its result)", n)
	}
	if len(pq.Plan(0.3)) < 2 {
		t.Fatal("plan too short to have been sorted")
	}
	if n := testing.AllocsPerRun(100, func() { benchSinkRefs += len(pq.Plan(-1)) }); n != 0 {
		t.Errorf("empty Plan: %v allocations, want 0", n)
	}
	var fresh engine.PreparedQuery // keeps the handle on the heap, where a session's is
	if n := testing.AllocsPerRun(100, func() { fresh = e.Prepare(q); sink += fresh.MinDist(0) }); n != 2 {
		t.Errorf("fresh handle's first probe: %v allocations, want 2 (handle, memo)", n)
	}
	qs, pqs := make([]vec.Vector, 16), make([]engine.PreparedQuery, 16)
	for i := range qs {
		qs[i] = items[i].Vec
	}
	lone := testing.AllocsPerRun(20, func() {
		for _, q := range qs {
			fresh = e.Prepare(q)
			sink += fresh.MinDist(0)
		}
	})
	block := testing.AllocsPerRun(20, func() {
		e.PrepareBlock(qs, pqs)
		for _, pq := range pqs {
			sink += pq.MinDist(0)
		}
	})
	if lone != 32 || block > lone {
		t.Errorf("sixteen handles probed: %v allocations lone (want 32), %v as one block (want at most as many)", lone, block)
	}
	if n := testing.AllocsPerRun(100, func() { e.PrepareBlock(qs[:1], pqs[:1]); sink += pqs[0].MinDist(0) }); n != 2 {
		t.Errorf("a block of one probed: %v allocations, want 2 as a lone handle", n)
	}
	_ = sink
}

// TestBlockSweepMatchesLone: handles prepared as one block answer Plan and
// MinDist with the bits of lone handles — for blocks of full
// lane groups, a padded short group and remainders swept alone, for every
// metric (sum- and max-combined, and one vec does not ship), resolution and
// dimension, whichever member is probed first.
func TestBlockSweepMatchesLone(t *testing.T) {
	for _, dim := range []int{1, 3, 8} {
		items := testItems(16, 200, dim)
		for _, m := range sweepMetrics(t, dim) {
			for _, bits := range []int{1, 6, 8} {
				e, err := New(items, Config{PageCapacity: 16, Bits: bits, Metric: m})
				if err != nil {
					t.Fatal(err)
				}
				pool := sweepQueries(e, rand.New(rand.NewSource(int64(dim*bits))))
				for size := 1; size <= 9; size++ {
					qs, block := make([]vec.Vector, size), make([]engine.PreparedQuery, size)
					for i := range qs {
						qs[i] = pool[(size+i)%len(pool)]
					}
					e.PrepareBlock(qs, block)
					block[size/2].MinDist(0) // sweeps the block from a member other than the first
					for i, pq := range block {
						if err := sameHandles(e, pq, e.Prepare(qs[i])); err != nil {
							t.Fatalf("%s bits %d dim %d block of %d, member %d: %v", m.Name(), bits, dim, size, i, err)
						}
					}
				}
			}
		}
	}
}

// sameHandles reports the first probe on which got's answer differs from
// want's in a bit.
func sameHandles(e *Engine, got, want engine.PreparedQuery) error {
	for pid := store.PageID(0); int(pid) < e.NumPages(); pid++ {
		g, w := got.MinDist(pid), want.MinDist(pid)
		if math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("page %d: MinDist %v, lone %v", pid, g, w)
		}
	}
	limit := want.MinDist(store.PageID(e.NumPages() / 2))
	gp, wp := got.Plan(limit), want.Plan(limit)
	if len(gp) != len(wp) {
		return fmt.Errorf("plan of %d refs, lone %d", len(gp), len(wp))
	}
	for i := range wp {
		if gp[i].ID != wp[i].ID || math.Float64bits(gp[i].MinDist) != math.Float64bits(wp[i].MinDist) {
			return fmt.Errorf("plan ref %d: %+v, lone %+v", i, gp[i], wp[i])
		}
	}
	return nil
}

// TestZeroDimensionRejected: New refuses items of dimension 0, as the X-tree
// does. A VA-file built over them used to hang on its first probe: the sweep
// stepped through the approximations dim bytes at a time.
func TestZeroDimensionRejected(t *testing.T) {
	items := []store.Item{{ID: 0, Vec: vec.Vector{}}, {ID: 1, Vec: vec.Vector{}}}
	done := make(chan error, 1)
	go func() {
		e, err := New(items, Config{PageCapacity: 2})
		if err == nil {
			e.Prepare(vec.Vector{}).MinDist(0)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "dimension must be positive") {
			t.Errorf("zero-dimensional items: error %v, want a positive-dimension error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first probe of a zero-dimensional VA-file did not return")
	}
}

// bruteForce answers q over items with m.
func bruteForce(items []store.Item, m vec.Metric, q msq.Query) []query.Answer {
	l := query.NewAnswerList(q.Type)
	for _, it := range items {
		l.Consider(it.ID, m.Distance(q.Vec, it.Vec))
	}
	return l.Answers()
}

func sameAnswers(got, want []query.Answer) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestDifferentialConcurrentSessions: eight goroutines, each with sessions
// of its own on one Engine (twice the free lists' length, so tables are
// taken, made, returned and dropped concurrently), return the serial
// answers. Each session prepares its five queries as one block — a lane
// pass for four, a lone sweep for the fifth — so both free lists are shared.
// Run under -race by `make differential`.
func TestDifferentialConcurrentSessions(t *testing.T) {
	const dim, workers, rounds, width = 6, 8, 6, 5
	items := testItems(14, 1500, dim)
	m := vec.Euclidean{}
	e, err := New(items, Config{PageCapacity: 16, BufferPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(e, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(w, r int) []msq.Query {
		rng := rand.New(rand.NewSource(int64(w*rounds + r)))
		qs := make([]msq.Query, width)
		for i := range qs {
			qs[i] = msq.Query{ID: uint64(i), Vec: testItems(rng.Int63(), 1, dim)[0].Vec, Type: query.NewKNN(7)}
			if i%2 == 1 {
				qs[i].Type = query.NewRange(0.35)
			}
		}
		return qs
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qs := batch(w, r)
				res, _, err := proc.NewSession().MultiQueryAll(qs)
				if err != nil {
					errs <- err
					return
				}
				for i := range qs {
					if !sameAnswers(res[i].Answers(), bruteForce(items, m, qs[i])) {
						errs <- fmt.Errorf("worker %d round %d query %d: answers differ from the serial ones", w, r, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestForeignMetricsStayExact: a coordinatewise metric vec does not ship is
// swept by gap vectors (selectively), a non-coordinatewise one is not swept
// at all (every page, bounds [0, +Inf)); both answer exactly.
func TestForeignMetricsStayExact(t *testing.T) {
	const dim = 4
	items := testItems(15, 900, dim)
	hm, err := vec.HistogramSimilarityMatrix(dim, 2)
	if err != nil {
		t.Fatal(err)
	}
	qf, err := vec.NewQuadraticForm(dim, hm)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []vec.Metric{doubledManhattan{}, qf} {
		e, err := New(items, Config{PageCapacity: 16, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		if e.kernel.Term != nil {
			t.Fatalf("%s: engine keeps cell tables", m.Name())
		}
		proc, err := msq.New(e, m, msq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		qs := make([]msq.Query, 6)
		for i := range qs {
			qs[i] = msq.Query{ID: uint64(i), Vec: testItems(int64(100+i), 1, dim)[0].Vec, Type: query.NewKNN(5)}
		}
		res, st, err := proc.NewSession().MultiQueryAll(qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if !sameAnswers(res[i].Answers(), bruteForce(items, m, qs[i])) {
				t.Errorf("%s query %d: answers differ from brute force", m.Name(), i)
			}
		}
		plan := e.Prepare(qs[0].Vec).Plan(0.05)
		if _, cw := m.(vec.Coordinatewise); cw {
			if len(plan) >= e.NumPages()/2 || st.PagesRead >= int64(e.NumPages()) {
				t.Errorf("%s: plan of %d of %d pages, %d read — not selective", m.Name(), len(plan), e.NumPages(), st.PagesRead)
			}
		} else if len(plan) != e.NumPages() || plan[0].MinDist != 0 || plan[len(plan)-1].ID != store.PageID(e.NumPages()-1) {
			t.Errorf("%s: plan of %d of %d pages", m.Name(), len(plan), e.NumPages())
		}
	}
}
