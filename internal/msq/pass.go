package msq

import (
	"math"
	"math/bits"
	"time"

	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// This file is the page pass of Figure 4: every item of a page against
// every query that still needs the page. There are three bodies, and begin
// picks one per page (rowPath). Under the lemmas the pair body
// (evalPairs) takes each item through the active queries in order, because
// what one query's distance proves about the next is the point. Without
// them the queries of a page do not interact, and the page is a matrix of
// independent pairs that a vector kernel may walk either way: the row body
// (evalRows) loads a wide active set once and sweeps each item across it,
// queries as lanes; the item body (evalItems, built on sweepItems) takes a
// narrow one query by query and sweeps the page's items, items as lanes —
// and is also how a single query and a seed page are evaluated. A body
// runs over a whole page with live pruning distances. Observers do not get
// a copy of their own: a pass is timed as a whole, and EXPLAIN's per-query
// attribution is a nil-checked pointer inside the bodies.
//
// A pass lands a range query's accepts once per page: its pruning
// distance is ε whatever its list holds, so no accept changes a limit, an
// abandonment or a later pair of the page, and the bodies stage them
// (accept) and append each query's in one call at the end (flush) — the
// same answers in the same order, with one growth of the list instead of a
// doubling per accept. A bounded (k-NN) list takes each accept at once:
// its limit moves with it.

// passCounts is what one page pass did. The bodies count in locals and
// return the totals, so the per-pair path touches no shared memory; the
// caller settles them once per page.
type passCounts struct {
	calcs     int64 // kernel evaluations (object distance calculations)
	abandoned int64 // calcs the bounded kernel cut short at its limit
	tries     int64 // triangle-inequality probes
	avoided   int64 // pairs a probe disposed of
}

// settle charges a pass to the call's stats and to the processor's
// lifetime counters. Distance calculations bypass the Counting wrapper —
// the bodies call the raw kernel — so this is where they are counted: two
// atomic updates per page instead of two per evaluation.
func (s *Session) settle(stats *Stats, c passCounts) {
	stats.AvoidTries += c.tries
	stats.Avoided += c.avoided
	s.proc.metric.AddCalls(c.calcs, c.abandoned)
}

// clock reads the time only when a tracer or an EXPLAIN is attached; the
// zero time tells observeSince there is nothing to record. Every phase the
// session times goes through this pair, so the unobserved path never reads
// the clock.
func (s *Session) clock() time.Time {
	if s.explain != nil || s.proc.tracer.Enabled() {
		return time.Now()
	}
	return time.Time{}
}

// observeSince records the time since start under phase p with whichever
// observers are attached.
func (s *Session) observeSince(p obs.Phase, start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	s.proc.tracer.Observe(p, d)
	if ex := s.explain; ex != nil {
		ex.observe(p, d)
	}
}

// visit accounts the (page, query) visits decided for one page.
func (s *Session) visit(active []*queryState, stats *Stats) {
	stats.PageVisits += int64(len(active))
	if ex := s.explain; ex != nil {
		for _, st := range active {
			ex.prof[st.pos].pagesVisited++
		}
	}
}

// knownDist records a distance already calculated from the current database
// object to the query at position idx ("AvoidingDists" in Figure 4). When
// the calculation was abandoned early by the bounded kernel, d is only a
// lower bound on the true distance: sound for Lemma 1 (which needs
// dist(O,Qj) to be large), and incapable of firing Lemma 2 — not by an
// exactness flag (a data-dependent branch that mispredicts badly in
// avoidable's probe loop when abandoned and exact entries interleave) but
// by the abandonLimit invariant: an abandoned d strictly exceeds
// dist(Q_j, Q_i) + QueryDist(Q_i) for every query i that can still probe
// the entry with a finite pruning distance, and Lemma 2 would need d
// *below* dist(Q_j, Q_i) - QueryDist(Q_i). A pruning distance becomes
// finite only at its own query's turn — after that query's probes — and
// that transition recomputes the raises, so the invariant covers every
// probe. idx is the query's matrix slot, an int32 so the entry packs into 16
// bytes; avoidable scans these linearly, so density matters.
type knownDist struct {
	d   float64 // exact distance, or the abandoned partial lower bound
	idx int32
}

// pagePass holds the page-pass state: what is fixed for one run, what begin
// fixes at the start of each page, and the buffers both reuse. The session
// keeps one and hands it to every run (Session.pagePass); every buffer is
// sized for the widest batch so far and resliced to the page's active set,
// so neither a pass nor a call allocates in steady state, whoever observes
// it.
type pagePass struct {
	s *Session
	// matrix is the query-distance matrix, indexed by slot; nil means no
	// avoidance (syncMatrix returns none under AvoidOff or for a single
	// query).
	matrix [][]float64
	// prof is EXPLAIN's per-position accumulator, nil when no EXPLAIN is
	// attached: the one branch per pair observation costs when off.
	prof []explainCounters

	page      *store.Page
	active    []*queryState
	activeIdx []int // matrix slot of each active query
	// limits holds each active query's pruning distance. The pass keeps it
	// exact: a pruning distance changes only when the query's own Consider
	// accepts an item, and every accept refreshes the entry — so the
	// per-pair limit is a cached read, not a call.
	limits []float64
	// raise[a] caches the Lemma-1 horizon bound of abandonLimit, computed
	// from the limits at the page's start. Pruning distances only shrink
	// during the page, which leaves the cached raise too high — still at
	// or above every live horizon (the identity requirement), merely
	// abandoning less — so shrinks do not invalidate it. The one event
	// that would make it too low is a pruning distance turning finite (a
	// k-NN list filling up mid-page): that query's horizon springs into
	// existence, so the pass lifts every cached raise to cover the new
	// horizon then — an O(m) overapproximation (the suffix raise of a
	// later position need not include the new query, but a higher raise
	// stays valid). Each query transitions at most once per run.
	raise []float64
	body  passBody // which body the page takes (see rowPath)
	// perAccept is the processor's (Processor.perAccept): no staging.
	perAccept bool
	qvecs     []vec.Vector // the vector bodies' queries, gathered by begin
	rowSet    *vec.Rows    // the row body's: qvecs loaded, with limits, for every item of the page
	rowSc     vec.RowScratch
	known     []knownDist // the pair body's distances known for the current item
	// stage[a] holds the pass's accepts for active range query a until the
	// page ends (accept, flush); made when a range query first accepts.
	stage [][]query.Answer
}

// pagePass returns the session's page pass, set up for a run over nStates
// queries. The buffers depend only on nStates, so they are allocated when a
// batch is wider than any before it and reused otherwise.
func (s *Session) pagePass(nStates int, matrix [][]float64) *pagePass {
	if s.pass == nil || cap(s.pass.limits) < nStates {
		s.pass = newPagePass(s, nStates)
	}
	p := s.pass
	p.matrix, p.prof, p.perAccept = matrix, nil, s.proc.perAccept
	if ex := s.explain; ex != nil {
		p.prof = ex.prof
	}
	return p
}

func newPagePass(s *Session, nStates int) *pagePass {
	return &pagePass{
		s:         s,
		active:    make([]*queryState, 0, nStates),
		activeIdx: make([]int, nStates),
		limits:    make([]float64, nStates),
		raise:     make([]float64, nStates),
		qvecs:     make([]vec.Vector, nStates),
		rowSet:    vec.NewRows(s.proc.metric.Kernel()),
		known:     make([]knownDist, 0, nStates),
	}
}

// decideActive computes which queries still need the page: not finished, not
// already processed for the page, and (for non-first queries) not excludable
// by the engine's lower bound against the query's current pruning distance.
// The result is the pass's own buffer, valid until the next page.
func (p *pagePass) decideActive(pid store.PageID, states []*queryState) []*queryState {
	active := p.active[:0]
	for i, st := range states {
		if st.done {
			continue
		}
		if st.processed.has(pid) {
			continue
		}
		if i > 0 && st.pq.MinDist(pid) > st.answers.QueryDist() {
			continue
		}
		active = append(active, st)
	}
	return active
}

// begin fixes the state for one page: the active set, its pruning
// distances, and everything the run's options derive from them — the
// abandonment raises under avoidance, the row-kernel inputs.
func (p *pagePass) begin(page *store.Page, active []*queryState) {
	p.page, p.active = page, active
	n := len(active)
	p.limits, p.activeIdx = p.limits[:n], p.activeIdx[:n]
	for a, st := range active {
		p.limits[a] = st.answers.QueryDist()
		p.activeIdx[a] = int(st.slot)
	}
	if p.matrix != nil {
		p.raise = lemma1Raises(p.activeIdx, p.matrix, p.limits, p.raise[:n])
	}
	p.body = rowPath(p.matrix != nil, n)
	if p.body == bodyPairs {
		return
	}
	p.qvecs = p.qvecs[:n]
	for a, st := range active {
		p.qvecs[a] = st.q.Vec
	}
	if p.body == bodyRows {
		// The row kernel transposes the queries once for all the page's items.
		p.rowSet.Load(p.qvecs, p.limits)
	}
}

// eval evaluates the begun page against the active set and returns what it
// did, for the caller to settle. A within distance goes to the query's
// answer list (accept) and an accept tightens limits for the items after
// it.
//
// The clock is read here, twice per pass when something observes and never
// otherwise: probes and kernel calls are too short to time one by one.
func (p *pagePass) eval() passCounts {
	start := p.s.clock()
	var c passCounts
	switch p.body {
	case bodyRows:
		c = p.evalRows()
	case bodyItems:
		c = p.evalItems()
	default:
		c = p.evalPairs()
	}
	p.s.observeSince(obs.PhaseKernel, start)
	return c
}

// accept offers item id at distance d, within the pass's limit for it, to
// active query a. A range query's accept is staged for flush; a bounded
// query's goes to its list at once, and accept reports whether the list took
// it — whether a's pruning distance may have moved.
func (p *pagePass) accept(a int, id store.ItemID, d float64) bool {
	st := p.active[a]
	if st.q.Type.Bounded() || p.perAccept {
		return st.answers.Consider(id, d)
	}
	if p.stage == nil {
		p.stage = make([][]query.Answer, cap(p.limits))
	}
	p.stage[a] = append(p.stage[a], query.Answer{ID: id, Dist: d})
	return false
}

// flush lands the page's staged accepts, one ConsiderAll a range query. The
// bodies call it when they end.
func (p *pagePass) flush() {
	if p.stage == nil {
		return
	}
	for a, st := range p.active {
		if staged := p.stage[a]; len(staged) > 0 {
			st.answers.ConsiderAll(staged)
			p.stage[a] = staged[:0]
		}
	}
}

// evalPairs is the per-pair body, the one that runs the lemmas: for each
// item, each active query in order is first probed against the distances
// already known for the item (Lemmas 1 and 2), and only then evaluated by
// the bounded distance kernel, which abandons mid-vector as soon as the
// partial result proves the exact distance irrelevant. The abandonment
// limit is not the query's own pruning distance but the abandonLimit raise
// of it, so an abandoned calculation provably (a) could never have produced
// an answer (Consider would reject it) and (b) fires Lemma 1 — and
// withholds Lemma 2 — for every later query on this item exactly where the
// exact distance would, leaving the calc and avoided counts untouched
// relative to full-distance evaluation. The partial result is appended to
// known like any other distance, so later probes see the same entry
// sequence either way. Only reached with a matrix (see rowPath).
func (p *pagePass) evalPairs() passCounts {
	// Scalars, not a passCounts: the compiler keeps a four-field struct in
	// memory, and these are bumped once per pair.
	var calcs, abandoned, probes, avoided int64
	kernel := p.s.proc.metric.Kernel()
	mode := p.s.proc.opts.Avoidance
	page, active, activeIdx := p.page, p.active, p.activeIdx
	matrix, limits, raise, prof := p.matrix, p.limits, p.raise, p.prof
	known := p.known
	for it := range page.Items {
		item := &page.Items[it]
		known = known[:0]
		for a, st := range active {
			slot := activeIdx[a]
			qd := limits[a]
			// The item's first query has nothing to probe; skipping the call
			// matters on index engines, where few queries share a page and a
			// first query is a large share of the pairs.
			var tries int
			if len(known) > 0 {
				var lemma int
				lemma, tries = avoidable(mode, qd, matrix[slot], known)
				probes += int64(tries)
				if lemma != 0 {
					avoided++
					if prof != nil {
						prof[st.pos].avoided(lemma, tries)
					}
					continue
				}
			}
			d, within := kernel.DistanceWithin(st.q.Vec, item.Vec, abandonLimit(qd, raise[a], len(known)))
			calcs++
			known = append(known, knownDist{d: d, idx: int32(slot)})
			if prof != nil {
				prof[st.pos].calculated(within, tries)
			}
			if !within {
				abandoned++
				continue
			}
			if p.accept(a, item.ID, d) {
				limits[a] = st.answers.QueryDist()
				if math.IsInf(qd, 1) && !math.IsInf(limits[a], 1) {
					mrow := matrix[slot]
					for j, q := range activeIdx {
						if t := mrow[q] + limits[a]; t > raise[j] {
							raise[j] = t
						}
					}
				}
			}
		}
	}
	p.flush()
	return passCounts{calcs: calcs, abandoned: abandoned, tries: probes, avoided: avoided}
}

// evalRows is the blocked body: the active set, loaded by begin, screens
// the page's items a tile at a time and each item the screen left live, in page order, resolves the lanes within
// their limits of that moment; every other pair was abandoned. The screen
// runs under the limits the tile started with and only rejects pairs
// beyond them, which are beyond every later limit too (limits only shrink
// within a page), so a tile changes no result, as in sweepItems. Only
// reached when rowPath holds, under which the results are bit-identical to
// the pair-by-pair evaluation (see rowPath).
func (p *pagePass) evalRows() passCounts {
	rows, sc := p.rowSet, &p.rowSc
	items, active, limits, prof := p.page.Items, p.active, p.limits, p.prof
	var tile [sweepTile]vec.Vector
	var within int64
	for base := 0; base < len(items); base += sweepTile {
		n := min(sweepTile, len(items)-base)
		for j := range tile[:n] {
			tile[j] = items[base+j].Vec
		}
		live := rows.Screen(tile[:n], sc)
		if prof != nil {
			live = 1<<n - 1 // EXPLAIN counts every pair, the ones without a hit too
		}
		for ; live != 0; live &= live - 1 {
			j := bits.TrailingZeros64(live)
			item := &items[base+j]
			hits := rows.Resolve(j, sc)
			within += int64(len(hits))
			if prof != nil {
				next := 0 // hits are in lane order
				for a, st := range active {
					w := next < len(hits) && int(hits[next].Lane) == a
					if w {
						next++
					}
					prof[st.pos].calculated(w, 0)
				}
			}
			for _, hit := range hits {
				if a := int(hit.Lane); p.accept(a, item.ID, hit.D) {
					limits[a] = active[a].answers.QueryDist()
					rows.SetLimit(a, limits[a])
				}
			}
		}
	}
	p.flush()
	calcs := int64(len(items)) * int64(len(active))
	return passCounts{calcs: calcs, abandoned: calcs - within}
}

// evalItems is the narrow body: the active queries sweep the page's items
// through the item-lane kernel, tile by tile. Only reached when rowPath
// holds, under which no query's outcome depends on another's, so each meets
// the items in page order under its own limit of the moment (see
// sweepItems) — evalPairs' sequence for that query, whatever the others do
// in between.
func (p *pagePass) evalItems() passCounts {
	items, active, limits := p.page.Items, p.active, p.limits
	var few [rowThreshold]int64
	hits := few[:] // per active query
	if len(active) > len(few) {
		hits = make([]int64, len(active)) // wider than rowPath sends here: tests only
	}
	sweepItems(p.s.proc.lanes, items, p.qvecs, limits, func(a, it int, d float64) {
		hits[a]++
		if p.accept(a, items[it].ID, d) {
			limits[a] = active[a].answers.QueryDist()
		}
	})
	p.flush()
	calcs := int64(len(items))
	var c passCounts
	for a, st := range active {
		c.calcs += calcs
		c.abandoned += calcs - hits[a]
		if p.prof != nil {
			p.prof[st.pos].swept(calcs, hits[a])
		}
	}
	return c
}

// sweepTile is how many items sweepItems hands the item kernel at once,
// and evalRows the row screen (at most 64, one bit each of either's
// mask). Either runs a whole tile under the limits the tile started with,
// so a larger tile saves calls and a smaller one abandons under a fresher
// limit; neither changes a result. A k-NN limit moves a few dozen times in a scan
// of ten thousand items, nearly all of them on the first page.
const sweepTile = 32

// sweepItems is the items-as-lanes body, shared by the narrow page pass,
// the single query, the seed page and the ranking (under an infinite
// limit): every query against every item, each
// query meeting the items in order under limits[a], which lives with the
// caller. hit is called for each pair within the limit of that moment, with
// its exact distance, and may tighten limits[a] for the items after it.
// For each query that is the scalar loop "d, within := DistanceWithin(q,
// item, limits[a]); if within { hit(a, it, d) }" call for call: the kernel
// sweeps a tile of the page's items where they lie, under the limit the
// tile started with, and returns a mask of the items that may be within
// it, each with its exact distance or something beyond that limit
// (vec.SweepRecords); an item whose bit is clear is beyond it, and d <=
// limits[a] against the live limit is DistanceWithin's own final
// comparison. A pair hit is not called for was abandoned. The queries take
// turns tile by tile, so a tile's records are still in the nearest cache
// for the second query.
func sweepItems(lanes *vec.Items, items []store.Item, queries []vec.Vector, limits []float64, hit func(a, it int, d float64)) {
	var dists [sweepTile]float64
	for base := 0; base < len(items); base += sweepTile {
		tile := items[base:min(base+sweepTile, len(items))]
		for a, q := range queries {
			for m := vec.SweepRecords(lanes, q, tile, itemVec, limits[a], dists[:]); m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				if d := dists[j]; d <= limits[a] {
					hit(a, base+j, d)
				}
			}
		}
	}
}

// itemVec is where sweepItems' kernel finds an item's vector in the page.
func itemVec(it *store.Item) *vec.Vector { return &it.Vec }

// passBody names one of the page pass's three bodies.
type passBody uint8

const (
	bodyPairs passBody = iota // evalPairs: the lemmas
	bodyRows                  // evalRows: queries as lanes
	bodyItems                 // evalItems: items as lanes
)

// rowThreshold is the narrowest active set that takes the row body.
const rowThreshold = 8

// rowPath picks the body for a page with m active queries.
//
// Under avoidance it is the pair body: the lemmas couple the queries of one
// item through the known list, which has no vector equivalent. Without
// them, a query's pruning distance within one item can only have been
// tightened by earlier items (each query's limit is updated solely by its
// own Consider accepts), so the pairs of a page may be evaluated in any
// order that keeps each query's items in page order: loading the pass's
// limits as the row limits, or sweeping the page once per query, reproduces
// the per-pair limits — and with them the distances, within flags, abandon
// points and Consider sequences — exactly.
//
// Which of the two is a matter of width alone. The row body pads the active
// set to eight lanes, so a lone query fills one lane of eight; the item
// body fills its lanes with items whatever the width, but walks the page
// once per query and pays the in-register transpose the loaded rows do not.
// rowThreshold is where they crossed when it was chosen: between 7 and 8
// (EXPERIMENTS, "Items as lanes"). Measured per pair with the AVX-512
// screen as the row body and the item body sweeping the page in place, on
// a scan of 8 192 items (BenchmarkPassBodies, -benchtime 100x; medians of
// three runs alternated with runs of the previous item body, which
// gathered each tile, on a shared 2-core x86-64 runner that spreads about
// ±20 %), scalar pair by pair → items → rows, dim 8 / dim 16: m = 1: 18 →
// 5.2 → 24 / 26 → 6.9 → 28; m = 2: 18 → 4.0 → 13 / 25 → 7.9 → 17; m = 4:
// 18 → 3.7 → 6.3 / 29 → 5.6 → 8.1; m = 5: 15 → 4.7 → 5.0 / 28 → 7.6 →
// 8.2; m = 6: 15 → 3.6 → 3.8 / 28 → 6.7 → 6.9; m = 7: 14 → 5.0 → 4.4 / 28
// → 6.6 → 5.3; m = 8: 16 → 4.9 → 3.7 / 26 → 6.7 → 4.9; m = 12: 18 → 5.3
// → 2.5 / 27 → 6.1 → 4.2. The bodies now cross at m = 7 at both
// dimensions (with the gathering item body, at m = 5 and 4–6): a cheaper
// item body moves the crossing up, never below 8, so the constant stays 8.
func rowPath(avoiding bool, m int) passBody {
	switch {
	case avoiding:
		return bodyPairs
	case m >= rowThreshold:
		return bodyRows
	}
	return bodyItems
}

// maxAvoidProbes caps how many known distances one avoidance decision
// consults. Unbounded probing is quadratic in the block size m and
// dominates wall-clock for m in the thousands, while the probability that
// a probe succeeds after many failures is low; the cap keeps the vast
// majority of avoided calculations at linear cost. (The paper's own
// quadratic-in-m degradation at s=16 stems mainly from the query-distance
// matrix, which is not affected by this cap.)
const maxAvoidProbes = 8

// avoidable implements Definition 5 via Lemmas 1 and 2: the calculation of
// dist(Q_i, O) is avoidable if some already-known dist(Q_j, O) proves
// dist(Q_i, O) > QueryDist(Q_i). Strict inequalities are used so that
// boundary answers (dist exactly equal to the query distance) are never
// lost. row is Q_i's row of the query-distance matrix.
//
//	Lemma 1: dist(O,Qj) - dist(Qi,Qj) > QueryDist(Qi)  =>  avoid
//	Lemma 2: dist(Qi,Qj) - dist(O,Qj) > QueryDist(Qi)  =>  avoid
//
// It returns the lemma that fired (0 for none; Lemma 1 when both hold for
// the same probe) and the number of probes spent.
// Kept out of line: inlined into evalPairs the probe loop competes with the
// pair body for registers, and the whole pass runs about a fifth slower.
//
//go:noinline
func avoidable(mode AvoidanceMode, qd float64, row []float64, known []knownDist) (lemma, tries int) {
	if len(known) > maxAvoidProbes {
		known = known[:maxAvoidProbes]
	}
	for i, k := range known {
		mij := row[k.idx]
		switch mode {
		case AvoidBoth:
			if k.d-mij > qd {
				return 1, i + 1
			}
			if mij-k.d > qd {
				return 2, i + 1
			}
		case AvoidLemma1:
			if k.d-mij > qd {
				return 1, i + 1
			}
		case AvoidLemma2:
			if mij-k.d > qd {
				return 2, i + 1
			}
		}
	}
	return 0, len(known)
}

// abandonLimit returns the early-abandonment limit for the distance between
// the current item and a query with pruning distance qd: qd, raised so that
// an abandoned calculation can never change a later avoidance decision for
// the same item. A known distance d(O, Q_a) influences query i via Lemma 1
// only when it exceeds the horizon dist(Q_a, Q_i) + QueryDist(Q_i), and via
// Lemma 2 only when it falls below dist(Q_a, Q_i) - QueryDist(Q_i);
// abandoning strictly above every probing query's Lemma-1 horizon therefore
// guarantees the partial lower bound fires Lemma 1 exactly where the exact
// distance would, and — since the Lemma-1 horizon is at or above the
// Lemma-2 one whenever QueryDist(Q_i) >= 0 — that Lemma 2 can never fire on
// the lower bound where the exact distance would not (neither can fire at
// all above the horizon). Any limit at or above the horizons preserves this — a
// larger limit merely abandons less — so raise is the cached per-page
// suffix maximum from lemma1Raises rather than an exact per-pair O(m)
// loop, which would itself dominate the per-pair bookkeeping. The raise is
// skipped when the known entry can never be probed (the list already holds
// maxAvoidProbes entries).
func abandonLimit(qd, raise float64, knownLen int) float64 {
	if knownLen >= maxAvoidProbes {
		return qd
	}
	if raise > qd {
		return raise
	}
	return qd
}

// lemma1Raises fills raise with, per active position a, the maximum
// Lemma-1 horizon dist(Q_a, Q_i) + qds[i] over the *later* positions i > a
// — the only queries that can probe a known entry appended at position a,
// since the known list is per item and scanned in active order. Infinite
// pruning distances contribute no horizon (no lemma can fire against an
// infinite query distance); with no later finite-qd query the raise is
// -Inf and abandonLimit falls back to the query's own pruning distance.
func lemma1Raises(activeIdx []int, matrix [][]float64, qds []float64, raise []float64) []float64 {
	for a, slot := range activeIdx {
		row := matrix[slot]
		m := math.Inf(-1)
		for i := a + 1; i < len(activeIdx); i++ {
			if qd := qds[i]; !math.IsInf(qd, 1) {
				if t := row[activeIdx[i]] + qd; t > m {
					m = t
				}
			}
		}
		raise[a] = m
	}
	return raise
}
