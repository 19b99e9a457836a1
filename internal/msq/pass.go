package msq

import (
	"math"
	"time"

	"metricdb/internal/obs"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// This file is the page pass of Figure 4: every item of a page against
// every query that still needs the page. There is one pair body (evalPairs)
// and one row body (evalRows); the sequential loop runs them over a whole
// page with live pruning distances, a pipeline worker over an item range
// with the barrier's snapshot. Observers do not get a copy of their own: a
// pass is timed as a whole, and EXPLAIN's per-query attribution is a
// nil-checked pointer inside the bodies.

// passCounts is what one page pass, or one chunk of one, did. The bodies
// count in locals and return the totals, so the per-pair path touches no
// shared memory; the caller settles them once per page.
type passCounts struct {
	calcs     int64 // kernel evaluations (object distance calculations)
	abandoned int64 // calcs the bounded kernel cut short at its limit
	tries     int64 // triangle-inequality probes
	avoided   int64 // pairs a probe disposed of
}

func (c *passCounts) add(d passCounts) {
	c.calcs += d.calcs
	c.abandoned += d.abandoned
	c.tries += d.tries
	c.avoided += d.avoided
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
// observers are attached. Safe from pipeline workers.
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

// visit accounts the (page, query) visits decided at one page barrier.
func (s *Session) visit(active []*queryState, stats *Stats) {
	stats.PageVisits += int64(len(active))
	if ex := s.explain; ex != nil {
		for _, st := range active {
			ex.prof[st.pos].pagesVisited.Add(1)
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

// skippedDist marks an (item, query) slot of a deferred pass whose distance
// is not offered to the answer list — avoided by the triangle inequality,
// screened out, or abandoned by the bounded kernel. Proper metrics never
// produce NaN, so the sentinel cannot collide with a computed distance.
var skippedDist = math.NaN()

// pagePass holds the page-pass state: what is fixed for one run, what begin
// fixes at each page barrier, and the buffers both reuse. The session keeps
// one and hands it to every run (Session.pagePass); every buffer is sized
// for the widest batch so far and resliced to the page's active set, so
// neither a pass nor a call allocates in steady state, whoever observes it.
// Workers only read the barrier state; known, rowSc and counts are per
// worker — index w is owned by the one goroutine running as worker w — so
// they need no locking, and the width-1 loop is simply worker 0.
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
	// limits holds each active query's pruning distance at the barrier. A
	// live pass keeps it exact: a pruning distance changes only when the
	// query's own Consider accepts an item (its a-priori bound is fixed
	// during the page loop), and every accept refreshes the entry — so the
	// per-pair limit is a cached read, not a call.
	limits []float64
	// raise[a] caches the Lemma-1 horizon bound of abandonLimit, computed
	// from the barrier limits. Pruning distances only shrink during the
	// page, which leaves the cached raise too high — still at or above
	// every live horizon (the identity requirement), merely abandoning
	// less — so shrinks do not invalidate it. The one event that would
	// make it too low is a pruning distance turning finite (a k-NN list
	// filling up mid-page): that query's horizon springs into existence,
	// so the live pass lifts every cached raise to cover the new horizon
	// then — an O(m) overapproximation (the suffix raise of a later
	// position need not include the new query, but a higher raise stays
	// valid). Each query transitions at most once per run.
	raise  []float64
	rows   bool         // the page takes the row body (see rowPath)
	qvecs  []vec.Vector // the row body's queries, gathered at the barrier
	rowSet *vec.Rows    // and loaded there, with limits, for every item of the page

	known  [][]knownDist    // per worker
	rowSc  []vec.RowScratch // per worker
	counts []passCounts     // per worker; the pipeline sums them at the barrier
	dists  []float64        // the pipeline's items × active result buffer
}

// pagePass returns the session's page pass, set up for a run over nStates
// queries. The buffers depend only on the width and nStates, so they are
// allocated when a batch is wider than any before it and reused otherwise.
func (s *Session) pagePass(width, nStates int, matrix [][]float64) *pagePass {
	if s.pass == nil || cap(s.pass.limits) < nStates {
		s.pass = newPagePass(s, width, nStates)
	}
	p := s.pass
	p.matrix, p.prof = matrix, nil
	if ex := s.explain; ex != nil {
		p.prof = ex.prof
	}
	return p
}

func newPagePass(s *Session, width, nStates int) *pagePass {
	p := &pagePass{
		s:         s,
		active:    make([]*queryState, 0, nStates),
		activeIdx: make([]int, nStates),
		limits:    make([]float64, nStates),
		raise:     make([]float64, nStates),
		qvecs:     make([]vec.Vector, nStates),
		rowSet:    vec.NewRows(s.proc.metric.Kernel()),
		known:     make([][]knownDist, width),
		rowSc:     make([]vec.RowScratch, width),
		counts:    make([]passCounts, width),
	}
	for w := range p.known {
		p.known[w] = make([]knownDist, 0, nStates)
	}
	return p
}

// decideActive computes which queries still need the page: not finished, not
// already processed for the page, and (for non-first queries) not excludable
// by the engine's lower bound against the query's current pruning distance.
// Both the sequential loop and the concurrent pipeline call it at the same
// point — after all earlier pages are fully merged — so the decisions, and
// hence page visits, are identical regardless of the pipeline width. The
// result is the pass's own buffer, valid until the next page.
func (p *pagePass) decideActive(pid store.PageID, states []*queryState) []*queryState {
	active := p.active[:0]
	for i, st := range states {
		if st.done {
			continue
		}
		if st.processed.has(pid) {
			continue
		}
		if i > 0 && st.pq.MinDist(pid) > st.queryDist() {
			continue
		}
		active = append(active, st)
	}
	return active
}

// begin fixes the barrier state for one page: the active set, its pruning
// distances, and everything the run's options derive from them — the
// abandonment raises under avoidance, the row-kernel inputs. Only the
// coordinator calls it, with every earlier page fully merged, so each
// input is the value the sequential loop would see.
func (p *pagePass) begin(page *store.Page, active []*queryState) {
	p.page, p.active = page, active
	n := len(active)
	p.limits, p.activeIdx = p.limits[:n], p.activeIdx[:n]
	for a, st := range active {
		p.limits[a] = st.queryDist()
		p.activeIdx[a] = int(st.slot)
	}
	if p.matrix != nil {
		p.raise = lemma1Raises(p.activeIdx, p.matrix, p.limits, p.raise[:n])
	}
	p.rows = rowPath(p.matrix != nil, n)
	if p.rows {
		p.loadRows()
	}
}

// loadRows hands the begun page's active set and its barrier limits to the
// row kernel, which transposes the queries once for all the page's items.
func (p *pagePass) loadRows() {
	p.qvecs = p.qvecs[:len(p.active)]
	for a, st := range p.active {
		p.qvecs[a] = st.q.Vec
	}
	p.rowSet.Load(p.qvecs, p.limits)
}

// eval evaluates items [lo, hi) of the begun page against the active set
// and returns what it did, for the caller to settle.
//
// With out == nil the pass is live: a within distance goes straight to the
// query's answer list and an accept tightens limits for the items after it
// — the sequential loop, which must be the only goroutine on the pass.
// With out != nil the pass is deferred: limits is read-only, and slot
// out[it*len(active)+a] receives the within distance of item it to query a,
// or skippedDist, for the pipeline's merge phase. Deferred decisions are a
// pure function of (page, barrier state, matrix), whatever the chunking.
//
// The clock is read here, twice per pass when something observes and never
// otherwise: probes and kernel calls are too short to time one by one.
func (p *pagePass) eval(lo, hi, worker int, out []float64) passCounts {
	start := p.s.clock()
	var c passCounts
	if p.rows {
		c = p.evalRows(lo, hi, worker, out)
	} else {
		c = p.evalPairs(lo, hi, worker, out)
	}
	p.s.observeSince(obs.PhaseKernel, start)
	return c
}

// evalPairs is the per-pair body: for each item, each active query in
// order is first probed against the distances already known for the item
// (Lemmas 1 and 2), and only then evaluated by the bounded distance kernel,
// which abandons mid-vector as soon as the partial result proves the exact
// distance irrelevant. The abandonment limit is not the query's own pruning
// distance but the abandonLimit raise of it, so an abandoned calculation
// provably (a) could never have produced an answer (Consider would reject
// it) and (b) fires Lemma 1 — and withholds Lemma 2 — for every later query
// on this item exactly where the exact distance would, leaving the calc and
// avoided counts untouched relative to full-distance evaluation. The
// partial result is appended to known like any other distance, so later
// probes see the same entry sequence either way.
func (p *pagePass) evalPairs(lo, hi, worker int, out []float64) passCounts {
	// Scalars, not a passCounts: the compiler keeps a four-field struct in
	// memory, and these are bumped once per pair.
	var calcs, abandoned, probes, avoided int64
	kernel := p.s.proc.metric.Kernel()
	mode := p.s.proc.opts.Avoidance
	page, active, activeIdx := p.page, p.active, p.activeIdx
	matrix, limits, raise, prof := p.matrix, p.limits, p.raise, p.prof
	avoiding := matrix != nil
	n := len(active)
	known := p.known[worker]
	for it := lo; it < hi; it++ {
		item := &page.Items[it]
		var row []float64
		if out != nil {
			row = out[it*n : (it+1)*n]
			for a := range row {
				row[a] = skippedDist
			}
		}
		known = known[:0]
		for a, st := range active {
			slot := activeIdx[a]
			qd := limits[a]
			limit := qd
			var tries int
			if avoiding {
				// The item's first query has nothing to probe; skipping the
				// call matters on index engines, where few queries share a
				// page and a first query is a large share of the pairs.
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
				limit = abandonLimit(qd, raise[a], len(known))
			}
			d, within := kernel.DistanceWithin(st.q.Vec, item.Vec, limit)
			calcs++
			if avoiding {
				known = append(known, knownDist{d: d, idx: int32(slot)})
			}
			if prof != nil {
				prof[st.pos].calculated(within, tries)
			}
			if !within {
				abandoned++
				continue
			}
			if row != nil {
				row[a] = d
				continue
			}
			if st.answers.Consider(item.ID, d) {
				limits[a] = st.queryDist()
				if avoiding && math.IsInf(qd, 1) && !math.IsInf(limits[a], 1) {
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
	return passCounts{calcs: calcs, abandoned: abandoned, tries: probes, avoided: avoided}
}

// evalRows is the blocked body: one sweep per item evaluates the whole
// active set, loaded at the barrier, against the item's vector — the same
// contiguous float64s whether the page's items own them or alias a columnar
// block — and returns the lanes within their limits; every other pair was
// abandoned. Only reached when rowPath holds, under which the results are
// bit-identical to evalPairs (see rowPath).
func (p *pagePass) evalRows(lo, hi, worker int, out []float64) passCounts {
	rows, sc := p.rowSet, &p.rowSc[worker]
	page, active, limits, prof := p.page, p.active, p.limits, p.prof
	n := len(active)
	var within int64
	for it := lo; it < hi; it++ {
		item := &page.Items[it]
		hits := rows.Sweep(item.Vec, sc)
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
		if out != nil {
			row := out[it*n : (it+1)*n]
			for a := range row {
				row[a] = skippedDist
			}
			for _, hit := range hits {
				row[hit.Lane] = hit.D
			}
			continue
		}
		for _, hit := range hits {
			if st := active[hit.Lane]; st.answers.Consider(item.ID, hit.D) {
				limits[hit.Lane] = st.queryDist()
				rows.SetLimit(int(hit.Lane), limits[hit.Lane])
			}
		}
	}
	calcs := int64(hi-lo) * int64(n)
	return passCounts{calcs: calcs, abandoned: calcs - within}
}

// rowPath reports whether a page with m active queries runs through the
// blocked row body. Rows require no avoidance interleaving: without the
// lemmas, a query's pruning distance within one item can only have been
// tightened by earlier items (each query's limit is updated solely by its
// own Consider accepts), so loading the pass's limits as the row limits
// reproduces the per-pair body's limits — and with them its distances,
// within flags, abandon points and Consider sequence — exactly. Under
// avoidance the per-pair body couples the queries of one item through the
// known list, which has no row equivalent; those pages keep the per-pair
// body.
//
// So do narrow pages. Measured per pair on a scan of 8 192 items, pair body
// → row body on AVX2, dim 8 / dim 16: m = 1: 17–20 → 20–30 ns / 28–39 →
// 39 (a lone query fills one lane of eight); m = 2: 16–21 → 13 / 21–26 →
// 17–18; m = 3: 15–18 → 9–13 / 27 → 13–15; m = 4: 14–15 → 7–9 / 25–27 →
// 8–11; m = 8: 14 → 4–5 / 23–25 → 5–7. Rows are ahead from m = 2. The
// constant is 4 all the same: on dbscan_xtree and engines_lowdim, whose
// pages are rarely two or three wide, 2 instead of 4 read ≈ 3 % better,
// which is the spread between repeats there, and it charges every
// two-query served request a fresh session's transposed buffer
// (serve_stored: +0.6 KB on 7.1 KB allocated per query).
func rowPath(avoiding bool, m int) bool {
	return !avoiding && m >= 4
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
