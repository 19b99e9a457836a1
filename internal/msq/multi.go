package msq

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// queryState is the live part of a query the session is evaluating: what
// the page loop needs of it between the call in which it enters and the
// call that completes it. Together with the answer list it is the
// "internal buffer" of Figure 4 (restore_from_buffer / buffer_answers).
//
// A completed query keeps its answer list and nothing else: the list
// records the query object and type, which is all that answering a
// resubmission from the buffer and refusing its ID with another object need
// (Session.completed). Its state goes back to the session's free list — the
// matrix slot, the page set and the struct itself are taken by the next
// query that enters — so a session's memory grows with the answers it has
// produced, not with the work it did to produce them.
type queryState struct {
	q       Query
	answers *query.AnswerList
	// stamp is the Session.stamp of the last call whose batch held this
	// query, and pos the query's position in that batch. The stamp is how a
	// call recognizes an ID it has already seen (a duplicate) and which
	// slot holders sat out; pos indexes EXPLAIN's per-position profiles.
	stamp uint64
	pos   int32
	// slot is the query's row and column in the session's query-distance
	// matrix, noSlot while it holds none (see queryMatrix).
	slot int32
	// pq is the engine's prepared handle for this query, created once when
	// the query first enters the session — through PrepareBlock, with the
	// queries that enter in the same call, when the engine is an
	// engine.BlockPreparer. Pivot-based engines pay their
	// query-to-pivot distances here, so every later page probe (plans,
	// relevance checks, seeding) across every incremental call reuses
	// them for free.
	pq engine.PreparedQuery
	// processed is the set of pages already examined for the query. It
	// stays with the struct through the free list, unless retire lets it go,
	// and is cleared when the next query takes it.
	processed pageSet
	// done marks a completed query, whose state waits in the batch for the
	// next call to retire it (Session.retire). A state that stands for a
	// query completed in an earlier call is done from the start.
	done bool
}

// pageSet is a set of page IDs, one bit per page: an engine's IDs are dense
// in [0, NumPages()) and fixed once it is built, so the set is sized when
// its query is admitted and never grows.
type pageSet []uint64

func (ps pageSet) has(pid store.PageID) bool { return ps[pid>>6]&(1<<(pid&63)) != 0 }
func (ps pageSet) add(pid store.PageID)      { ps[pid>>6] |= 1 << (pid & 63) }

// Session holds buffered (partial) answers between incremental multi-query
// calls. A session is bound to one processor. It is safe for concurrent
// use: calls are serialized by an internal mutex, because the paper's
// incremental semantics (each call builds on the buffered answers of the
// previous one) are inherently ordered. Separate sessions on one processor
// may run concurrently; they share only the engine and its pager. The
// paper's parallelism is across servers (§5.3, internal/parallel).
//
// What is buffered: for every query ever completed, its answer list, which
// records the query (completed); for every incomplete one its live state —
// the list, the pages already examined for it, the engine's prepared handle
// and, while it stays in the batch, a slot in the query-distance matrix
// (matrix.go). A completed query's state is recycled through a free list,
// so a sliding window allocates a query's answer list and its handle, not
// its bookkeeping. A call therefore costs O(new × m) to admit the queries
// that entered (their IDs checked against the batch) and fill their matrix
// rows, plus O(pages × active) for the page loop; nothing in it is
// proportional to the session's length. Memory is O(w²) for the matrix, w
// the widest batch so far, plus the incomplete queries' states, plus the
// free list — at most w structs, and page sets (pages/64 words each) for at
// most as many as the last call was wide (retire) — plus a plan buffer as
// long as the longest plan, plus one map entry and one list per completed
// query.
//
// MatrixDistCalcs counts what is calculated: each pair of incomplete
// queries once for as long as both stay in the batch. It charges nothing
// for a pair with an already completed query (such a query is never active
// again), and it charges a query's row again when the query comes back
// after a call that evaluated pages without it.
type Session struct {
	proc *Processor
	// mu serializes top-level calls on the session.
	mu sync.Mutex
	// live indexes by ID the incomplete queries that ever left a window;
	// the others are found in batch.
	live map[uint64]*queryState
	// completed is the registry of completed queries: one answer list per
	// ID, which records the query object and type.
	completed map[uint64]*query.AnswerList
	// spare holds retired states for the next queries that enter;
	// spare[:trimmed] are ones retire has taken the page sets of.
	spare   []*queryState
	trimmed int
	// stamp counts the calls on the session; see queryState.stamp.
	stamp uint64
	// matrix holds the distances between the buffered incomplete queries.
	matrix queryMatrix
	// batch, results and pass are per-call scratch that depends only on the
	// batch width: the states of the current call's queries (next: the
	// next call's), the answer lists a call returns and the page pass's
	// buffers, allocated once for a mining loop's thousands of calls.
	batch, next []*queryState
	results     []*query.AnswerList
	pass        *pagePass
	// bounded: batch holds an incomplete bounded query (seedFirstPages'
	// kind).
	bounded bool
	// finished holds batch's done states, for retire.
	finished []*queryState
	// plan is run's plan when the first query's handle is an
	// engine.PlanAppender: every call plans into it.
	plan []engine.PageRef
	// blockQs and blockPQs are prepareBlock's scratch when the engine is an
	// engine.BlockPreparer: the entering queries' vectors and their handles.
	blockQs  []vec.Vector
	blockPQs []engine.PreparedQuery
	// explain, when non-nil, collects per-query profiles and phase times
	// for the duration of one ExplainAllContext call (set and cleared
	// under mu).
	explain *explainState
}

// NewSession starts an empty multi-query session.
func (p *Processor) NewSession() *Session {
	return &Session{proc: p}
}

// MultiQuery evaluates a multiple similarity query per Definition 4 and the
// algorithm of Figure 4. On return, the answers for queries[0] are complete
// (A1 = similarity_query(Q1, T1)); the answers for the remaining queries
// are correct subsets of their full results (A_i ⊆ similarity_query(Q_i,
// T_i)), collected opportunistically from the pages loaded for Q1 and
// buffered in the session for later calls.
//
// The returned answer lists are aligned with queries and owned by the
// session: they remain live and may grow in subsequent calls. The slice that
// holds them is the session's too and is valid until the next call on the
// session, which reuses it; a caller that wants the lists longer copies the
// slice (the lists themselves stay live). The session copies what it keeps
// of queries (the Query values; the vectors they point to must not change),
// so a caller may build every call's batch in one slice, or cut it from a
// longer one.
func (s *Session) MultiQuery(queries []Query) ([]*query.AnswerList, Stats, error) {
	return s.MultiQueryContext(context.Background(), queries)
}

// MultiQueryContext is MultiQuery with cancellation: the page loop checks
// ctx once per page and aborts with ctx's error when it is canceled or past
// its deadline. Buffered partial answers collected before the abort stay in
// the session and are reused by later calls.
func (s *Session) MultiQueryContext(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.proc.tracer
	traced := tr.Enabled()
	var begin time.Time
	if traced {
		begin = time.Now()
	}
	// Accounting starts before prepare so the pivot distances paid by
	// Engine.Prepare for queries entering the session are charged to this
	// call's PivotDistCalcs.
	acct := s.beginAccounting()
	states, results, err := s.prepare(queries)
	if err != nil {
		return nil, Stats{}, err
	}
	if states[0].done {
		// The first query was completed by an earlier call; its answers
		// come straight from the buffer.
		if traced {
			tr.RecordQuery("multi", len(queries), time.Since(begin), 0, 0, 0)
		}
		var st Stats
		acct.finish(&st)
		return results, st, nil
	}

	var stats Stats

	// Inter-query distances for the avoidance lemmas: m(m-1)/2 calculations
	// for m new queries — the initialization overhead that is quadratic in
	// m (§5.2, §6.4) — and one row per query that entered since the last
	// call.
	matrixStart := s.clock()
	matrix := s.syncMatrix(states, &stats)
	s.observeSince(obs.PhaseMatrix, matrixStart)

	err = s.run(ctx, states, matrix, &stats)
	stats.Queries = 1
	acct.finish(&stats)
	if traced {
		tr.RecordQuery("multi", len(queries), time.Since(begin), stats.PagesRead, stats.DistCalcs, stats.Avoided)
	}
	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// prepare validates the batch and restores (or creates) the per-query
// buffered states. The whole batch is validated — dimension, finiteness,
// duplicate IDs, ID reuse with a different object — before any query is
// admitted, so a rejected call leaves the session's queries as it found
// them and pays no Engine.Prepare or PrepareBlock. The returned states and
// the slice of answer lists are session scratch, valid until the next call;
// the answer lists are the caller's.
//
// A mining loop slides a window: the query at position i of this call sat at
// i+1 of the previous one, or at i. Those two places are looked at first
// (held), and a query the session holds that arrives with the very vector it
// was admitted with — the same array, not an equal one — and the same type
// was validated then and is not validated again: MultiQuery's contract is
// that the vectors do not change, and only identity, never equality, shows
// that nothing has been put in their place. Any other ID is a duplicate, a
// query in live (index), one that moved in the previous batch further than
// a slide (unplaced), a completed one (the registry; it stands in the batch
// as a done state from the free list, for this call only) or new.
func (s *Session) prepare(queries []Query) ([]*queryState, []*query.AnswerList, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("msq: empty multiple similarity query")
	}
	// left bounds prev's incomplete queries not yet placed: prev less its
	// done states, less each one the hint places (too many after a refused
	// call, never too few). After a slide it is 0 and nothing scans prev.
	prev, left := s.batch, len(s.batch)-len(s.finished)
	s.retire(len(queries))
	s.stamp++
	states, bounded := slices.Grow(s.next[:0], len(queries)), false
	results := slices.Grow(s.results[:0], len(queries))[:len(queries)]
	s.results = results
	stamp, entering := s.stamp, len(queries) // the first bare state
	for i := range queries {
		q := &queries[i]
		st := held(prev, i, q.ID) // restore_from_buffer
		if st != nil && st.stamp != stamp && st.q.Type == q.Type && sameArray(st.q.Vec, q.Vec) {
			left--
			st.stamp, st.pos = stamp, int32(i)
			bounded = bounded || st.q.Type.Bounded()
			states = append(states, st)
			results[i] = st.answers
			continue
		}
		twice := st != nil && st.stamp == stamp
		switch {
		case st != nil:
			left--
		case seen(queries[:i], q.ID):
			twice = true
		default:
			if st = s.live[q.ID]; st == nil && left > 0 {
				st = unplaced(prev, q.ID, stamp) // it moved further than a slide
			}
		}
		var list *query.AnswerList
		var known bool
		if st != nil {
			known = st.q.Type == q.Type && sameArray(st.q.Vec, q.Vec)
		} else if !twice {
			list = s.completed[q.ID]
			known = list != nil && list.Type() == q.Type && sameArray(list.Object(), q.Vec)
		}
		if !known {
			if err := s.proc.CheckQuery(*q); err != nil {
				return s.reject(states, err)
			}
		}
		switch {
		case twice:
			return s.reject(states, fmt.Errorf("msq: query ID %d appears twice in one call", q.ID))
		case st != nil:
			if !known && (!st.q.Vec.Equal(q.Vec) || st.q.Type != q.Type) {
				return s.reject(states, fmt.Errorf("msq: query ID %d reused with a different object or type", q.ID))
			}
		case list == nil:
			st = s.take(*q) // admitted below once the batch is known good
			entering = min(entering, i)
		case !known && (!list.Object().Equal(q.Vec) || list.Type() != q.Type):
			return s.reject(states, fmt.Errorf("msq: query ID %d reused with a different object or type", q.ID))
		default:
			st = s.take(Query{ID: q.ID, Vec: list.Object(), Type: list.Type()})
			st.answers, st.done = list, true
			s.finished = append(s.finished, st)
		}
		st.stamp, st.pos = stamp, int32(i)
		bounded = bounded || !st.done && st.q.Type.Bounded()
		states = append(states, st)
		results[i] = st.answers
	}
	if left > 0 {
		s.index(prev)
	}
	s.batch, s.next, s.bounded = states, prev[:0], bounded
	for i := entering; i < len(states); i++ {
		if st := states[i]; st.answers == nil {
			s.admit(st)
			results[i] = st.answers
		}
	}
	if s.proc.block != nil {
		s.prepareBlock(states)
	}
	return states, results, nil
}

// seen reports whether id is the ID of one of qs.
func seen(qs []Query, id uint64) bool {
	for i := range qs {
		if qs[i].ID == id {
			return true
		}
	}
	return false
}

// unplaced returns the state of query id if the previous batch holds it
// incomplete and the call has not placed it yet, nil otherwise (see held).
func unplaced(prev []*queryState, id, stamp uint64) *queryState {
	for _, st := range prev {
		if st.q.ID == id && st.answers != nil && st.stamp != stamp {
			return st
		}
	}
	return nil
}

// index puts the previous batch's incomplete queries that the call did not
// place into live.
func (s *Session) index(prev []*queryState) {
	for _, st := range prev {
		if st.answers != nil && st.stamp != s.stamp {
			if s.live == nil {
				s.live = make(map[uint64]*queryState)
			}
			s.live[st.q.ID] = st
		}
	}
}

// sameArray reports whether a and b are the same vector: one array, one
// length.
func sameArray(a, b vec.Vector) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// take returns a bare state for q, from the free list when it has one.
func (s *Session) take(q Query) *queryState {
	var st *queryState
	if n := len(s.spare); n > 0 {
		st, s.spare = s.spare[n-1], s.spare[:n-1]
		s.trimmed = min(s.trimmed, n-1)
	} else {
		st = &queryState{slot: noSlot}
	}
	st.q = q
	return st
}

// admit gives a bare state what the page loop needs: its answer list, its
// page set (cleared when the state is recycled) and, unless the engine
// prepares the call's entering queries as one block, its prepared handle.
func (s *Session) admit(st *queryState) {
	st.answers = query.NewAnswerListFor(st.q.Vec, st.q.Type)
	if s.proc.block == nil {
		st.pq = s.proc.eng.Prepare(st.q.Vec)
	}
	if st.processed == nil {
		st.processed = make(pageSet, (s.proc.eng.NumPages()+63)/64)
	} else {
		clear(st.processed)
	}
}

// release withdraws st from live and puts it on the free list. Its list, if
// it has one, is the registry's or was never admitted; either way the state
// lets go of it, so that held never finds a state on the free list and a
// recycled state starts bare.
func (s *Session) release(st *queryState) {
	delete(s.live, st.q.ID)
	st.q, st.answers, st.pq, st.done = Query{}, nil, nil, false
	s.spare = append(s.spare, st)
}

// retire moves the queries the previous call completed into the registry
// and their states to the free list, together with the states that stood
// for already completed queries (finished). It runs when the next call begins,
// before the window is read, so a session that is never called again — a
// one-shot batch — pays neither registry nor free list. The free list keeps
// the page sets of at most width states, as many as a call of that width
// can take (take pops from the top, where they are): after a wide call a
// narrower session lets the other page sets go, and keeps their structs —
// as many as the widest batch, like the matrix — for the next wide call.
// The states trimmed by an earlier call stay at the bottom, so each state
// is trimmed once.
func (s *Session) retire(width int) {
	for _, st := range s.finished {
		if s.completed == nil {
			s.completed = make(map[uint64]*query.AnswerList)
		}
		s.completed[st.q.ID] = st.answers
		s.release(st)
	}
	s.finished = s.finished[:0]
	keep := max(len(s.spare)-width, 0)
	for _, st := range s.spare[min(s.trimmed, keep):keep] {
		st.processed = nil
	}
	s.trimmed = max(s.trimmed, keep)
}

// prepareBlock hands the queries that entered this call — the admitted ones
// without a handle — to the engine as one block, in batch order.
func (s *Session) prepareBlock(states []*queryState) {
	qs := slices.Grow(s.blockQs[:0], len(states))
	for _, st := range states {
		if st.pq == nil && !st.done {
			qs = append(qs, st.q.Vec)
		}
	}
	if len(qs) == 0 {
		return
	}
	pqs := slices.Grow(s.blockPQs[:0], len(qs))[:len(qs)]
	s.proc.block.PrepareBlock(qs, pqs)
	j := 0
	for _, st := range states {
		if st.pq == nil && !st.done {
			st.pq, j = pqs[j], j+1
		}
	}
	clear(qs) // the scratch outlives the call; the vectors and handles need not
	clear(pqs)
	s.blockQs, s.blockPQs = qs[:0], pqs[:0]
}

// reject gives back the states a call took from the free list before it
// found the query that fails it — the bare ones and those standing for
// completed queries — each once: a state is in states at most once, since a
// second occurrence of its ID is what rejects a call.
func (s *Session) reject(states []*queryState, err error) ([]*queryState, []*query.AnswerList, error) {
	for _, st := range states {
		if st.answers == nil || st.done {
			s.release(st)
		}
	}
	s.finished = s.finished[:0]
	return nil, nil, err
}

// held returns the state of query id if the previous call's batch holds it
// at position i+1 or i, nil otherwise. The previous batch has been retired
// (its done states are on the free list) and a call does not write it; a
// state the call took from the free list holds no list before admission
// unless it stands for a completed query the call has placed, so a state
// found here is live or a duplicate.
func held(prev []*queryState, i int, id uint64) *queryState {
	if i+1 < len(prev) && prev[i+1].q.ID == id && prev[i+1].answers != nil {
		return prev[i+1]
	}
	if i < len(prev) && prev[i].q.ID == id && prev[i].answers != nil {
		return prev[i]
	}
	return nil
}

// complete marks st's answers final and gives back what only an incomplete
// query needs and nobody recycles: its matrix slot and its prepared handle.
// The state itself waits in the batch until the next call retires it.
func (s *Session) complete(st *queryState) {
	st.done = true
	s.finished = append(s.finished, st)
	s.matrix.release(st)
	st.pq = nil
}

// accounting snapshots the I/O and distance counters so a call can report
// its own deltas.
type accounting struct {
	s             *Session
	ioBefore      store.IOStats
	distBefore    int64
	abandonBefore int64
	pivotBefore   int64
}

func (s *Session) beginAccounting() accounting {
	a := accounting{
		s:             s,
		ioBefore:      ioSnapshot(s.proc.eng.Pager()),
		distBefore:    s.proc.metric.Count(),
		abandonBefore: s.proc.metric.Abandoned(),
	}
	if pc, ok := s.proc.eng.(engine.PivotCoster); ok {
		a.pivotBefore = pc.PivotDistCalcs()
	}
	return a
}

func (a accounting) finish(stats *Stats) {
	stats.PagesRead = a.s.proc.eng.Pager().Disk().Stats().Reads - a.ioBefore.Reads
	stats.DistCalcs = a.s.proc.metric.Count() - a.distBefore - stats.MatrixDistCalcs
	stats.PartialAbandoned = a.s.proc.metric.Abandoned() - a.abandonBefore
	if pc, ok := a.s.proc.eng.(engine.PivotCoster); ok {
		stats.PivotDistCalcs = pc.PivotDistCalcs() - a.pivotBefore
	}
}

// run executes one multiple-similarity-query pass: it completes states[0]
// and opportunistically collects partial answers for the rest. matrix is
// indexed by the slots the states hold, so MultiQueryAll shares one matrix
// across all its passes.
func (s *Session) run(ctx context.Context, states []*queryState, matrix [][]float64, stats *Stats) error {
	first := states[0]

	// Seeding: a k-NN query that has no answers yet cannot exclude any
	// page (its query distance is infinite), so sharing Q1's pages with
	// it would process *every* page for it. Definition 4 only requires
	// partial answers for the non-first queries, so before the page loop
	// each new k-NN query reads the one page nearest to it, which bounds
	// its query distance by the distances on that page.
	if s.bounded {
		if err := s.seedFirstPages(states, stats); err != nil {
			return err
		}
	}

	// determine_relevant_data_pages: the plan covers (at least) every
	// page relevant for Q1, in optimal order. Buffered partial answers
	// give Q1 a head start on its query distance.
	planStart := s.clock()
	var plan []engine.PageRef
	if pa, ok := first.pq.(engine.PlanAppender); ok {
		s.plan = pa.AppendPlan(s.plan[:0], first.answers.QueryDist())
		plan = s.plan
	} else {
		plan = first.pq.Plan(first.answers.QueryDist())
	}
	s.observeSince(obs.PhasePlan, planStart)

	pass := s.pagePass(len(states), matrix)
	for _, ref := range plan {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("msq: multiple query: %w", err)
		}
		if ref.MinDist > first.answers.QueryDist() {
			break // prune_pages for Q1; later refs are even farther
		}
		if first.processed.has(ref.ID) {
			continue // already examined for Q1 in an earlier call
		}

		active := pass.decideActive(ref.ID, states)

		waitStart := s.clock()
		page, err := s.proc.eng.ReadPage(ref.ID)
		s.observeSince(obs.PhasePageWait, waitStart)
		if err != nil {
			return fmt.Errorf("msq: multiple query: %w", err)
		}
		s.visit(active, stats)

		pass.begin(page, active)
		s.settle(stats, pass.eval())
		s.proc.eng.Pager().Release(page) // answers hold IDs and distances, never an item

		for _, st := range active {
			st.processed.add(ref.ID)
		}
	}

	s.complete(first) // A1 is now complete; buffer_answers is implicit.
	return nil
}

// seedFirstPages bounds the query distance of each new bounded query by
// processing the single unprocessed page nearest to it (by lower bound):
// that page's true k-th distance is typically very close to the final k-NN
// distance, so subsequent page sharing for the query admits few superfluous
// pages. Only queries whose answer list is still unfilled are seeded, and
// only on engines with geometric page knowledge (an uninformative engine
// such as the scan would always seed page 0 for everyone).
func (s *Session) seedFirstPages(states []*queryState, stats *Stats) error {
	eng := s.proc.eng
	nPages := eng.NumPages()
	for idx, st := range states {
		if idx == 0 || st.done || st.answers.Full() || !st.q.Type.Bounded() {
			continue
		}
		best := store.InvalidPage
		bestD := math.Inf(1)
		informative := false
		for pid := 0; pid < nPages; pid++ {
			p := store.PageID(pid)
			if st.processed.has(p) {
				continue
			}
			d := st.pq.MinDist(p)
			if d > 0 {
				informative = true
			}
			if d < bestD {
				best, bestD = p, d
			}
		}
		if !informative || best == store.InvalidPage {
			continue
		}
		waitStart := s.clock()
		page, err := eng.ReadPage(best)
		s.observeSince(obs.PhasePageWait, waitStart)
		if err != nil {
			return fmt.Errorf("msq: seeding query %d: %w", st.q.ID, err)
		}
		// The live query distance (finite once the list fills, tightening
		// after) lets later items abandon early; an abandoned item could
		// not have entered the list.
		s.visit(states[idx:idx+1], stats)
		evalStart := s.clock()
		items, limit, within := page.Items, [1]float64{st.answers.QueryDist()}, int64(0)
		sweepItems(s.proc.lanes, items, []vec.Vector{st.q.Vec}, limit[:], func(_, it int, d float64) {
			within++
			st.answers.Consider(items[it].ID, d)
			limit[0] = st.answers.QueryDist()
		})
		c := passCounts{calcs: int64(len(items)), abandoned: int64(len(items)) - within}
		if ex := s.explain; ex != nil {
			ex.prof[st.pos].swept(c.calcs, within)
		}
		eng.Pager().Release(page)
		s.observeSince(obs.PhaseKernel, evalStart)
		s.settle(stats, c)
		st.processed.add(best)
	}
	return nil
}

// MultiQueryAll evaluates the whole batch to completion by running the
// multiple similarity query for every not-yet-finished suffix — the
// evaluation the paper describes: "to determine the complete answers for
// the other query objects we have to call the method repeatedly for
// [Q2,...,Qm], [Q3,...,Qm], ..., [Qm]". The session's page bookkeeping
// guarantees no page is processed twice for the same query, and the
// query-distance matrix is filled once for the whole batch. Calling
// MultiQuery on each suffix computes the same answers at the same matrix
// cost; what this saves is validating and restoring the batch m times, and
// what it adds is one Stats for the batch. The returned slice is session
// scratch, valid until the next call, as MultiQuery's is; the complete answer
// lists it holds stay live.
func (s *Session) MultiQueryAll(queries []Query) ([]*query.AnswerList, Stats, error) {
	return s.MultiQueryAllContext(context.Background(), queries)
}

// MultiQueryAllContext is MultiQueryAll with cancellation: every pass's page
// loop checks ctx once per page and aborts with ctx's error when it is
// canceled or past its deadline. Answers completed (or partially collected)
// before the abort stay buffered in the session.
func (s *Session) MultiQueryAllContext(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.multiQueryAllLocked(ctx, queries)
}

// multiQueryAllLocked is MultiQueryAllContext's body; the caller holds
// s.mu (ExplainAllContext shares it after attaching the explain state).
func (s *Session) multiQueryAllLocked(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	tr := s.proc.tracer
	traced := tr.Enabled()
	var begin time.Time
	if traced {
		begin = time.Now()
	}
	// As in MultiQueryContext, accounting brackets prepare so Prepare-time
	// pivot distances land in this call's PivotDistCalcs.
	acct := s.beginAccounting()
	states, results, err := s.prepare(queries)
	if err != nil {
		return nil, Stats{}, err
	}

	var stats Stats
	matrixStart := s.clock()
	matrix := s.syncMatrix(states, &stats)
	s.observeSince(obs.PhaseMatrix, matrixStart)

	record := func() {
		if traced {
			tr.RecordQuery("multi_all", len(queries), time.Since(begin), stats.PagesRead, stats.DistCalcs, stats.Avoided)
		}
	}
	for i := range states {
		if states[i].done {
			continue
		}
		if err := s.run(ctx, states[i:], matrix, &stats); err != nil {
			acct.finish(&stats)
			record()
			return nil, stats, err
		}
		stats.Queries++
	}
	acct.finish(&stats)
	record()
	return results, stats, nil
}

// MultiQuery is the convenience entry point for a one-shot batch: it runs a
// fresh session to completion and returns the complete answers for every
// query. No call follows on that session, so the slice is the caller's.
func (p *Processor) MultiQuery(queries []Query) ([]*query.AnswerList, Stats, error) {
	return p.NewSession().MultiQueryAll(queries)
}

// MultiQueryContext is MultiQuery with cancellation, running a fresh session
// to completion under ctx.
func (p *Processor) MultiQueryContext(ctx context.Context, queries []Query) ([]*query.AnswerList, Stats, error) {
	return p.NewSession().MultiQueryAllContext(ctx, queries)
}
