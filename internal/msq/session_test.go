package msq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The session keeps the distances between its buffered queries in a dense
// matrix indexed by slots (matrix.go). These tests pin what that buys and
// what it must not change: the matrix the page pass reads equals brute
// force, the calculations charged equal what a per-pair cache would have
// charged (with the one documented exception), and a session's memory
// follows the batch width, not the session's length.

// sessionDriver runs one session through a random call sequence next to a
// model of what the session should hold and pay.
type sessionDriver struct {
	t      *testing.T
	rng    *rand.Rand
	items  []store.Item
	metric vec.Metric
	mode   AvoidanceMode
	proc   *Processor
	s      *Session

	nextID   uint64
	queue    []Query // submitted-or-not, not yet complete, FIFO
	finished []Query
	widest   int
	// paid is the reference: the per-pair cache the matrix replaced, keyed
	// by unordered ID pair. A query that sits out a call forgets its pairs,
	// which is the documented difference.
	paid map[[2]uint64]bool
	held map[uint64]bool // the incomplete queries that should hold a slot
	want map[uint64][]query.Answer
	// lists is the answer list each query got from its first call: every
	// later call must return the same one, so a query the session holds is
	// never admitted again.
	lists map[uint64]*query.AnswerList
}

func (d *sessionDriver) newQuery() Query {
	d.nextID++
	t := query.NewRange(0.25)
	if d.rng.Intn(2) == 0 {
		t = query.NewKNN(1 + d.rng.Intn(6))
	}
	return Query{ID: d.nextID, Vec: d.items[d.rng.Intn(len(d.items))].Vec, Type: t}
}

func (d *sessionDriver) done(id uint64) bool {
	if st := stateOf(d.s, id); st != nil {
		return st.done
	}
	return d.s.completed[id] != nil
}

// stateOf returns the state s holds for query id — in the last call's
// batch, or in live when the query left a window before it completed — and
// nil when it holds none.
func stateOf(s *Session, id uint64) *queryState {
	for _, st := range s.batch {
		if st.q.ID == id && st.answers != nil {
			return st
		}
	}
	return s.live[id]
}

// heldStates returns every state s holds, by query ID: the last call's
// batch's and live's.
func heldStates(s *Session) map[uint64]*queryState {
	held := make(map[uint64]*queryState, len(s.batch)+len(s.live))
	for _, st := range s.batch {
		if st.answers != nil {
			held[st.q.ID] = st
		}
	}
	for id, st := range s.live {
		held[id] = st
	}
	return held
}

// listOf returns the answer list s buffers for query id: its live state's,
// or the registry's once the query is completed and retired.
func listOf(s *Session, id uint64) *query.AnswerList {
	if st := stateOf(s, id); st != nil {
		return st.answers
	}
	return s.completed[id]
}

// registered counts the query IDs s knows: the completed ones and the live
// ones, a done state standing for a completed query counted once.
func registered(s *Session) int {
	n := len(s.completed)
	for id := range heldStates(s) {
		if s.completed[id] == nil {
			n++
		}
	}
	return n
}

// checkSpare holds the free list to its contract: every state on it is
// released — no query, no list, no handle, in no index — and on it once,
// and the trimmed bottom holds no page set.
func checkSpare(t *testing.T, s *Session) {
	t.Helper()
	if s.trimmed > len(s.spare) {
		t.Fatalf("%d states counted trimmed on a free list of %d", s.trimmed, len(s.spare))
	}
	for _, st := range s.spare[:s.trimmed] {
		if st.processed != nil {
			t.Fatalf("a state counted trimmed still holds its page set")
		}
	}
	seen := make(map[*queryState]bool, len(s.spare))
	for _, st := range s.spare {
		if seen[st] {
			t.Fatalf("a state is on the free list twice")
		}
		seen[st] = true
		if st.answers != nil || st.pq != nil || st.done || st.slot != noSlot || st.q.Vec != nil {
			t.Fatalf("a state on the free list still holds its query (list %v, handle %v, done %v, slot %d)",
				st.answers != nil, st.pq != nil, st.done, st.slot)
		}
	}
	for id, st := range heldStates(s) {
		if seen[st] {
			t.Fatalf("query %d's state is live and on the free list", id)
		}
	}
	// live holds admitted queries under their own IDs, a completed one only
	// while it waits in the batch to be retired, and every incomplete query
	// the last batch does not hold.
	inBatch := make(map[*queryState]bool, len(s.batch))
	for _, st := range s.batch {
		inBatch[st] = true
	}
	for id, st := range s.live {
		if st.q.ID != id || st.answers == nil || st.done && !inBatch[st] {
			t.Fatalf("live holds query %d as query %d (done %v, in the batch %v)", id, st.q.ID, st.done, inBatch[st])
		}
	}
	for _, st := range s.matrix.holder {
		if st != nil && !inBatch[st] && s.live[st.q.ID] != st {
			t.Fatalf("query %d holds a slot and is neither in the batch nor in live", st.q.ID)
		}
	}
}

// expectMatrixCalcs advances the model over one call and returns the
// MatrixDistCalcs the call must report, and whether the call reaches the
// matrix at all.
func (d *sessionDriver) expectMatrixCalcs(batch []Query, all bool) (calcs int64, synced bool) {
	if !all && d.done(batch[0].ID) {
		return 0, false // answered from the buffer
	}
	if d.mode == AvoidOff {
		return 0, true
	}
	inBatch := make(map[uint64]bool, len(batch))
	for _, q := range batch {
		inBatch[q.ID] = true
	}
	for id := range d.held {
		if inBatch[id] {
			continue
		}
		delete(d.held, id)
		for k := range d.paid {
			if k[0] == id || k[1] == id {
				delete(d.paid, k)
			}
		}
	}
	if len(batch) < 2 {
		return 0, true
	}
	var live []uint64
	for _, q := range batch {
		if !d.done(q.ID) {
			live = append(live, q.ID)
			d.held[q.ID] = true
		}
	}
	for i, a := range live {
		for _, b := range live[i+1:] {
			k := [2]uint64{min(a, b), max(a, b)}
			if !d.paid[k] {
				d.paid[k] = true
				calcs++
			}
		}
	}
	return calcs, true
}

// checkStore compares the session's matrix with brute force on every pair
// of the batch's incomplete queries that hold slots; with full set, every
// incomplete query of the batch must hold one.
func (d *sessionDriver) checkStore(batch []Query, full bool) {
	d.t.Helper()
	qm := &d.s.matrix
	for id := range d.held {
		if d.done(id) {
			delete(d.held, id)
		}
	}
	holders := 0
	for slot, st := range qm.holder {
		if st == nil {
			continue
		}
		holders++
		if int(st.slot) != slot || st.done {
			d.t.Fatalf("slot %d held by query %d with slot %d, done %v", slot, st.q.ID, st.slot, st.done)
		}
		if !d.held[st.q.ID] {
			d.t.Fatalf("query %d holds slot %d and should hold none", st.q.ID, slot)
		}
	}
	if holders != qm.live || holders != len(d.held) {
		d.t.Fatalf("%d holders, live = %d, model holds %d", holders, qm.live, len(d.held))
	}
	if qm.live > d.widest || len(qm.rows) > d.widest {
		d.t.Fatalf("%d live slots of %d, widest batch %d", qm.live, len(qm.rows), d.widest)
	}
	var live []*queryState
	for _, q := range batch {
		st := stateOf(d.s, q.ID)
		if st == nil || st.done { // completed: retired, or waiting to be
			if st != nil && st.slot != noSlot {
				d.t.Fatalf("completed query %d holds slot %d", q.ID, st.slot)
			}
			continue
		}
		if st.slot == noSlot {
			if full {
				d.t.Fatalf("incomplete query %d holds no slot", q.ID)
			}
			continue
		}
		live = append(live, st)
	}
	for _, a := range live {
		for _, b := range live {
			if a == b {
				continue
			}
			want := d.metric.Distance(a.q.Vec, b.q.Vec)
			if got := qm.rows[a.slot][b.slot]; got != want {
				d.t.Fatalf("matrix[%d][%d] = %v, dist(Q%d, Q%d) = %v", a.slot, b.slot, got, a.q.ID, b.q.ID, want)
			}
		}
	}
}

func (d *sessionDriver) call(ctx context.Context, batch []Query, all bool) ([]*query.AnswerList, Stats, error) {
	if all {
		return d.s.MultiQueryAllContext(ctx, batch)
	}
	return d.s.MultiQueryContext(ctx, batch)
}

// expectRejected submits a batch the session must refuse and checks that
// refusing it changed nothing.
func (d *sessionDriver) expectRejected(batch []Query, all bool) {
	d.t.Helper()
	states, live := registered(d.s), d.s.matrix.live
	holders := append([]*queryState(nil), d.s.matrix.holder...)
	if _, st, err := d.call(context.Background(), batch, all); err == nil || st != (Stats{}) {
		d.t.Fatalf("ID reuse with a different object: err %v, stats %+v", err, st)
	}
	if registered(d.s) != states || d.s.matrix.live != live {
		d.t.Fatalf("rejected call left %d states (%d before), %d live slots (%d before)", registered(d.s), states, d.s.matrix.live, live)
	}
	checkSpare(d.t, d.s)
	for slot, st := range d.s.matrix.holder {
		if holders[slot] != st {
			d.t.Fatalf("rejected call changed the holder of slot %d", slot)
		}
	}
}

func (d *sessionDriver) step() {
	d.t.Helper()
	m := 1 + d.rng.Intn(10)
	for len(d.queue) <= m {
		d.queue = append(d.queue, d.newQuery())
	}
	batch := append([]Query(nil), d.queue[:m]...)
	all := false
	switch d.rng.Intn(8) {
	case 0: // a query leaves the window for one call and returns with the next
		if m > 2 {
			i := 1 + d.rng.Intn(m-1)
			batch = append(batch[:i], batch[i+1:]...)
		}
	case 1: // a completed query comes back beside new ones, not in front
		if len(d.finished) > 0 {
			i := 1 + d.rng.Intn(len(batch))
			old := d.finished[d.rng.Intn(len(d.finished))]
			batch = append(batch[:i], append([]Query{old}, batch[i:]...)...)
		}
	case 2, 3:
		all = true
	case 4: // an ID the session knows, with another object: refused whole
		if len(d.finished) > 0 {
			bad := d.finished[d.rng.Intn(len(d.finished))]
			bad.Vec = append(vec.Vector(nil), bad.Vec...)
			bad.Vec[0]++
			d.expectRejected(append(append([]Query(nil), batch...), bad), d.rng.Intn(2) == 0)
		}
	case 5: // a held or completed ID again: the same array, an equal copy, another vector
		d.resubmit(&batch)
	case 6: // the window reordered: held queries move further than a slide moves them
		d.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	}
	d.widest = max(d.widest, len(batch))

	// Half of the calls are first attempted under a canceled context: the
	// session prepares, brings the matrix up to date and gives up at the
	// first page, so every incomplete query of the batch still holds its
	// slot and the whole matrix of the call can be compared.
	if d.rng.Intn(2) == 0 {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		want, synced := d.expectMatrixCalcs(batch, all)
		_, st, err := d.call(ctx, batch, all)
		if err != nil && !errors.Is(err, context.Canceled) {
			d.t.Fatal(err)
		}
		if st.MatrixDistCalcs != want {
			d.t.Fatalf("canceled call: MatrixDistCalcs = %d, want %d", st.MatrixDistCalcs, want)
		}
		d.checkStore(batch, synced && d.mode != AvoidOff && len(batch) > 1)
	}

	want, _ := d.expectMatrixCalcs(batch, all)
	res, st, err := d.call(context.Background(), batch, all)
	if err != nil {
		d.t.Fatal(err)
	}
	if st.MatrixDistCalcs != want {
		d.t.Fatalf("MatrixDistCalcs = %d, want %d (batch of %d, all %v)", st.MatrixDistCalcs, want, len(batch), all)
	}
	d.checkStore(batch, false)
	for i, q := range batch {
		if l, ok := d.lists[q.ID]; ok && l != res[i] {
			d.t.Fatalf("query %d: the call returned another answer list than its first", q.ID)
		}
		d.lists[q.ID] = res[i]
	}
	for i, q := range batch {
		if i > 0 && !all {
			break
		}
		if !d.done(q.ID) {
			d.t.Fatalf("query %d not complete after the call", q.ID)
		}
		if _, ok := d.want[q.ID]; !ok {
			l, _, err := d.proc.Single(q.Vec, q.Type)
			if err != nil {
				d.t.Fatal(err)
			}
			d.want[q.ID] = l.Answers()
		}
		if !sameAnswers(res[i].Answers(), d.want[q.ID]) {
			d.t.Fatalf("query %d: answers differ from Single", q.ID)
		}
	}
	rest := d.queue[:0]
	for _, q := range d.queue {
		if d.done(q.ID) {
			d.finished = append(d.finished, q)
		} else {
			rest = append(rest, q)
		}
	}
	d.queue = rest
}

// resubmit puts into batch a query the session knows under its ID — one the
// session holds, in its place, or a completed one, at a position after the
// first — with the very vector it was submitted with, with an equal copy, or
// with another vector. The first two are the same query; the third is
// refused whole, and batch stays as it was.
func (d *sessionDriver) resubmit(batch *[]Query) {
	var known []int
	for j, q := range *batch {
		if stateOf(d.s, q.ID) != nil {
			known = append(known, j)
		}
	}
	b := append([]Query(nil), *batch...)
	var j int
	if len(d.finished) > 0 && (len(known) == 0 || d.rng.Intn(2) == 0) {
		j = 1 + d.rng.Intn(len(b))
		b = slices.Insert(b, j, d.finished[d.rng.Intn(len(d.finished))])
	} else if len(known) > 0 {
		j = known[d.rng.Intn(len(known))]
	} else {
		return
	}
	switch d.rng.Intn(3) {
	case 0: // the same array
	case 1:
		b[j].Vec = b[j].Vec.Clone()
	case 2:
		b[j].Vec = b[j].Vec.Clone()
		b[j].Vec[0]++
		d.expectRejected(b, d.rng.Intn(2) == 0)
		return
	}
	*batch = b
}

// TestSessionMatrixAgainstBruteForce drives sessions through random call
// sequences — sliding windows, a query that leaves and returns, reordered
// windows, held and completed queries resubmitted with the same array, an
// equal copy or another vector, MultiQuery and MultiQueryAll interleaved,
// batches that shrink and grow, refused calls, canceled calls — and checks after
// every call that (a) the matrix equals brute force on every pair of
// incomplete queries, (b) every completed answer equals Single, (c) each
// call's MatrixDistCalcs equals what a per-pair cache would have charged,
// except that a query which sat out pays its row again, and (d) the live
// slots and the matrix never exceed the widest batch.
func TestSessionMatrixAgainstBruteForce(t *testing.T) {
	const dim, n = 4, 400
	items := testDB(31, n, dim)
	metric := vec.Euclidean{}
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for _, mk := range diffMakers() {
		if mk.name != "scan" && mk.name != "xtree" && mk.name != "pivot" {
			continue
		}
		for _, mode := range []AvoidanceMode{AvoidBoth, AvoidLemma1, AvoidLemma2, AvoidOff} {
			// Three walks per engine and mode. Each subtest keeps the name of
			// the pipeline width it once ran at, which seeds its walk.
			for _, walk := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%v/width%d", mk.name, mode, walk), func(t *testing.T) {
					proc, err := New(mk.make(t, items, dim, metric), metric, Options{Avoidance: mode})
					if err != nil {
						t.Fatal(err)
					}
					d := &sessionDriver{
						t: t, rng: rand.New(rand.NewSource(int64(walk)*100 + int64(mode))),
						items: items, metric: metric, mode: mode, proc: proc, s: proc.NewSession(),
						paid: map[[2]uint64]bool{}, held: map[uint64]bool{}, want: map[uint64][]query.Answer{},
						lists: map[uint64]*query.AnswerList{},
					}
					for i := 0; i < steps; i++ {
						d.step()
					}
					if mode == AvoidOff && d.s.matrix.rows != nil {
						t.Error("a matrix was allocated with avoidance off")
					}
				})
			}
		}
	}
}

// TestCompletedQueriesReleaseTheirState is the unbounded-growth fix: after a
// long sliding-window session, a completed query is its answer list — which
// records the query's vector and type — and one registry entry; the states
// the session holds, live or on the free list, are as many as the window
// is wide, and the matrix is as wide as the window.
func TestCompletedQueriesReleaseTheirState(t *testing.T) {
	const dim, n, m, steps = 4, 5008, 8, 5000
	items := testDB(32, n, dim)
	proc, err := New(xtreeEngine(t, items, dim), vec.Euclidean{}, Options{Avoidance: AvoidBoth})
	if err != nil {
		t.Fatal(err)
	}
	s := proc.NewSession()
	typ := query.NewRange(0.05)
	batch := make([]Query, m)
	for i := 0; i < steps; i++ {
		for j := range batch {
			batch[j] = Query{ID: uint64(i + j), Vec: items[i+j].Vec, Type: typ}
		}
		if _, _, err := s.MultiQuery(batch); err != nil {
			t.Fatal(err)
		}
		if s.matrix.live != m-1 {
			t.Fatalf("step %d: %d live slots, window of %d", i, s.matrix.live, m)
		}
		if n := len(heldStates(s)); n > m || n+len(s.spare) > m {
			t.Fatalf("step %d: %d live states and %d spare, window of %d", i, n, len(s.spare), m)
		}
	}
	if len(s.matrix.rows) != m {
		t.Errorf("matrix is %d wide after %d steps, window of %d", len(s.matrix.rows), steps, m)
	}
	checkSpare(t, s)
	// The last call's completed query waits in its batch for the next call
	// to retire it; every earlier one is in the registry.
	for id, l := range s.completed {
		if l.Len() == 0 || !sameArray(l.Object(), items[id].Vec) || l.Type() != typ {
			t.Fatalf("completed query %d lost its answers, its query or its type", id)
		}
		if stateOf(s, id) != nil {
			t.Fatalf("completed query %d still has a live state", id)
		}
	}
	if got, last := len(s.completed), stateOf(s, steps-1); got != steps-1 || !last.done {
		t.Errorf("%d completed queries in the registry and query %d done %v, want %d and true", got, steps-1, last.done, steps-1)
	}

	// A completed query has no prepared handle to ask, so everything that
	// walks the batch must skip it before touching one: resubmit completed
	// queries behind a new first query, beside new k-NN queries that make
	// bootstrap and seedFirstPages run.
	knn := query.NewKNN(3)
	mixed := []Query{
		{ID: 1 << 20, Vec: items[5000].Vec, Type: knn},
		{ID: 0, Vec: items[0].Vec, Type: typ},
		{ID: 1<<20 + 1, Vec: items[5001].Vec, Type: knn},
		{ID: 1, Vec: items[1].Vec, Type: typ},
	}
	res, _, err := s.MultiQueryAll(mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range mixed {
		if want := brute(items, vec.Euclidean{}, q.Vec, q.Type); !sameAnswers(res[i].Answers(), want) {
			t.Errorf("query %d: wrong answers after resubmission", q.ID)
		}
	}

	// Wide, then narrow: a call of 64 new queries completes them all, and the
	// next call of two keeps no more than two page sets on the free list, so
	// the wide call's do not outlive it; the structs stay, as many as the
	// widest batch.
	const wide, narrow = 64, 2
	batch = make([]Query, wide)
	for j := range batch {
		batch[j] = Query{ID: 2<<20 + uint64(j), Vec: items[70*j].Vec, Type: typ}
	}
	if _, _, err := s.MultiQueryAll(batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MultiQueryAll(batch[:narrow]); err != nil {
		t.Fatal(err)
	}
	checkSpare(t, s)
	sets := 0
	for _, st := range s.spare {
		if st.processed != nil {
			sets++
		}
	}
	if sets > narrow || len(s.spare) > wide {
		t.Errorf("%d states on the free list, %d with a page set, after a call of %d following one of %d", len(s.spare), sets, narrow, wide)
	}
	// The next wide call takes the structs back and gives them page sets.
	for j := range batch {
		batch[j] = Query{ID: 3<<20 + uint64(j), Vec: items[70*j+1].Vec, Type: typ}
	}
	res, _, err = s.MultiQueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range batch {
		if want := brute(items, vec.Euclidean{}, q.Vec, q.Type); !sameAnswers(res[i].Answers(), want) {
			t.Fatalf("query %d: wrong answers from a state that lost its page set", q.ID)
		}
	}
	if got := len(s.completed); got < steps-1+wide {
		t.Errorf("%d completed queries in the registry after the wide call, want at least %d", got, steps-1+wide)
	}
}

// TestRejectedCallLeavesSessionUntouched is the validate-first fix: a batch
// with one bad query must not admit the queries before it — no state, no
// slot, and no Engine.Prepare, whose pivot distances no call would report.
func TestRejectedCallLeavesSessionUntouched(t *testing.T) {
	const dim = 4
	items := testDB(33, 300, dim)
	metric := vec.Euclidean{}
	var pivotEngine engine.Engine
	for _, mk := range diffMakers() {
		if mk.name == "pivot" {
			pivotEngine = mk.make(t, items, dim, metric)
		}
	}
	proc, err := New(pivotEngine, metric, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pivots := pivotEngine.(engine.PivotCoster)
	s := proc.NewSession()
	knn := query.NewKNN(4)
	good := func(i int) Query { return Query{ID: uint64(i), Vec: items[i].Vec, Type: knn} }

	if _, _, err := s.MultiQuery([]Query{good(0), good(1), good(2)}); err != nil {
		t.Fatal(err)
	}
	moved := good(0)
	moved.Vec = items[9].Vec
	for name, bad := range map[string]Query{
		"wrong dimension":     {ID: 50, Vec: vec.Vector{1, 2}, Type: knn},
		"duplicate ID":        good(11),
		"duplicate buffered":  good(1),
		"ID of another query": moved,
	} {
		states, live, paid := registered(s), s.matrix.live, pivots.PivotDistCalcs()
		for _, all := range []bool{false, true} {
			batch := []Query{good(10), good(1), good(11), bad}
			var st Stats
			if all {
				_, st, err = s.MultiQueryAll(batch)
			} else {
				_, st, err = s.MultiQuery(batch)
			}
			if err == nil || st != (Stats{}) {
				t.Fatalf("%s: err %v, stats %+v", name, err, st)
			}
		}
		if registered(s) != states || s.matrix.live != live {
			t.Errorf("%s: %d states and %d live slots after, %d and %d before", name, registered(s), s.matrix.live, states, live)
		}
		checkSpare(t, s)
		if got := pivots.PivotDistCalcs(); got != paid {
			t.Errorf("%s: the rejected call paid %d pivot distances", name, got-paid)
		}
	}

	// The session answers a valid call, and reports the pivot distances of
	// the queries it admits then.
	batch := []Query{good(10), good(1), good(11)}
	res, st, err := s.MultiQueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	res = slices.Clone(res) // the next call reuses the slice
	if st.PivotDistCalcs == 0 {
		t.Error("admitting two queries on a pivot engine reported no pivot distances")
	}
	for i, q := range batch {
		if want := brute(items, metric, q.Vec, q.Type); !sameAnswers(res[i].Answers(), want) {
			t.Errorf("query %d: wrong answers after rejected calls", q.ID)
		}
	}

	// That was the window the rejected calls presented: they left the bare
	// states of 10 and 11, withdrawn from the registry, in the batch the
	// window hint reads. The valid call must have registered its own, so the
	// same window once more finds those — the same lists, nothing admitted.
	if registered(s) != 5 {
		t.Errorf("%d states in the registry, want 5", registered(s))
	}
	again, st, err := s.MultiQueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.PivotDistCalcs != 0 || registered(s) != 5 {
		t.Errorf("repeating the window paid %d pivot distances and left %d states", st.PivotDistCalcs, registered(s))
	}
	for i, q := range batch {
		if again[i] != res[i] || stateOf(s, q.ID) != s.batch[i] || s.batch[i].answers != res[i] {
			t.Errorf("query %d: the repeated window got another answer list or state", q.ID)
		}
	}
}

// TestWindowHint: a query found where a sliding window leaves it — the
// previous batch at its position or one further on — skips validation only
// when it arrives with the very vector the session holds and the same type;
// everything else at a hinted position is judged as it is anywhere.
func TestWindowHint(t *testing.T) {
	const dim = 4
	items := testDB(34, 300, dim)
	metric := vec.Euclidean{}
	rng := query.NewRange(0.3)
	good := func(i int) Query { return Query{ID: uint64(i), Vec: items[i].Vec, Type: rng} }
	window := func(from int) []Query {
		return []Query{good(from), good(from + 1), good(from + 2), good(from + 3)}
	}
	for _, mk := range diffMakers() {
		if mk.name != "xtree" {
			continue
		}
		proc, err := New(mk.make(t, items, dim, metric), metric, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := proc.NewSession()
		res, _, err := s.MultiQuery(window(0))
		if err != nil {
			t.Fatal(err)
		}
		first := res[0]
		for i := 0; i < 3; i++ {
			if st := held(s.batch, i, uint64(i+1)); st == nil || st != s.batch[i+1] {
				t.Fatalf("position %d of the next window: the hint found %v", i, st)
			}
		}
		if held(s.batch, 3, 4) != nil || held(s.batch, 0, 2) != nil {
			t.Fatal("the hint found a query the previous batch does not hold there")
		}

		clone, moved, retyped := good(2), good(2), good(2)
		clone.Vec = clone.Vec.Clone()
		moved.Vec = items[9].Vec
		retyped.Type = query.NewKNN(3)
		nan := good(2)
		nan.Vec = clone.Vec.Clone()
		nan.Vec[1] = math.NaN()
		for _, c := range []struct {
			name  string
			batch []Query
			ok    bool
		}{
			{"twice, both hinted", []Query{good(1), good(1), good(3), good(4)}, false},
			{"different vector", []Query{good(1), moved, good(3), good(4)}, false},
			{"non-finite vector", []Query{good(1), nan, good(3), good(4)}, false},
			{"different type", []Query{good(1), retyped, good(3), good(4)}, false},
			{"equal but distinct vector", []Query{good(1), clone, good(3), good(4)}, true},
			{"completed query", window(0), true},
		} {
			name := c.name
			states := registered(s)
			res, st, err := s.MultiQuery(c.batch)
			if !c.ok {
				if err == nil || registered(s) != states {
					t.Errorf("%s: err %v, %d states after and %d before", name, err, registered(s), states)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "completed query" && (st != Stats{} || res[0] != first) {
				t.Errorf("%s: stats %+v, the buffered list %v", name, st, res[0] == first)
			}
			for i, q := range c.batch {
				if res[i] != listOf(s, q.ID) {
					t.Errorf("%s: query %d got a list that is not the session's", name, q.ID)
				}
			}
			if want := brute(items, metric, c.batch[0].Vec, rng); !sameAnswers(res[0].Answers(), want) {
				t.Errorf("%s: wrong answers for query %d", name, c.batch[0].ID)
			}
		}

		// The window slides on to the end, whatever was presented above.
		for from := 1; from < 40; from++ {
			res, _, err := s.MultiQuery(window(from))
			if err != nil {
				t.Fatal(err)
			}
			if want := brute(items, metric, items[from].Vec, rng); !sameAnswers(res[0].Answers(), want) {
				t.Errorf("window %d: wrong answers", from)
			}
		}
	}
}

// TestResultsSliceIsSessionScratch: the slice a call returns is the
// session's, and the next call writes over it; the answer lists it held are
// the session's buffer and stay live — the same lists, completed later and
// equal to brute force.
func TestResultsSliceIsSessionScratch(t *testing.T) {
	const dim = 4
	items := testDB(36, 300, dim)
	metric := vec.Euclidean{}
	proc, err := New(xtreeEngine(t, items, dim), metric, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := proc.NewSession()
	knn := query.NewKNN(4)
	q := func(i int) Query { return Query{ID: uint64(i), Vec: items[i].Vec, Type: knn} }

	first, _, err := s.MultiQuery([]Query{q(0), q(1), q(2)})
	if err != nil {
		t.Fatal(err)
	}
	held := slices.Clone(first)
	second, _, err := s.MultiQuery([]Query{q(3), q(4), q(5)})
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Error("the second call returned another slice")
	}
	for i := range held {
		if first[i] != listOf(s, uint64(3+i)) || first[i] == held[i] {
			t.Errorf("position %d: the first call's slice still holds its own list", i)
		}
	}

	batch := []Query{q(0), q(1), q(2), q(3), q(4), q(5)}
	all, _, err := s.MultiQueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batch {
		if i < len(held) && all[i] != held[i] {
			t.Errorf("query %d: its list was replaced", b.ID)
		}
		if want := brute(items, metric, b.Vec, b.Type); !sameAnswers(all[i].Answers(), want) {
			t.Errorf("query %d: wrong answers", b.ID)
		}
	}
}

// TestSlideAllocations counts what a steady sliding window costs the heap:
// a call of m range queries over an in-memory, unbuffered X-tree, one query
// entering at the back and one completing at the front. Every allocation
// left belongs to what the call returns or to the query that enters:
//
//  1. the entering query's answer list;
//  2. the list's one answer (ε is far below the gap between two items,
//     so each query finds only its own object), appended once for its page;
//  3. its prepared handle (xtree.Prepare).
//
// Nothing scales with m. The entering query's state and page set are the
// ones the query that completed a call earlier gave back; the slice of
// answer lists the call returns is session scratch, and so is the plan of
// the query it completes (xtree's AppendPlan into the session's buffer); a
// page read's singleflight record is reused when nobody waited on it. The
// registry's growth is amortised below one allocation a call, and the live
// index stays as wide as the window.
func TestSlideAllocations(t *testing.T) {
	const dim, n, m, warm = 4, 3000, 16, 500
	items := testDB(37, n, dim)
	proc, err := New(xtreeEngine(t, items, dim), vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := proc.NewSession()
	typ := query.NewRange(1e-6)
	seeds := make([]Query, n)
	for i := range seeds {
		seeds[i] = Query{ID: uint64(i), Vec: items[i].Vec, Type: typ}
	}
	head := 0
	slide := func() {
		res, _, err := s.MultiQuery(seeds[head : head+m])
		if err != nil {
			t.Fatal(err)
		}
		if a := res[0].Answers(); len(a) != 1 || a[0].ID != store.ItemID(head) {
			t.Fatalf("query %d: answers %v, want its own object only", head, a)
		}
		head++
	}
	for head < warm {
		slide()
	}
	if got := testing.AllocsPerRun(1000, slide); got != 3 {
		t.Errorf("%v allocations a call, want 3", got)
	}
}

// blockRecorder is an engine.BlockPreparer that prepares each query of a
// block alone and records the blocks it was handed.
type blockRecorder struct {
	engine.Engine
	blocks [][]vec.Vector
}

func (b *blockRecorder) PrepareBlock(qs []vec.Vector, dst []engine.PreparedQuery) {
	b.blocks = append(b.blocks, append([]vec.Vector(nil), qs...))
	for i, q := range qs {
		dst[i] = b.Prepare(q)
	}
}

// TestSessionPreparesEnteringQueriesAsOneBlock: on an engine.BlockPreparer a
// call hands exactly the queries that enter the session to PrepareBlock, in
// batch order, once; a rejected call and a call whose queries are all held
// hand it nothing; each handle serves its own query; and the session's
// scratch keeps no vector or handle past the call.
func TestSessionPreparesEnteringQueriesAsOneBlock(t *testing.T) {
	const dim = 4
	items := testDB(35, 400, dim)
	metric := vec.Euclidean{}
	rec := &blockRecorder{Engine: xtreeEngine(t, items, dim)}
	proc, err := New(rec, metric, Options{})
	if err != nil {
		t.Fatal(err)
	}
	knn := query.NewKNN(5)
	q := func(i int) Query { return Query{ID: uint64(i), Vec: items[i*7].Vec, Type: knn} }
	s := proc.NewSession()
	for _, c := range []struct {
		batch []Query
		all   bool
		ok    bool
		block []int // IDs PrepareBlock must be handed; nil for no call
	}{
		{[]Query{q(0), q(1), q(2)}, false, true, []int{0, 1, 2}},
		{[]Query{q(2), q(5), q(5)}, false, false, nil}, // ID 5 twice
		{[]Query{q(1), q(2), q(3), q(4)}, false, true, []int{3, 4}},
		{[]Query{q(4), q(3), q(2)}, false, true, nil},
		{[]Query{q(6), q(4), q(7), q(0)}, true, true, []int{6, 7}},
	} {
		before := len(rec.blocks)
		call := s.MultiQuery
		if c.all {
			call = s.MultiQueryAll
		}
		res, _, err := call(c.batch)
		if (err == nil) != c.ok {
			t.Fatalf("batch %v: err %v", c.batch, err)
		}
		got := rec.blocks[before:]
		if c.block == nil {
			if len(got) != 0 {
				t.Errorf("batch %v: PrepareBlock handed %d blocks, want none", c.batch, len(got))
			}
		} else if len(got) != 1 || len(got[0]) != len(c.block) {
			t.Errorf("batch %v: PrepareBlock handed %d blocks (%v), want one of %v", c.batch, len(got), got, c.block)
		} else {
			for i, id := range c.block {
				if &got[0][i][0] != &q(id).Vec[0] {
					t.Errorf("batch %v: block member %d is not query %d", c.batch, i, id)
				}
			}
		}
		for i := 0; c.ok && i < len(c.batch) && (i == 0 || c.all); i++ {
			if want := brute(items, metric, c.batch[i].Vec, knn); !sameAnswers(res[i].Answers(), want) {
				t.Errorf("batch %v: wrong answers for query %d", c.batch, c.batch[i].ID)
			}
		}
		for _, v := range s.blockQs[:cap(s.blockQs)] {
			if v != nil {
				t.Fatalf("batch %v: the session's scratch keeps a vector", c.batch)
			}
		}
		for _, pq := range s.blockPQs[:cap(s.blockPQs)] {
			if pq != nil {
				t.Fatalf("batch %v: the session's scratch keeps a handle", c.batch)
			}
		}
	}
}

// TestRecycledStateIsNeverStale: a completed query's state is taken by the
// next query that enters, and nothing that could still reach it under its
// old ID does. Query 0 completes; the window slides, query 4 enters on its
// state and query 1 completes; that batch comes back, query 1 at its front,
// where the window hint looks and where query 1's state, retired as the call
// begins, still sits; query 0 comes back at the front (answered from the
// buffer, no page read) and at a later position; and query 0 with another
// vector or type is refused, at the front and later, with the error it
// always got, every bare state of the refused call back on the free list
// exactly once. Every answer equals brute force.
func TestRecycledStateIsNeverStale(t *testing.T) {
	const dim = 4
	items := testDB(38, 300, dim)
	metric := vec.Euclidean{}
	proc, err := New(xtreeEngine(t, items, dim), metric, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := proc.NewSession()
	eps := query.NewRange(0.3)
	q := func(i int) Query { return Query{ID: uint64(i), Vec: items[i].Vec, Type: eps} }
	call := func(name string, all bool, batch ...Query) ([]*query.AnswerList, Stats) {
		t.Helper()
		res, st, err := s.MultiQuery(batch)
		if all {
			res, st, err = s.MultiQueryAll(batch)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, b := range batch {
			if i > 0 && !all {
				break
			}
			if want := brute(items, metric, b.Vec, b.Type); !sameAnswers(res[i].Answers(), want) {
				t.Errorf("%s: query %d: wrong answers", name, b.ID)
			}
		}
		checkSpare(t, s)
		return slices.Clone(res), st
	}

	res, _ := call("complete query 0", false, q(0), q(1), q(2), q(3))
	list0, state0 := res[0], s.batch[0]
	window := []Query{q(1), q(2), q(3), q(4)}
	res, _ = call("query 4 enters", false, window...)
	list1 := res[0]
	if stateOf(s, 4) != state0 || stateOf(s, 0) != nil || s.completed[0] != list0 {
		t.Fatalf("query 4 did not take query 0's state, or query 0 left the registry")
	}
	if state0.answers == list0 || !sameArray(list0.Object(), items[0].Vec) {
		t.Fatalf("the recycled state still holds query 0's list, or the list lost its query")
	}

	res, st := call("the previous batch", false, window...)
	if st != (Stats{}) || res[0] != list1 {
		t.Errorf("query 1 at the front: stats %+v, the buffered list %v", st, res[0] == list1)
	}
	res, st = call("query 0 at the front", false, q(0), q(2), q(3), q(4))
	if st != (Stats{}) || res[0] != list0 {
		t.Errorf("query 0 at the front: stats %+v, the buffered list %v", st, res[0] == list0)
	}
	res, st = call("query 0 behind a new query", true, q(5), q(0), q(4), q(1))
	if res[1] != list0 || res[3] != list1 || st.PagesRead == 0 {
		t.Errorf("queries 0 and 1 behind new ones: the buffered lists %v %v, %d pages read", res[1] == list0, res[3] == list1, st.PagesRead)
	}

	moved, retyped := q(0), q(0)
	moved.Vec = items[9].Vec
	retyped.Type = query.NewKNN(3)
	want := "msq: query ID 0 reused with a different object or type"
	for _, bad := range []Query{moved, retyped} {
		for _, pos := range []int{0, 2} {
			batch := []Query{q(20), q(21), q(22)}
			batch = slices.Insert(batch, pos, bad)
			ids, held := registered(s), len(heldStates(s))+len(s.spare)
			for range 2 {
				_, st, err := s.MultiQuery(batch)
				if err == nil || err.Error() != want || st != (Stats{}) {
					t.Fatalf("query 0 with %v at %d: err %v, stats %+v", bad.Type, pos, err, st)
				}
				checkSpare(t, s)
				if registered(s) != ids || stateOf(s, 20) != nil || stateOf(s, 0) != nil || s.completed[0] != list0 {
					t.Fatalf("the refused call changed the registry")
				}
				// The second refusal takes the states the first one gave back.
				if pos == 0 && len(heldStates(s))+len(s.spare) != held {
					t.Fatalf("%d states held, %d before", len(heldStates(s))+len(s.spare), held)
				}
				held = len(heldStates(s)) + len(s.spare)
			}
		}
	}
	call("the refused queries", true, q(20), q(0), q(21), q(22), q(4))
}

// TestStagedAcceptsMatchPerAccept: a live page pass stages a range query's
// accepts and lands them once per page; the processor's perAccept switch
// sends each to its list at once instead. On every engine, for batches of
// range, k-NN and bounded k-NN queries through the row body (AvoidOff, 12
// wide on the scan's pages), the item body (AvoidOff, 5 wide) and the pair
// body (AvoidBoth), with the seed pages of the k-NN queries that ride along,
// both must give the same answers with the same distance bits, partial
// lists included, the same Stats call for call and the same EXPLAIN
// profiles.
func TestStagedAcceptsMatchPerAccept(t *testing.T) {
	const dim = 4
	items := testDB(39, 400, dim)
	metric := vec.Euclidean{}
	types := []query.Type{query.NewRange(0.3), query.NewKNN(6), query.NewRange(0.45), query.NewBoundedKNN(4, 0.4), query.NewRange(0.2)}
	batch := func(m int) []Query {
		qs := make([]Query, m)
		for i := range qs {
			qs[i] = Query{ID: uint64(i), Vec: items[(31*i+7)%len(items)].Vec, Type: types[i%len(types)]}
		}
		return qs
	}
	type run struct {
		answers  [][]query.Answer
		stats    []Stats
		profiles []Profile
	}
	for _, mk := range diffMakers() {
		for _, body := range []struct {
			name string
			mode AvoidanceMode
			m    int
		}{{"rows", AvoidOff, 12}, {"items", AvoidOff, 5}, {"pairs", AvoidBoth, 9}} {
			t.Run(mk.name+"/"+body.name, func(t *testing.T) {
				do := func(perAccept bool) run {
					proc, err := New(mk.make(t, items, dim, metric), metric, Options{Avoidance: body.mode})
					if err != nil {
						t.Fatal(err)
					}
					proc.perAccept = perAccept
					s := proc.NewSession()
					qs := batch(body.m + 3)
					var r run
					for from := 0; from <= 3; from++ {
						window := qs[from : from+body.m]
						res, st, err := s.MultiQuery(window)
						if err != nil {
							t.Fatal(err)
						}
						r.stats = append(r.stats, st)
						for _, l := range res {
							r.answers = append(r.answers, slices.Clone(l.Answers()))
						}
					}
					ex, err := s.ExplainAllContext(context.Background(), qs)
					if err != nil {
						t.Fatal(err)
					}
					r.stats, r.profiles = append(r.stats, ex.Stats), ex.Queries
					for _, q := range qs {
						r.answers = append(r.answers, slices.Clone(listOf(s, q.ID).Answers()))
					}
					return r
				}
				staged, each := do(false), do(true)
				if diag, ok := identicalAnswers(each.answers, staged.answers); !ok {
					t.Fatalf("answers: %s", diag)
				}
				for i := range each.answers {
					for j := range each.answers[i] {
						if math.Float64bits(each.answers[i][j].Dist) != math.Float64bits(staged.answers[i][j].Dist) {
							t.Fatalf("list %d answer %d: distance bits differ", i, j)
						}
					}
				}
				if !slices.Equal(each.stats, staged.stats) {
					t.Errorf("stats: staged %+v, per accept %+v", staged.stats, each.stats)
				}
				if !slices.Equal(each.profiles, staged.profiles) {
					t.Errorf("EXPLAIN profiles: staged %+v, per accept %+v", staged.profiles, each.profiles)
				}
				if len(each.answers[len(each.answers)-1]) == 0 {
					t.Error("the last query has no answers: the comparison is thin")
				}
			})
		}
	}
}
