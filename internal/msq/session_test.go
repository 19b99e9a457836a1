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
	st := d.s.states[id]
	return st != nil && st.done
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
		st := d.s.states[q.ID]
		if st.done {
			if st.slot != noSlot {
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
	states, live := len(d.s.states), d.s.matrix.live
	holders := append([]*queryState(nil), d.s.matrix.holder...)
	if _, st, err := d.call(context.Background(), batch, all); err == nil || st != (Stats{}) {
		d.t.Fatalf("ID reuse with a different object: err %v, stats %+v", err, st)
	}
	if len(d.s.states) != states || d.s.matrix.live != live {
		d.t.Fatalf("rejected call left %d states (%d before), %d live slots (%d before)", len(d.s.states), states, d.s.matrix.live, live)
	}
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

// TestSessionMatrixAgainstBruteForce drives sessions through random call
// sequences — sliding windows, a query that leaves and returns, completed
// queries resubmitted, MultiQuery and MultiQueryAll interleaved, batches
// that shrink and grow, refused calls, canceled calls — and checks after
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
			for _, width := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%v/width%d", mk.name, mode, width), func(t *testing.T) {
					proc, err := New(mk.make(t, items, dim, metric), metric, Options{Avoidance: mode, Concurrency: width})
					if err != nil {
						t.Fatal(err)
					}
					d := &sessionDriver{
						t: t, rng: rand.New(rand.NewSource(int64(width)*100 + int64(mode))),
						items: items, metric: metric, mode: mode, proc: proc, s: proc.NewSession(),
						paid: map[[2]uint64]bool{}, held: map[uint64]bool{}, want: map[uint64][]query.Answer{},
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
// long sliding-window session, what a completed query still holds is its
// query and its answers, and the matrix is as wide as the window.
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
	}
	if len(s.matrix.rows) != m {
		t.Errorf("matrix is %d wide after %d steps, window of %d", len(s.matrix.rows), steps, m)
	}
	completed := 0
	for id, st := range s.states {
		if !st.done {
			continue
		}
		completed++
		if st.processed != nil || st.pq != nil || st.slot != noSlot {
			t.Fatalf("completed query %d still holds page set %v, prepared %v, slot %d", id, st.processed != nil, st.pq != nil, st.slot)
		}
		if st.answers == nil || !st.q.Vec.Equal(items[id].Vec) {
			t.Fatalf("completed query %d lost its query or its answers", id)
		}
	}
	if completed != steps {
		t.Errorf("%d completed queries, want %d", completed, steps)
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
		states, live, paid := len(s.states), s.matrix.live, pivots.PivotDistCalcs()
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
		if len(s.states) != states || s.matrix.live != live {
			t.Errorf("%s: %d states and %d live slots after, %d and %d before", name, len(s.states), s.matrix.live, states, live)
		}
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
	if len(s.states) != 5 {
		t.Errorf("%d states in the registry, want 5", len(s.states))
	}
	again, st, err := s.MultiQueryAll(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.PivotDistCalcs != 0 || len(s.states) != 5 {
		t.Errorf("repeating the window paid %d pivot distances and left %d states", st.PivotDistCalcs, len(s.states))
	}
	for i, q := range batch {
		if again[i] != res[i] || s.states[q.ID] != s.batch[i] {
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
			if st := held(s.batch, i, uint64(i+1)); st == nil || st != s.states[uint64(i+1)] {
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
			states := len(s.states)
			res, st, err := s.MultiQuery(c.batch)
			if !c.ok {
				if err == nil || len(s.states) != states {
					t.Errorf("%s: err %v, %d states after and %d before", name, err, len(s.states), states)
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
				if res[i] != s.states[q.ID].answers {
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
		if first[i] != s.states[uint64(3+i)].answers || first[i] == held[i] {
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
// left belongs to the query that enters:
//
//  1. its state (queryState);
//  2. its answer list;
//  3. the list's one answer (ε is far below the gap between two items,
//     so each query finds only its own object);
//  4. its prepared handle (xtree.Prepare);
//  5. its page set;
//  6. the plan of the call it completes in (xtree's Plan allocates its refs).
//
// Nothing scales with m, and neither the slice of answer lists the call
// returns, which is session scratch, nor a page read's singleflight record,
// which the pager reuses when nobody waited on it, is among them. The
// registry map's growth is amortised below one allocation a call.
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
	if got := testing.AllocsPerRun(1000, slide); got != 6 {
		t.Errorf("%v allocations a call, want 6", got)
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
