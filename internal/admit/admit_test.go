package admit_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// testDB builds a deterministic uniform dataset.
func testDB(seed int64, n, dim int) []store.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]store.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v}
	}
	return items
}

// slowMetric delays every distance evaluation, making block execution take
// long enough for tests to pile submissions up behind the former
// deterministically.
type slowMetric struct {
	delay time.Duration
}

func (m slowMetric) Distance(a, b vec.Vector) float64 {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	return vec.Euclidean{}.Distance(a, b)
}

func (slowMetric) Name() string { return "slow-euclidean" }

func newProc(t *testing.T, items []store.Item, m vec.Metric) *msq.Processor {
	t.Helper()
	e, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(e, m, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func testQueries(seed int64, n, dim int) []msq.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]msq.Query, n)
	for i := range qs {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		// Deliberately reuse one caller-side ID for every query: independent
		// callers pick IDs freely, and the controller must renumber.
		qs[i] = msq.Query{ID: 7, Vec: v, Type: query.NewKNN(5)}
	}
	return qs
}

func sameAnswers(a, b []query.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestBitIdentityAndBatching drives concurrent submissions through the
// controller and checks the tentpole contract: every admitted answer is
// bit-identical to the unbatched sequential evaluation of the same query,
// and independent callers actually get grouped into blocks wider than one.
func TestBitIdentityAndBatching(t *testing.T) {
	const n, dim, m = 1024, 8, 24
	items := testDB(1, n, dim)
	proc := newProc(t, items, vec.Euclidean{})
	ctl, err := admit.New(proc, admit.Config{
		MaxWait:  50 * time.Millisecond,
		MaxWidth: 8,
		Pressure: func() float64 { return 1 }, // always aim for MaxWidth
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	queries := testQueries(2, m, dim)
	type out struct {
		answers []query.Answer
		width   int
		err     error
	}
	results := make([]out, m)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, _, w, _, err := ctl.Submit(context.Background(), queries[i])
			results[i] = out{answers: a, width: w, err: err}
		}(i)
	}
	wg.Wait()

	maxWidth := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("query %d: %v", i, r.err)
		}
		ref, _, err := proc.Single(queries[i].Vec, queries[i].Type)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(r.answers, ref.Answers()) {
			t.Fatalf("query %d: batched answers differ from sequential reference", i)
		}
		if r.width > maxWidth {
			maxWidth = r.width
		}
	}
	if maxWidth <= 1 {
		t.Fatalf("no cross-caller batch formed: max width %d, want > 1", maxWidth)
	}
	if got := ctl.Admitted(); got != m {
		t.Fatalf("admitted %d, want %d", got, m)
	}
	if avg := ctl.AvgWidth(); avg <= 1 {
		t.Fatalf("achieved mean width %.2f, want > 1", avg)
	}
}

// TestQueueFullShed fills the bounded queue while the former is stuck in a
// slow block and checks the overflow submission is shed before any work,
// with a positive retry-after hint.
func TestQueueFullShed(t *testing.T) {
	const dim = 4
	items := testDB(3, 256, dim)
	proc := newProc(t, items, slowMetric{delay: 50 * time.Microsecond})
	ctl, err := admit.New(proc, admit.Config{
		MaxQueue: 2,
		MaxWait:  time.Nanosecond, // release blocks immediately
		MaxWidth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	queries := testQueries(4, 16, dim)
	var wg sync.WaitGroup
	sawFull := make(chan *admit.Overload, 16)
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, _, err := ctl.Submit(context.Background(), queries[i])
			var ov *admit.Overload
			switch {
			case errors.As(err, &ov) && ov.Reason == admit.ReasonQueueFull:
				sawFull <- ov
			case errors.As(err, &ov) && ov.Reason == admit.ReasonDeadline:
				// 16 slow queries through a 1-wide former can also outrun
				// the default SLO budget; a structured deadline shed is a
				// correct outcome here, just not the one being counted.
			case err != nil:
				t.Errorf("query %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(sawFull)
	shed := 0
	for ov := range sawFull {
		shed++
		if ov.RetryAfter <= 0 {
			t.Fatalf("queue-full shed without retry-after hint: %v", ov)
		}
	}
	if shed == 0 {
		t.Fatal("16 submissions through a 2-slot queue with a slow engine: expected at least one queue_full shed")
	}
	full, _, _ := ctl.ShedByReason()
	if full != int64(shed) {
		t.Fatalf("ShedByReason queue_full = %d, want %d", full, shed)
	}
}

// TestDeadlineShed submits with a hopeless SLO budget and checks the
// request is shed with ReasonDeadline instead of being executed late.
func TestDeadlineShed(t *testing.T) {
	const dim = 4
	items := testDB(5, 128, dim)
	proc := newProc(t, items, vec.Euclidean{})
	ctl, err := admit.New(proc, admit.Config{DefaultSLO: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	q := testQueries(6, 1, dim)[0]
	_, _, _, _, err = ctl.Submit(context.Background(), q)
	var ov *admit.Overload
	if !errors.As(err, &ov) || ov.Reason != admit.ReasonDeadline {
		t.Fatalf("got %v, want Overload(deadline)", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("deadline shed without retry-after hint: %v", ov)
	}
	if _, dl, _ := ctl.ShedByReason(); dl != 1 {
		t.Fatalf("ShedByReason deadline = %d, want 1", dl)
	}
}

// TestCanceledContext checks a submission abandoned by its caller returns
// the context error and is not counted admitted.
func TestCanceledContext(t *testing.T) {
	const dim = 4
	items := testDB(7, 128, dim)
	proc := newProc(t, items, slowMetric{delay: 20 * time.Microsecond})
	ctl, err := admit.New(proc, admit.Config{MaxWait: time.Nanosecond, MaxWidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// Occupy the former with a real query, then cancel a queued one.
	var wg sync.WaitGroup
	queries := testQueries(8, 2, dim)
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctl.Submit(context.Background(), queries[0]) //nolint:errcheck
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, _, err = ctl.Submit(ctx, queries[1])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	wg.Wait()
}

// TestCloseSheds checks Submit after Close is shed with ReasonShutdown and
// that Close is idempotent.
func TestCloseSheds(t *testing.T) {
	const dim = 4
	items := testDB(9, 128, dim)
	proc := newProc(t, items, vec.Euclidean{})
	ctl, err := admit.New(proc, admit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := testQueries(10, 1, dim)[0]
	if _, _, _, _, err := ctl.Submit(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	ctl.Close()
	ctl.Close() // idempotent
	_, _, _, _, err = ctl.Submit(context.Background(), q)
	var ov *admit.Overload
	if !errors.As(err, &ov) || ov.Reason != admit.ReasonShutdown {
		t.Fatalf("got %v, want Overload(shutting_down)", err)
	}
}

// TestConfigValidation checks bad configs are rejected up front.
func TestConfigValidation(t *testing.T) {
	proc := newProc(t, testDB(11, 64, 4), vec.Euclidean{})
	for _, cfg := range []admit.Config{
		{MaxQueue: -1},
		{MaxWait: -time.Second},
	} {
		if _, err := admit.New(proc, cfg); err == nil {
			t.Fatalf("config %+v accepted, want error", cfg)
		}
	}
	if _, err := admit.New(nil, admit.Config{}); err == nil {
		t.Fatal("nil processor accepted, want error")
	}
}

// TestInvalidQuery checks Submit validates before queueing: a query the
// processor would reject — here also one of the wrong dimension, which
// would fail its whole block — never counts as submitted.
func TestInvalidQuery(t *testing.T) {
	proc := newProc(t, testDB(12, 64, 4), vec.Euclidean{})
	ctl, err := admit.New(proc, admit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	for name, q := range map[string]msq.Query{
		"zero":      {},
		"wrong dim": {Vec: vec.Vector{1, 2}, Type: query.NewKNN(3)},
		"nan":       {Vec: vec.Vector{0, 0, math.NaN(), 0}, Type: query.NewKNN(3)},
	} {
		if _, _, _, _, err := ctl.Submit(context.Background(), q); err == nil {
			t.Errorf("%s query admitted, want validation error", name)
		}
	}
	if n := ctl.Submitted(); n != 0 {
		t.Errorf("%d rejected queries counted as submitted", n)
	}
}

// TestBlockObserver wires the observer in: every successfully executed
// block must reach it with its queries and stats.
func TestBlockObserver(t *testing.T) {
	const n, dim, m = 512, 8, 12
	items := testDB(3, n, dim)
	proc := newProc(t, items, vec.Euclidean{})

	var mu sync.Mutex
	var observedQueries, observedBatches int
	ctl, err := admit.New(proc, admit.Config{
		MaxWait:  20 * time.Millisecond,
		MaxWidth: 4,
		BlockObserver: func(qs []msq.Query, stats msq.Stats, elapsed time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			observedBatches++
			observedQueries += len(qs)
			if stats.PagesRead == 0 {
				t.Error("observer saw a block with zero pages read")
			}
			if elapsed <= 0 {
				t.Error("observer saw a non-positive elapsed time")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := testQueries(4, m, dim)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, _, _, err := ctl.Submit(context.Background(), queries[i]); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	ctl.Close()
	mu.Lock()
	defer mu.Unlock()
	if observedQueries != m {
		t.Fatalf("observer saw %d queries, want %d", observedQueries, m)
	}
	if observedBatches == 0 {
		t.Fatal("observer saw no batches")
	}
}
