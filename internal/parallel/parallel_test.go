package parallel

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metricdb/internal/dataset"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

func TestDecluster(t *testing.T) {
	items := dataset.Uniform(1, 100, 3)
	for _, strategy := range []Strategy{RoundRobin, RandomAssign, RangePartition} {
		parts, err := Decluster(items, 4, strategy, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != 4 {
			t.Fatalf("%v: %d partitions", strategy, len(parts))
		}
		seen := make(map[store.ItemID]bool)
		total := 0
		for _, p := range parts {
			total += len(p)
			for _, it := range p {
				if seen[it.ID] {
					t.Fatalf("%v: item %d assigned twice", strategy, it.ID)
				}
				seen[it.ID] = true
			}
		}
		if total != 100 {
			t.Fatalf("%v: %d items after declustering", strategy, total)
		}
	}

	// Round-robin and range partitions must be balanced.
	for _, strategy := range []Strategy{RoundRobin, RangePartition} {
		parts, err := Decluster(items, 4, strategy, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range parts {
			if len(p) != 25 {
				t.Errorf("%v partition %d has %d items", strategy, i, len(p))
			}
		}
	}

	if _, err := Decluster(items, 0, RoundRobin, 0); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := Decluster(items, 2, Strategy(99), 0); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || RandomAssign.String() != "random" || RangePartition.String() != "range" {
		t.Error("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy has no diagnostic string")
	}
}

func TestNewValidation(t *testing.T) {
	items := dataset.Uniform(2, 50, 3)
	if _, err := New(items, Config{Servers: 2, Dim: 3, PageCapacity: 0}); err == nil {
		t.Error("zero page capacity accepted")
	}
	if _, err := New(items, Config{Servers: 2, Dim: 0, PageCapacity: 8}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := New(items, Config{Servers: 0, Dim: 3, PageCapacity: 8}); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := New(items, Config{Servers: 2, Dim: 3, PageCapacity: 8, Engine: engines.Kind("bogus")}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := New(items, Config{Servers: 2, Dim: 3, PageCapacity: 8, Avoidance: msq.AvoidanceMode(9)}); err == nil {
		t.Error("unknown avoidance mode accepted")
	}
	if _, err := New(items, Config{Servers: 2, Dim: 3, PageCapacity: 8, FanOut: FanOut{Retries: -1}}); err == nil {
		t.Error("negative retries accepted")
	}
	if _, err := NewCluster(nil, FanOut{}); err == nil {
		t.Error("cluster without servers accepted")
	}
}

// TestParallelMatchesSequential is the correctness core: merged parallel
// answers equal a sequential evaluation over the whole database, for both
// engines and several server counts.
func TestParallelMatchesSequential(t *testing.T) {
	const dim = 4
	items := dataset.Uniform(3, 500, dim)

	// Sequential reference.
	seqEngine, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	seqProc, err := msq.New(seqEngine, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}

	queries := make([]msq.Query, 8)
	qItems, err := dataset.SampleQueries(4, items, len(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range qItems {
		typ := query.NewKNN(6)
		if i%2 == 1 {
			typ = query.NewRange(0.4)
		}
		queries[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: typ}
	}
	want, _, err := seqProc.MultiQuery(queries)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []engines.Kind{engines.Scan, engines.XTree} {
		for _, s := range []int{1, 3, 4} {
			c, err := New(items, Config{
				Servers: s, Strategy: RoundRobin, Engine: kind,
				Dim: dim, PageCapacity: 16, BufferPages: 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.Servers() != s {
				t.Fatalf("Servers() = %d", c.Servers())
			}
			got, rep, err := c.MultiQueryAll(queries)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.PerServer) != s {
				t.Fatalf("report covers %d servers", len(rep.PerServer))
			}
			for qi := range queries {
				w, g := want[qi].Answers(), got[qi].Answers()
				if len(w) != len(g) {
					t.Fatalf("engine %s s=%d query %d: %d vs %d answers", kind, s, qi, len(g), len(w))
				}
				for j := range w {
					if w[j].ID != g[j].ID || math.Abs(w[j].Dist-g[j].Dist) > 1e-12 {
						t.Fatalf("engine %s s=%d query %d answer %d differs", kind, s, qi, j)
					}
				}
			}
		}
	}
}

func TestPerServerWorkShrinksWithServers(t *testing.T) {
	const dim = 6
	items := dataset.Uniform(5, 1200, dim)
	queries := make([]msq.Query, 10)
	qItems, err := dataset.SampleQueries(6, items, len(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range qItems {
		queries[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: query.NewKNN(5)}
	}

	run := func(s int) Report {
		c, err := New(items, Config{
			Servers: s, Strategy: RoundRobin, Engine: engines.Scan,
			Dim: dim, PageCapacity: 16, BufferPages: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := c.MultiQueryAll(queries)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	r1 := run(1)
	r4 := run(4)
	if r4.MaxPagesRead() >= r1.MaxPagesRead() {
		t.Errorf("busiest of 4 servers read %d pages, single server %d", r4.MaxPagesRead(), r1.MaxPagesRead())
	}
	if r4.MaxDistCalcs() >= r1.MaxDistCalcs() {
		t.Errorf("busiest of 4 servers computed %d distances, single server %d", r4.MaxDistCalcs(), r1.MaxDistCalcs())
	}
	// Total scan work is conserved across servers (same pages overall,
	// ± page-boundary rounding).
	if sum1, sum4 := r1.Sum().Query.PagesRead, r4.Sum().Query.PagesRead; absDiff(sum1, sum4) > 8 {
		t.Errorf("total pages: 1 server %d, 4 servers %d", sum1, sum4)
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestSingle(t *testing.T) {
	const dim = 3
	items := dataset.Uniform(7, 300, dim)
	c, err := New(items, Config{
		Servers: 3, Strategy: RangePartition, Engine: engines.XTree,
		Dim: dim, PageCapacity: 16, BufferPages: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := items[42].Vec
	res, _, err := c.Single(q, query.NewKNN(1))
	if err != nil {
		t.Fatal(err)
	}
	as := res.Answers()
	if len(as) != 1 || as[0].ID != 42 || as[0].Dist != 0 {
		t.Errorf("1-NN of a stored object = %+v", as)
	}
}

func TestReportSum(t *testing.T) {
	r := Report{PerServer: []ServerStats{
		{Query: msq.Stats{PagesRead: 3, DistCalcs: 10}, IO: store.IOStats{Reads: 3}},
		{Query: msq.Stats{PagesRead: 5, DistCalcs: 20}, IO: store.IOStats{Reads: 5}},
	}}
	sum := r.Sum()
	if sum.Query.PagesRead != 8 || sum.Query.DistCalcs != 30 || sum.IO.Reads != 8 {
		t.Errorf("Sum = %+v", sum)
	}
	if r.MaxPagesRead() != 5 {
		t.Errorf("MaxPagesRead = %d", r.MaxPagesRead())
	}
	if r.MaxDistCalcs() != 20 {
		t.Errorf("MaxDistCalcs = %d", r.MaxDistCalcs())
	}
}

// fake is a scripted Server for the fan-out's unit tests: it answers from
// its items by brute force, and its script decides each attempt's fate.
type fake struct {
	items []store.Item
	// fail returns the n-th attempt's error (n counts from 1), nil to
	// answer; a nil fail answers every attempt.
	fail func(n int) error
	// hang blocks every attempt until its context is done.
	hang bool

	calls    atomic.Int32
	returned atomic.Int32 // attempts whose Call has returned
}

func (f *fake) Call(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, ServerStats, error) {
	defer f.returned.Add(1)
	n := int(f.calls.Add(1))
	if f.hang {
		<-ctx.Done()
		return nil, ServerStats{}, ctx.Err()
	}
	if f.fail != nil {
		if err := f.fail(n); err != nil {
			return nil, ServerStats{}, err
		}
	}
	return bruteForce(f.items, queries), ServerStats{Query: msq.Stats{Queries: int64(len(queries)), PagesRead: int64(len(f.items))}}, nil
}

func bruteForce(items []store.Item, queries []msq.Query) []*query.AnswerList {
	lists := make([]*query.AnswerList, len(queries))
	for i, q := range queries {
		lists[i] = query.NewAnswerList(q.Type)
		for _, it := range items {
			lists[i].Consider(it.ID, vec.Euclidean{}.Distance(q.Vec, it.Vec))
		}
	}
	return lists
}

var errDown = errors.New("server down")

func always(err error) func(int) error { return func(int) error { return err } }

// fakeCluster declusters a small dataset round-robin over len(fails)
// scripted servers, server i failing by fails[i] (nil: healthy), and
// returns it with a mixed k-NN/range batch.
func fakeCluster(t *testing.T, cfg FanOut, fails ...func(int) error) (*Cluster, []*fake, []store.Item, []msq.Query) {
	t.Helper()
	items := dataset.Uniform(21, 200, 3)
	parts, err := Decluster(items, len(fails), RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	fakes := make([]*fake, len(fails))
	servers := make([]Server, len(fails))
	for i := range fails {
		fakes[i] = &fake{items: parts[i], fail: fails[i]}
		servers[i] = fakes[i]
	}
	c, err := NewCluster(servers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := []msq.Query{
		{ID: 1, Vec: items[3].Vec, Type: query.NewKNN(5)},
		{ID: 2, Vec: items[50].Vec, Type: query.NewRange(0.3)},
	}
	return c, fakes, items, queries
}

func sameAnswers(t *testing.T, got []*query.AnswerList, want []*query.AnswerList) {
	t.Helper()
	for qi := range want {
		g, w := got[qi].Answers(), want[qi].Answers()
		if len(g) != len(w) {
			t.Fatalf("query %d: %d answers, want %d", qi, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("query %d answer %d = %+v, want %+v", qi, j, g[j], w[j])
			}
		}
	}
}

// TestDegradedMerge: with one of four servers failing every attempt, the
// fan-out merges the other three (coverage 3/4), records each server's
// health, and the report's note and summed stats carry the contract.
func TestDegradedMerge(t *testing.T) {
	c, _, items, queries := fakeCluster(t, FanOut{Degrade: true, Retries: 1}, nil, always(errDown), nil, nil)
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatalf("degraded cluster errored: %v", err)
	}
	if !rep.Degraded || rep.Servers != 4 || rep.Covered != 3 || rep.Coverage() != 0.75 {
		t.Fatalf("coverage: degraded=%v servers=%d covered=%d", rep.Degraded, rep.Servers, rep.Covered)
	}
	if !strings.Contains(rep.Note(), "3/4") || !strings.Contains(rep.Note(), "sound subset") {
		t.Errorf("note = %q", rep.Note())
	}
	for i, s := range rep.PerServer {
		h := s.Health
		if i == 1 {
			if h.OK || h.Attempts != 2 || h.Err != errDown.Error() {
				t.Errorf("server 1 health = %+v, want 2 failed attempts", h)
			}
		} else if !h.OK || h.Attempts != 1 || h.Err != "" || h.Latency <= 0 {
			t.Errorf("server %d health = %+v", i, h)
		}
	}
	var covered []store.Item
	for i, it := range items {
		if i%4 != 1 {
			covered = append(covered, it)
		}
	}
	sameAnswers(t, got, bruteForce(covered, queries))
	sum := rep.Sum()
	if !sum.Query.Degraded || sum.Query.PartitionsTotal != 4 || sum.Query.PartitionsAnswered != 3 ||
		sum.Query.Coverage() != 0.75 || sum.Query.PagesRead != int64(len(covered)) {
		t.Errorf("summed stats = %+v", sum.Query)
	}
}

// TestStrictModeFailsFast: without Degrade, one failing server fails the
// whole operation, and the error names it.
func TestStrictModeFailsFast(t *testing.T) {
	c, _, _, queries := fakeCluster(t, FanOut{}, nil, nil, always(errDown), nil)
	_, _, err := c.MultiQueryAll(queries)
	if !errors.Is(err, errDown) || !strings.Contains(err.Error(), "server 2") {
		t.Fatalf("strict cluster returned %v", err)
	}
}

// TestAllServersFailingErrorsEvenWhenDegraded: coverage 0 is an error, not
// an empty result.
func TestAllServersFailingErrorsEvenWhenDegraded(t *testing.T) {
	c, _, _, queries := fakeCluster(t, FanOut{Degrade: true}, always(errDown), always(errDown))
	if _, _, err := c.MultiQueryAll(queries); err == nil {
		t.Fatal("cluster with zero coverage returned a result")
	}
}

// refusal is an error carrying its own retry policy, as a remote server's
// coded refusal does.
type refusal struct {
	retryable bool
	after     time.Duration
	trips     bool
}

func (r refusal) Error() string { return "refused" }
func (r refusal) Classify() (bool, time.Duration, bool) {
	return r.retryable, r.after, r.trips
}

// TestRetryRecoversTransientFaults: failures the retries outlast leave a
// complete result; an error whose policy says another attempt cannot help
// is not retried, and a retry-after hint is waited out first.
func TestRetryRecoversTransientFaults(t *testing.T) {
	transient := func(n int) error {
		if n <= 2 {
			return errDown
		}
		return nil
	}
	c, _, items, queries := fakeCluster(t, FanOut{Retries: 3}, transient, nil)
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.Coverage() != 1 || rep.PerServer[0].Health.Attempts != 3 {
		t.Fatalf("transient faults: %+v", rep)
	}
	sameAnswers(t, got, bruteForce(items, queries))

	c, fakes, _, _ := fakeCluster(t, FanOut{Retries: 3}, always(refusal{}), nil)
	if _, _, err := c.MultiQueryAll(queries); err == nil || fakes[0].calls.Load() != 1 {
		t.Fatalf("final refusal: err %v after %d attempts, want 1", err, fakes[0].calls.Load())
	}

	const hint = 30 * time.Millisecond
	shed := func(n int) error {
		if n == 1 {
			return refusal{retryable: true, after: hint, trips: true}
		}
		return nil
	}
	c, _, _, _ = fakeCluster(t, FanOut{Retries: 1}, shed)
	start := time.Now()
	if _, rep, err := c.MultiQueryAll(queries); err != nil || rep.PerServer[0].Health.Attempts != 2 {
		t.Fatalf("overload then answer: %v, %+v", err, rep.PerServer[0].Health)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("retried after %v, before the %v retry-after hint", elapsed, hint)
	}
}

// TestServerTimeout: an attempt that outlives the per-attempt timeout is
// abandoned as a failure — here on every server, which is an error even in
// degraded mode — and its context is cancelled, so it returns.
func TestServerTimeout(t *testing.T) {
	hung := []*fake{{hang: true}, {hang: true}}
	c, err := NewCluster([]Server{hung[0], hung[1]}, FanOut{Degrade: true, Retries: 1, Timeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := c.MultiQueryAll([]msq.Query{{ID: 1, Vec: vec.Vector{0, 0, 0}, Type: query.NewKNN(3)}})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("timeout did not surface: %v", err)
	}
	for i, f := range hung {
		if h := rep.PerServer[i].Health; h.Attempts != 2 {
			t.Errorf("server %d health = %+v, want 2 timed-out attempts", i, h)
		}
		deadline := time.Now().Add(5 * time.Second)
		for f.returned.Load() != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("server %d: %d of 2 abandoned attempts returned", i, f.returned.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
}
