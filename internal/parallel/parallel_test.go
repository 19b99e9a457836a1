package parallel

import (
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"metricdb/internal/dataset"
	"metricdb/internal/fault"
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
	if _, err := New(items, Config{Servers: 2, Dim: 3, PageCapacity: 8, Engine: EngineKind("bogus")}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := New(items, Config{Servers: 2, Dim: 3, PageCapacity: 8, Avoidance: msq.AvoidanceMode(9)}); err == nil {
		t.Error("unknown avoidance mode accepted")
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

	for _, kind := range []EngineKind{ScanEngine, XTreeEngine} {
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
			Servers: s, Strategy: RoundRobin, Engine: ScanEngine,
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
		Servers: 3, Strategy: RangePartition, Engine: XTreeEngine,
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

// degradedFixture builds a 4-server cluster whose given servers sit on
// permanently failing disks, plus a batch of mixed queries and the
// fault-free reference answers. The items are returned too so tests can
// brute-force per-partition references (round-robin: item i lives on
// server i%4).
func degradedFixture(t *testing.T, failServers map[int]bool, cfg Config) (*Cluster, []msq.Query, []*query.AnswerList, []store.Item) {
	t.Helper()
	const dim = 4
	items := dataset.Uniform(21, 400, dim)
	queries := make([]msq.Query, 6)
	qItems, err := dataset.SampleQueries(22, items, len(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range qItems {
		typ := query.NewKNN(5)
		if i%2 == 1 {
			typ = query.NewRange(0.4)
		}
		queries[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: typ}
	}

	base := cfg
	base.Servers = 4
	base.Strategy = RoundRobin
	base.Engine = ScanEngine
	base.Dim = dim
	base.PageCapacity = 16
	base.BufferPages = 0

	clean := base
	clean.WrapDisk = nil
	ref, err := New(items, clean)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}

	base.WrapDisk = func(server int, src store.PageSource) (store.PageSource, error) {
		if !failServers[server] {
			return src, nil
		}
		return fault.Wrap(src, fault.Config{Seed: int64(server), ErrProb: 1})
	}
	c, err := New(items, base)
	if err != nil {
		t.Fatal(err)
	}
	return c, queries, want, items
}

// TestDegradedMerge is the acceptance scenario: with faults injected into
// 1 of s=4 servers, a batch returns a degraded result with coverage 3/4.
// Range answers are exact subsets of the fault-free answers; k-NN answers
// are the exact top-k over the surviving partitions (bounded-k-NN).
func TestDegradedMerge(t *testing.T) {
	c, queries, want, items := degradedFixture(t, map[int]bool{1: true}, Config{
		Degrade: true, Retries: 1, Backoff: time.Millisecond,
	})
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatalf("degraded cluster errored: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not marked degraded")
	}
	if rep.Servers != 4 || rep.Covered != 3 || rep.Coverage() != 0.75 {
		t.Fatalf("coverage: servers=%d covered=%d frac=%g", rep.Servers, rep.Covered, rep.Coverage())
	}
	if !strings.Contains(rep.Note(), "3/4") || !strings.Contains(rep.Note(), "sound subset") {
		t.Errorf("note = %q", rep.Note())
	}

	// Per-server health: server 1 failed after 2 attempts, others fine.
	for i, s := range rep.PerServer {
		if i == 1 {
			if s.Health.OK || s.Health.Attempts != 2 || !strings.Contains(s.Health.Err, "injected") {
				t.Errorf("server 1 health = %+v", s.Health)
			}
		} else if !s.Health.OK || s.Health.Attempts != 1 || s.Health.Err != "" {
			t.Errorf("server %d health = %+v", i, s.Health)
		}
	}

	// The covered partitions under RoundRobin with server 1 down are the
	// items whose index is not ≡ 1 (mod 4).
	var covered []store.Item
	for i, it := range items {
		if i%4 != 1 {
			covered = append(covered, it)
		}
	}
	metric := vec.Euclidean{}
	for qi, q := range queries {
		g := got[qi].Answers()
		if qi%2 == 1 {
			// Range query: the degraded list must be an exact subset of
			// the fault-free answers, with identical distances.
			ref := make(map[store.ItemID]float64, want[qi].Len())
			for _, a := range want[qi].Answers() {
				ref[a.ID] = a.Dist
			}
			if len(g) > want[qi].Len() {
				t.Fatalf("query %d: degraded range result has %d answers, fault-free %d", qi, len(g), want[qi].Len())
			}
			for _, a := range g {
				d, ok := ref[a.ID]
				if !ok {
					t.Fatalf("query %d: answer %d not in fault-free result", qi, a.ID)
				}
				if math.Abs(d-a.Dist) > 1e-12 {
					t.Fatalf("query %d: answer %d distance drifted", qi, a.ID)
				}
			}
			continue
		}
		// k-NN query: the degraded list is the exact top-k over the
		// covered partitions (bounded-k-NN over what survived).
		type cand struct {
			id   store.ItemID
			dist float64
		}
		cands := make([]cand, len(covered))
		for i, it := range covered {
			cands[i] = cand{it.ID, metric.Distance(q.Vec, it.Vec)}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].id < cands[j].id
		})
		const k = 5
		if len(g) != k {
			t.Fatalf("query %d: degraded k-NN result has %d answers, want %d", qi, len(g), k)
		}
		for j, a := range g {
			if a.ID != cands[j].id || math.Abs(a.Dist-cands[j].dist) > 1e-12 {
				t.Fatalf("query %d: rank %d = (%d, %g), want (%d, %g) over covered partitions",
					qi, j, a.ID, a.Dist, cands[j].id, cands[j].dist)
			}
		}
	}

	// The summed stats carry the degradation contract for upper layers.
	sum := rep.Sum()
	if !sum.Query.Degraded || sum.Query.PartitionsTotal != 4 || sum.Query.PartitionsAnswered != 3 {
		t.Errorf("summed stats = %+v", sum.Query)
	}
	if sum.Query.Coverage() != 0.75 {
		t.Errorf("stats coverage = %g", sum.Query.Coverage())
	}
}

// TestStrictModeFailsFast: without Degrade, one failing server fails the
// whole operation (the pre-existing contract).
func TestStrictModeFailsFast(t *testing.T) {
	c, queries, _, _ := degradedFixture(t, map[int]bool{2: true}, Config{})
	if _, _, err := c.MultiQueryAll(queries); err == nil || !strings.Contains(err.Error(), "server 2") {
		t.Fatalf("strict cluster returned %v", err)
	}
}

// TestAllServersFailingErrorsEvenWhenDegraded: coverage 0 is an error, not
// an empty result.
func TestAllServersFailingErrorsEvenWhenDegraded(t *testing.T) {
	c, queries, _, _ := degradedFixture(t, map[int]bool{0: true, 1: true, 2: true, 3: true}, Config{Degrade: true})
	if _, _, err := c.MultiQueryAll(queries); err == nil {
		t.Fatal("cluster with zero coverage returned a result")
	}
}

// TestRetryRecoversTransientFaults: a bounded fault budget is outlasted by
// retries and the final result is complete (coverage 1, not degraded) and
// identical to the fault-free answers.
func TestRetryRecoversTransientFaults(t *testing.T) {
	const dim = 4
	items := dataset.Uniform(23, 400, dim)
	queries := make([]msq.Query, 4)
	qItems, err := dataset.SampleQueries(24, items, len(queries))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range qItems {
		queries[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: query.NewKNN(4)}
	}
	base := Config{
		Servers: 4, Strategy: RoundRobin, Engine: ScanEngine,
		Dim: dim, PageCapacity: 16, BufferPages: 0,
	}
	ref, err := New(items, base)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}

	faulted := base
	faulted.Degrade = true
	faulted.Retries = 3
	faulted.WrapDisk = func(server int, src store.PageSource) (store.PageSource, error) {
		if server != 0 {
			return src, nil
		}
		return fault.Wrap(src, fault.Config{ErrProb: 1, MaxFaults: 2})
	}
	c, err := New(items, faulted)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.Coverage() != 1 {
		t.Fatalf("transient faults left the result degraded: %+v", rep)
	}
	if rep.PerServer[0].Health.Attempts < 2 {
		t.Errorf("server 0 recovered without retrying: %+v", rep.PerServer[0].Health)
	}
	for qi := range queries {
		w, g := want[qi].Answers(), got[qi].Answers()
		if len(w) != len(g) {
			t.Fatalf("query %d: %d vs %d answers", qi, len(g), len(w))
		}
		for j := range w {
			if w[j].ID != g[j].ID {
				t.Fatalf("query %d answer %d differs after retries", qi, j)
			}
		}
	}
}

// TestServerTimeout: an unmeetable per-server deadline fails every server,
// which is an error even in degraded mode (nothing survived).
func TestServerTimeout(t *testing.T) {
	const dim = 4
	items := dataset.Uniform(25, 600, dim)
	queries := []msq.Query{{ID: 1, Vec: items[0].Vec, Type: query.NewKNN(3)}}
	c, err := New(items, Config{
		Servers: 2, Strategy: RoundRobin, Engine: ScanEngine,
		Dim: dim, PageCapacity: 8, BufferPages: 0,
		Degrade: true, Timeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.MultiQueryAll(queries); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("timeout did not surface: %v", err)
	}
}
