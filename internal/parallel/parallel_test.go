package parallel

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

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
	if _, err := NewCluster(nil); err == nil {
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
// its items by brute force, or fails with err.
type fake struct {
	items []store.Item
	err   error
}

func (f *fake) Call(_ context.Context, queries []msq.Query) ([]*query.AnswerList, ServerStats, error) {
	if f.err != nil {
		return nil, ServerStats{}, f.err
	}
	lists := make([]*query.AnswerList, len(queries))
	for i, q := range queries {
		lists[i] = query.NewAnswerList(q.Type)
		for _, it := range f.items {
			lists[i].Consider(it.ID, vec.Euclidean{}.Distance(q.Vec, it.Vec))
		}
	}
	return lists, ServerStats{Query: msq.Stats{Queries: int64(len(queries)), PagesRead: int64(len(f.items))}}, nil
}

// TestStrictModeFailsFast: one failing server fails the whole operation;
// with several failing, the error is the lowest-numbered server's, named.
func TestStrictModeFailsFast(t *testing.T) {
	items := dataset.Uniform(21, 200, 3)
	parts, err := Decluster(items, 4, RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	errDown, errLater := errors.New("server down"), errors.New("also down")
	queries := []msq.Query{
		{ID: 1, Vec: items[3].Vec, Type: query.NewKNN(5)},
		{ID: 2, Vec: items[50].Vec, Type: query.NewRange(0.3)},
	}
	for _, errs := range [][]error{{nil, nil, errDown, nil}, {nil, nil, errDown, errLater}} {
		servers := make([]Server, len(parts))
		for i, part := range parts {
			servers[i] = &fake{items: part, err: errs[i]}
		}
		c, err := NewCluster(servers)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.MultiQueryAll(queries); !errors.Is(err, errDown) || !strings.Contains(err.Error(), "server 2") {
			t.Fatalf("strict cluster returned %v", err)
		}
	}
}
