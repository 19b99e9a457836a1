package parallel_test

import (
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/fault"
	"metricdb/internal/leakcheck"
	"metricdb/internal/msq"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/wire"
)

// A transport builds a cluster over the partitions Decluster gives for cfg:
// in-process servers, or the same partitions' processors behind loopback
// wire servers reached through wire.Remote.
type transport struct {
	name  string
	build func(t *testing.T, items []store.Item, cfg parallel.Config) (*parallel.Cluster, error)
}

var transports = []transport{
	{"inprocess", func(_ *testing.T, items []store.Item, cfg parallel.Config) (*parallel.Cluster, error) {
		return parallel.New(items, cfg)
	}},
	{"wire", overWire},
}

func overWire(t *testing.T, items []store.Item, cfg parallel.Config) (*parallel.Cluster, error) {
	parts, err := parallel.Decluster(items, cfg.Servers, cfg.Strategy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	servers := make([]parallel.Server, len(parts))
	for i, part := range parts {
		proc, err := parallel.NewProcessor(i, part, cfg)
		if err != nil {
			return nil, err
		}
		srv, err := wire.NewServer(proc)
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lis) //nolint:errcheck // ends with net.ErrClosed on Close
		t.Cleanup(func() { srv.Close() })
		servers[i] = wire.Remote(lis.Addr().String())
	}
	return parallel.NewCluster(servers)
}

// stall makes a server's page reads block until release is closed — a hung
// disk that no context reaches. entered is closed at the first read.
type stall struct {
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func newStall() *stall {
	return &stall{release: make(chan struct{}), entered: make(chan struct{})}
}

// free releases the stalled reads. Tests defer it: a deferred call runs
// before the cleanups that close the wire servers, whose Close waits for
// handlers blocked on the stall.
func (s *stall) free() {
	select {
	case <-s.release:
	default:
		close(s.release)
	}
}

func (s *stall) wrap(src store.PageSource) store.PageSource { return stalled{src, s} }

type stalled struct {
	store.PageSource
	s *stall
}

func (d stalled) Read(pid store.PageID) (*store.Page, error) {
	d.s.once.Do(func() { close(d.s.entered) })
	<-d.s.release
	return d.PageSource.Read(pid)
}

// faulty wraps server i's disk with fault cfgs[i]; servers without an entry
// stay reliable. The injector is built per cluster, so each transport's run
// sees the same fresh fault sequence.
func faulty(cfgs map[int]fault.Config) func(int, store.PageSource) (store.PageSource, error) {
	return func(i int, src store.PageSource) (store.PageSource, error) {
		fc, ok := cfgs[i]
		if !ok {
			return src, nil
		}
		return fault.Wrap(src, fc)
	}
}

const fanOutDim = 4

// fanOutBatch is a mixed k-NN/range batch over the fan-out dataset.
func fanOutBatch(t *testing.T, items []store.Item) []msq.Query {
	t.Helper()
	qItems, err := dataset.SampleQueries(22, items, 6)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]msq.Query, len(qItems))
	for i, it := range qItems {
		typ := query.NewKNN(5)
		if i%2 == 1 {
			typ = query.NewRange(0.4)
		}
		queries[i] = msq.Query{ID: uint64(it.ID), Vec: it.Vec, Type: typ}
	}
	return queries
}

// exact answers the batch by brute force over items.
func exact(items []store.Item, queries []msq.Query) [][]query.Answer {
	out := make([][]query.Answer, len(queries))
	for i, q := range queries {
		l := query.NewAnswerList(q.Type)
		for _, it := range items {
			l.Consider(it.ID, vec.Euclidean{}.Distance(q.Vec, it.Vec))
		}
		out[i] = l.Answers()
	}
	return out
}

func checkAnswers(t *testing.T, got []*query.AnswerList, want [][]query.Answer) {
	t.Helper()
	for qi := range want {
		g := got[qi].Answers()
		if len(g) != len(want[qi]) {
			t.Fatalf("query %d: %d answers, want %d", qi, len(g), len(want[qi]))
		}
		for j, w := range want[qi] {
			if g[j].ID != w.ID || math.Abs(g[j].Dist-w.Dist) > 1e-12 {
				t.Fatalf("query %d rank %d = %+v, want %+v", qi, j, g[j], w)
			}
		}
	}
}

// op is one cluster operation's outcome, what both transports must agree on.
type op struct {
	answers []*query.AnswerList
	report  parallel.Report
	err     error
}

func run(c *parallel.Cluster, queries []msq.Query) op {
	answers, report, err := c.MultiQueryAll(queries)
	return op{answers, report, err}
}

type fanOutRow struct {
	name string
	n    int // items; 0 means 400
	// cfg returns the row's configuration for one run (the disk wrappers
	// are stateful, so each run gets fresh ones).
	cfg func() parallel.Config
	// check runs the row's operations on one cluster, checks them and
	// returns them; err is the cluster's construction error.
	check func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op
}

func baseConfig() parallel.Config {
	return parallel.Config{Servers: 4, Dim: fanOutDim, PageCapacity: 16}
}

var fanOutRows = []fanOutRow{
	{
		name: "dead shard, strict",
		cfg: func() parallel.Config {
			cfg := baseConfig()
			cfg.WrapDisk = faulty(map[int]fault.Config{1: {Seed: 1, ErrProb: 1}})
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, _ []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			o := run(c, queries)
			if o.err == nil || !strings.Contains(o.err.Error(), "server 1") {
				t.Fatalf("strict cluster returned %v, want an error naming server 1", o.err)
			}
			return []op{o}
		},
	},
	{
		// Every server fails: the error is the lowest-numbered one's.
		name: "all shards dead",
		cfg: func() parallel.Config {
			cfg := baseConfig()
			dead := map[int]fault.Config{}
			for i := 0; i < cfg.Servers; i++ {
				dead[i] = fault.Config{Seed: int64(i), ErrProb: 1}
			}
			cfg.WrapDisk = faulty(dead)
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, _ []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			o := run(c, queries)
			if o.err == nil || !strings.Contains(o.err.Error(), "server 0") {
				t.Fatalf("dead cluster returned %v, want an error naming server 0", o.err)
			}
			return []op{o}
		},
	},
	{
		// One injected read failure on server 0 fails the operation that
		// meets it; the cluster keeps no state about it, so the next
		// operation is answered in full.
		name: "transient fault",
		cfg: func() parallel.Config {
			cfg := baseConfig()
			cfg.WrapDisk = faulty(map[int]fault.Config{0: {ErrProb: 1, MaxFaults: 1}})
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			failed := run(c, queries)
			if failed.err == nil || !strings.Contains(failed.err.Error(), "injected") {
				t.Fatalf("operation meeting the fault returned %v", failed.err)
			}
			o := run(c, queries)
			if o.err != nil {
				t.Fatalf("operation after the fault: %v", o.err)
			}
			checkAnswers(t, o.answers, exact(items, queries))
			return []op{failed, o}
		},
	},
	{
		// The caller's mistakes: a query of the wrong dimension is refused
		// by every server, a duplicate ID by the cluster before any server
		// is called. The valid batch after them is answered in full.
		name: "invalid queries",
		cfg:  func() parallel.Config { return baseConfig() },
		check: func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			wrongDim := []msq.Query{{ID: 1, Vec: vec.Vector{0.5, 0.5}, Type: query.NewKNN(3)}}
			twice := []msq.Query{queries[0], queries[0]}
			var ops []op
			for _, bad := range [][]msq.Query{wrongDim, twice} {
				o := run(c, bad)
				if o.err == nil {
					t.Fatalf("invalid batch %v accepted", bad)
				}
				ops = append(ops, o)
			}
			o := run(c, queries)
			if o.err != nil {
				t.Fatalf("valid batch after invalid ones: %v", o.err)
			}
			checkAnswers(t, o.answers, exact(items, queries))
			return append(ops, o)
		},
	},
	{
		// More servers than items: every engine would build over nothing.
		name: "empty partition",
		n:    3,
		cfg:  func() parallel.Config { return baseConfig() },
		check: func(t *testing.T, _ *parallel.Cluster, err error, _ []store.Item, _ []msq.Query) []op {
			if err == nil || !strings.Contains(err.Error(), "partition 3 is empty") {
				t.Fatalf("cluster over an empty partition: %v", err)
			}
			return []op{{err: err}}
		},
	},
}

// TestFanOut runs every scenario once over in-process servers and once over
// loopback wire servers on the same partitions: the one fan-out must give
// both the same outcomes, answers and per-server work.
func TestFanOut(t *testing.T) {
	for _, row := range fanOutRows {
		t.Run(row.name, func(t *testing.T) {
			n := row.n
			if n == 0 {
				n = 400
			}
			items := dataset.Uniform(21, n, fanOutDim)
			var queries []msq.Query
			if n >= 6 {
				queries = fanOutBatch(t, items)
			}
			var runs [][]op
			for _, tr := range transports {
				t.Run(tr.name, func(t *testing.T) {
					c, err := tr.build(t, items, row.cfg())
					runs = append(runs, row.check(t, c, err, items, queries))
				})
			}
			if len(runs) == len(transports) {
				sameOps(t, runs[0], runs[1])
			}
		})
	}
}

// sameOps holds two transports' runs of a row to the same outcome: errors
// alike, answers bit-identical, and the same per-server work.
func sameOps(t *testing.T, a, b []op) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d operations vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if (x.err == nil) != (y.err == nil) {
			t.Fatalf("operation %d: errors %v vs %v", i, x.err, y.err)
		}
		if len(x.answers) != len(y.answers) {
			t.Fatalf("operation %d: %d vs %d answer lists", i, len(x.answers), len(y.answers))
		}
		for qi := range x.answers {
			p, q := x.answers[qi].Answers(), y.answers[qi].Answers()
			if len(p) != len(q) {
				t.Fatalf("operation %d query %d: %d vs %d answers", i, qi, len(p), len(q))
			}
			for j := range p {
				if p[j] != q[j] {
					t.Fatalf("operation %d query %d rank %d: %+v vs %+v", i, qi, j, p[j], q[j])
				}
			}
		}
		rx, ry := x.report, y.report
		for s := range rx.PerServer {
			qx, qy := rx.PerServer[s].Query, ry.PerServer[s].Query
			if qx.PagesRead != qy.PagesRead || qx.DistCalcs != qy.DistCalcs || qx.Avoided != qy.Avoided {
				t.Errorf("operation %d server %d: stats %+v vs %+v", i, s, qx, qy)
			}
		}
	}
}

// TestFanOutLeaks: a context cancelled mid-batch on either transport fails
// the operation with context.Canceled, and the goroutine count returns to
// its baseline. The operation waits for every server's call: over the wire
// the call stops at once, its connection's deadline expired, but an
// in-process call stops only at its next page barrier, so the stalled read
// is freed after the cancel and before the operation is awaited.
func TestFanOutLeaks(t *testing.T) {
	items := dataset.Uniform(23, 200, fanOutDim)
	queries := fanOutBatch(t, items)
	for _, tr := range transports {
		t.Run("cancelled mid-batch/"+tr.name, func(t *testing.T) {
			hang := newStall()
			defer hang.free()
			cfg := baseConfig()
			cfg.Servers = 2
			cfg.WrapDisk = func(i int, src store.PageSource) (store.PageSource, error) {
				if i != 1 {
					return src, nil
				}
				return hang.wrap(src), nil
			}
			c, err := tr.build(t, items, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, _, err := c.MultiQueryAllContext(ctx, queries)
				done <- err
			}()
			<-hang.entered
			cancel()
			hang.free()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled operation returned %v", err)
			}
			leakcheck.Settle(t, base)
		})
	}
}
