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
	"time"

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
	return parallel.NewCluster(servers, cfg.FanOut)
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

// surviving returns the items of the partitions a round-robin cluster of s
// servers still covers when the servers in down are lost.
func surviving(items []store.Item, s int, down ...int) []store.Item {
	var out []store.Item
	for i, it := range items {
		lost := false
		for _, d := range down {
			lost = lost || i%s == d
		}
		if !lost {
			out = append(out, it)
		}
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
	// are stateful, so each run gets fresh ones); hang is the run's stall
	// for a row that needs a hung disk.
	cfg func(hang *stall) parallel.Config
	// check runs the row's operations on one cluster, checks them and
	// returns them; err is the cluster's construction error.
	check func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op
}

func baseConfig() parallel.Config {
	return parallel.Config{Servers: 4, Dim: fanOutDim, PageCapacity: 16}
}

var fanOutRows = []fanOutRow{
	{
		// The acceptance scenario: range answers are exact subsets of the
		// fault-free answers, k-NN answers the exact top-k over the
		// surviving partitions (bounded-k-NN).
		name: "dead shard, degraded",
		cfg: func(*stall) parallel.Config {
			cfg := baseConfig()
			cfg.Degrade, cfg.Retries = true, 1
			cfg.WrapDisk = faulty(map[int]fault.Config{1: {Seed: 1, ErrProb: 1}})
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			o := run(c, queries)
			if o.err != nil {
				t.Fatalf("degraded cluster errored: %v", o.err)
			}
			if !o.report.Degraded || o.report.Covered != 3 {
				t.Fatalf("coverage %d/%d", o.report.Covered, o.report.Servers)
			}
			if h := o.report.PerServer[1].Health; h.OK || h.Attempts != 2 || !strings.Contains(h.Err, "injected") {
				t.Errorf("dead server health = %+v, want 2 failed attempts", h)
			}
			full := exact(items, queries)
			for qi, q := range queries {
				if q.Type.Kind != query.Range {
					continue
				}
				ref := map[store.ItemID]float64{}
				for _, a := range full[qi] {
					ref[a.ID] = a.Dist
				}
				for _, a := range o.answers[qi].Answers() {
					if d, ok := ref[a.ID]; !ok || math.Abs(d-a.Dist) > 1e-12 {
						t.Fatalf("query %d: answer %+v not in the fault-free result", qi, a)
					}
				}
			}
			checkAnswers(t, o.answers, exact(surviving(items, 4, 1), queries))
			return []op{o}
		},
	},
	{
		name: "dead shard, strict",
		cfg: func(*stall) parallel.Config {
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
		name: "all shards dead",
		cfg: func(*stall) parallel.Config {
			cfg := baseConfig()
			cfg.Degrade = true
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
			if o.err == nil || o.report.Covered != 0 {
				t.Fatalf("zero coverage returned %v, covered %d", o.err, o.report.Covered)
			}
			return []op{o}
		},
	},
	{
		// One injected read failure on server 0: the retry completes the
		// batch.
		name: "transient fault",
		cfg: func(*stall) parallel.Config {
			cfg := baseConfig()
			cfg.Retries = 2
			cfg.WrapDisk = faulty(map[int]fault.Config{0: {ErrProb: 1, MaxFaults: 1}})
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			o := run(c, queries)
			if o.err != nil || o.report.Degraded {
				t.Fatalf("transient fault: %v, degraded %v", o.err, o.report.Degraded)
			}
			if h := o.report.PerServer[0].Health; !h.OK || h.Attempts != 2 {
				t.Errorf("faulted server health = %+v, want OK after 2 attempts", h)
			}
			checkAnswers(t, o.answers, exact(items, queries))
			return []op{o}
		},
	},
	{
		// Server 0 fails its first five attempts, then recovers. The
		// breaker opens at the fifth and cuts the first operation's
		// retries short; the second is answered around server 0 without
		// calling it; after the cooldown the third probes, succeeds and
		// closes the breaker.
		name: "breaker trips then probes",
		cfg: func(*stall) parallel.Config {
			cfg := baseConfig()
			cfg.Servers, cfg.Degrade, cfg.Retries = 3, true, 7
			cfg.WrapDisk = faulty(map[int]fault.Config{0: {ErrProb: 1, MaxFaults: 5}})
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			trip := run(c, queries)
			if h := trip.report.PerServer[0].Health; trip.err != nil || h.Attempts != 5 || h.Err != parallel.ErrCircuitOpen.Error() {
				t.Fatalf("tripping operation: %v, health %+v", trip.err, h)
			}
			open := run(c, queries)
			if h := open.report.PerServer[0].Health; open.err != nil || h.Attempts != 0 || h.Err != parallel.ErrCircuitOpen.Error() {
				t.Fatalf("open breaker: %v, health %+v", open.err, h)
			}
			checkAnswers(t, open.answers, exact(surviving(items, 3, 0), queries))
			parallel.ExpireBreaker(c, 0)
			probe := run(c, queries)
			if h := probe.report.PerServer[0].Health; probe.err != nil || !h.OK || h.Attempts != 1 {
				t.Fatalf("probe: %v, health %+v", probe.err, h)
			}
			checkAnswers(t, probe.answers, exact(items, queries))
			return []op{trip, open, probe}
		},
	},
	{
		// Server 1's disk hangs: each attempt is abandoned at the timeout
		// and the operation degrades around it.
		name: "attempt timeout",
		cfg: func(hang *stall) parallel.Config {
			cfg := baseConfig()
			// Generous beside a healthy server's few milliseconds, so only
			// the hung one times out even on a loaded machine.
			cfg.Degrade, cfg.Retries, cfg.Timeout = true, 1, 200*time.Millisecond
			cfg.WrapDisk = func(i int, src store.PageSource) (store.PageSource, error) {
				if i != 1 {
					return src, nil
				}
				return hang.wrap(src), nil
			}
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			o := run(c, queries)
			if h := o.report.PerServer[1].Health; o.err != nil || h.Attempts != 2 || !strings.Contains(h.Err, "timed out") {
				t.Fatalf("hung server: %v, health %+v", o.err, h)
			}
			checkAnswers(t, o.answers, exact(surviving(items, 4, 1), queries))
			return []op{o}
		},
	},
	{
		// The caller's mistakes, more often than the breaker tolerates
		// server failures: a query of the wrong dimension is refused by
		// every server at its one attempt, a duplicate ID by the cluster
		// before any attempt. Neither counts against a server, so the valid
		// batch after them is answered in full.
		name: "invalid queries",
		cfg: func(*stall) parallel.Config {
			cfg := baseConfig()
			cfg.Retries = parallel.BreakerThreshold
			return cfg
		},
		check: func(t *testing.T, c *parallel.Cluster, err error, items []store.Item, queries []msq.Query) []op {
			if err != nil {
				t.Fatal(err)
			}
			wrongDim := []msq.Query{{ID: 1, Vec: vec.Vector{0.5, 0.5}, Type: query.NewKNN(3)}}
			twice := []msq.Query{queries[0], queries[0]}
			var ops []op
			for i := 0; i <= parallel.BreakerThreshold; i++ {
				for _, bad := range []struct {
					batch    []msq.Query
					attempts int
				}{{wrongDim, 1}, {twice, 0}} {
					o := run(c, bad.batch)
					if o.err == nil {
						t.Fatalf("invalid batch %v accepted", bad.batch)
					}
					for s, st := range o.report.PerServer {
						if st.Health.Attempts != bad.attempts {
							t.Fatalf("%v: server %d made %d attempts, want %d", o.err, s, st.Health.Attempts, bad.attempts)
						}
					}
					ops = append(ops, o)
				}
			}
			o := run(c, queries)
			if o.err != nil || o.report.Degraded {
				t.Fatalf("valid batch after invalid ones: %v, degraded %v", o.err, o.report.Degraded)
			}
			checkAnswers(t, o.answers, exact(items, queries))
			return append(ops, o)
		},
	},
	{
		// More servers than items: every engine would build over nothing.
		name: "empty partition",
		n:    3,
		cfg:  func(*stall) parallel.Config { return baseConfig() },
		check: func(t *testing.T, _ *parallel.Cluster, err error, _ []store.Item, _ []msq.Query) []op {
			if err == nil || !strings.Contains(err.Error(), "partition 3 is empty") {
				t.Fatalf("cluster over an empty partition: %v", err)
			}
			return []op{{err: err}}
		},
	},
}

// TestFanOut runs every failure scenario once over in-process servers and
// once over loopback wire servers on the same partitions: the one fan-out
// must give both the same answers and the same per-server health.
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
					hang := newStall()
					defer hang.free()
					cfg := row.cfg(hang)
					c, err := tr.build(t, items, cfg)
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
// alike, answers bit-identical, and the same report health.
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
		if rx.Degraded != ry.Degraded || rx.Servers != ry.Servers || rx.Covered != ry.Covered {
			t.Fatalf("operation %d: coverage %d/%d vs %d/%d", i, rx.Covered, rx.Servers, ry.Covered, ry.Servers)
		}
		for s := range rx.PerServer {
			hx, hy := rx.PerServer[s].Health, ry.PerServer[s].Health
			if hx.OK != hy.OK || hx.Attempts != hy.Attempts || (hx.Err == "") != (hy.Err == "") {
				t.Errorf("operation %d server %d: health %+v vs %+v", i, s, hx, hy)
			}
			qx, qy := rx.PerServer[s].Query, ry.PerServer[s].Query
			if qx.PagesRead != qy.PagesRead || qx.DistCalcs != qy.DistCalcs || qx.Avoided != qy.Avoided {
				t.Errorf("operation %d server %d: stats %+v vs %+v", i, s, qx, qy)
			}
		}
	}
}

// TestFanOutLeaks: after an abandoned in-process attempt, a tripped breaker
// and a context cancelled mid-batch on either transport, the goroutine
// count returns to its baseline once the hung source is released.
func TestFanOutLeaks(t *testing.T) {
	items := dataset.Uniform(23, 200, fanOutDim)
	queries := fanOutBatch(t, items)
	hungOn := func(hang *stall, server int) parallel.Config {
		cfg := baseConfig()
		cfg.Servers, cfg.Degrade = 2, true
		cfg.WrapDisk = func(i int, src store.PageSource) (store.PageSource, error) {
			if i != server {
				return src, nil
			}
			return hang.wrap(src), nil
		}
		return cfg
	}

	t.Run("abandoned attempt", func(t *testing.T) {
		hang := newStall()
		defer hang.free()
		cfg := hungOn(hang, 0)
		cfg.Timeout = 200 * time.Millisecond
		c, err := parallel.New(items, cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		if _, rep, err := c.MultiQueryAll(queries); err != nil || rep.Covered != 1 {
			t.Fatalf("hung server: %v, covered %d", err, rep.Covered)
		}
		hang.free()
		leakcheck.Settle(t, base)
	})

	t.Run("tripped breaker", func(t *testing.T) {
		cfg := baseConfig()
		cfg.Servers, cfg.Degrade, cfg.Retries = 2, true, 5
		cfg.WrapDisk = faulty(map[int]fault.Config{0: {ErrProb: 1}})
		c, err := parallel.New(items, cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		for i := 0; i < 2; i++ {
			if _, rep, err := c.MultiQueryAll(queries); err != nil || rep.PerServer[0].Health.Err != parallel.ErrCircuitOpen.Error() {
				t.Fatalf("operation %d: %v, %+v", i, err, rep.PerServer[0].Health)
			}
		}
		leakcheck.Settle(t, base)
	})

	for _, tr := range transports {
		t.Run("cancelled mid-batch/"+tr.name, func(t *testing.T) {
			hang := newStall()
			defer hang.free()
			cfg := hungOn(hang, 1)
			cfg.Degrade = false // the cancelled server fails the operation
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
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled operation returned %v", err)
			}
			hang.free()
			leakcheck.Settle(t, base)
		})
	}
}
