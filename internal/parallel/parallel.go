// Package parallel is the shared-nothing parallel query processor of §5.3:
// the database is declustered over s servers, each holding its partition
// with a private engine, and every similarity query runs on all servers
// concurrently against s-times smaller data. Per-query answers are merged,
// which is correct because every server returns (at least) its local top
// answers and the global result is contained in their union.
//
// A Cluster reaches its partitions through the Server interface and owns the
// fan-out, the union-merge and the per-server Report. The cluster is the
// paper's: fault-free, so a server that fails fails the operation. New
// builds in-process servers (an engine and a multi-query processor per
// partition); package wire supplies servers that answer over TCP
// (wire.Remote), so a cross-process cluster is the same Cluster over
// different servers.
//
// The paper's headline effect — parallel speed-up beyond s — comes from
// running blocks of m·s queries (s-times the memory buffers s-times the
// answers); the benchmark harness drives that, this package provides the
// machinery and per-server cost accounting.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Strategy selects how items are declustered over the servers.
type Strategy int

// Declustering strategies (a future-work topic of the paper, exposed for
// the ablation benchmarks).
const (
	// RoundRobin deals items to servers in turn — balanced and
	// distribution-agnostic, the default.
	RoundRobin Strategy = iota
	// RandomAssign places each item on a uniformly random server.
	RandomAssign
	// RangePartition sorts by the first coordinate and assigns contiguous
	// chunks — spatially clustered partitions, the adversarial case for
	// load balance.
	RangePartition
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case RandomAssign:
		return "random"
	case RangePartition:
		return "range"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Decluster splits items over s servers according to the strategy. Items
// keep their global IDs.
func Decluster(items []store.Item, s int, strategy Strategy, seed int64) ([][]store.Item, error) {
	if s < 1 {
		return nil, fmt.Errorf("parallel: need at least one server, got %d", s)
	}
	parts := make([][]store.Item, s)
	switch strategy {
	case RoundRobin:
		for i, it := range items {
			parts[i%s] = append(parts[i%s], it)
		}
	case RandomAssign:
		rng := rand.New(rand.NewSource(seed))
		for _, it := range items {
			k := rng.Intn(s)
			parts[k] = append(parts[k], it)
		}
	case RangePartition:
		sorted := append([]store.Item(nil), items...)
		sort.Slice(sorted, func(i, j int) bool {
			a, b := sorted[i].Vec, sorted[j].Vec
			if len(a) > 0 && len(b) > 0 && a[0] != b[0] {
				return a[0] < b[0]
			}
			return sorted[i].ID < sorted[j].ID
		})
		per := (len(sorted) + s - 1) / s
		for i, it := range sorted {
			k := i / per
			if k >= s {
				k = s - 1
			}
			parts[k] = append(parts[k], it)
		}
	default:
		return nil, fmt.Errorf("parallel: unknown strategy %v", strategy)
	}
	return parts, nil
}

// Config parameterizes a cluster of in-process servers.
type Config struct {
	Servers  int
	Strategy Strategy
	Seed     int64
	// Engine selects each server's physical organization; the zero value
	// "" selects the scan.
	Engine       engines.Kind
	Dim          int
	PageCapacity int
	// BufferPages per server; negative selects the 10 % default, zero
	// disables buffering.
	BufferPages int
	Metric      vec.Metric
	// Avoidance is forwarded to each server's processor; the zero value is
	// msq.AvoidAuto.
	Avoidance msq.AvoidanceMode

	// WrapDisk, when non-nil, interposes on each server's freshly built
	// disk: the test hook through which the package's tests fail or hang
	// chosen partitions. It is called once per server with the server
	// index; returning the source unchanged leaves that server as built.
	WrapDisk func(server int, src store.PageSource) (store.PageSource, error)
}

// Server is one partition as the fan-out reaches it.
type Server interface {
	// Call runs the batch: one answer list per query, aligned with
	// queries, and the call's cost. The fan-out waits for every server's
	// call, so Call should stop once ctx is done.
	Call(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, ServerStats, error)
}

// local is an in-process server: one partition's engine and processor.
type local struct {
	proc *msq.Processor
}

// Cluster is a set of shared-nothing servers answering similarity queries
// in parallel.
type Cluster struct {
	servers []Server
}

// New declusters items and builds one in-process server per partition.
func New(items []store.Item, cfg Config) (*Cluster, error) {
	if cfg.PageCapacity < 1 {
		return nil, fmt.Errorf("parallel: page capacity must be >= 1, got %d", cfg.PageCapacity)
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("parallel: dimension must be >= 1, got %d", cfg.Dim)
	}
	if err := cfg.Avoidance.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	parts, err := Decluster(items, cfg.Servers, cfg.Strategy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	servers := make([]Server, len(parts))
	for i, part := range parts {
		proc, err := newProcessor(i, part, cfg)
		if err != nil {
			return nil, err
		}
		servers[i] = &local{proc: proc}
	}
	return NewCluster(servers)
}

// newProcessor builds partition i's engine and processor. Every engine
// needs items to build over, so an empty partition (more servers than
// items, or a declustering that left one none) is an error naming it.
func newProcessor(i int, part []store.Item, cfg Config) (*msq.Processor, error) {
	if len(part) == 0 {
		return nil, fmt.Errorf("parallel: partition %d is empty", i)
	}
	var wrap func(store.PageSource) (store.PageSource, error)
	if cfg.WrapDisk != nil {
		wrap = func(src store.PageSource) (store.PageSource, error) {
			return cfg.WrapDisk(i, src)
		}
	}
	kind := cfg.Engine
	if kind == "" {
		kind = engines.Scan
	}
	metric := cfg.Metric
	if metric == nil {
		metric = vec.Euclidean{}
	}
	// The per-server buffer sentinel (negative = the 10 % default) is
	// resolved against the partition's own page count.
	buf := cfg.BufferPages
	if buf < 0 {
		buf = store.DefaultBufferPages((len(part) + cfg.PageCapacity - 1) / cfg.PageCapacity)
	}
	eng, err := engines.Build(engines.Spec{
		Kind:         kind,
		Items:        part,
		Dim:          cfg.Dim,
		Metric:       metric,
		PageCapacity: cfg.PageCapacity,
		BufferPages:  buf,
		WrapDisk:     wrap,
	})
	if err != nil {
		return nil, fmt.Errorf("parallel: server %d: %w", i, err)
	}
	// Each server gets its own counting metric so per-server CPU cost can
	// be reported.
	proc, err := msq.New(eng, vec.NewCounting(metric), msq.Options{Avoidance: cfg.Avoidance})
	if err != nil {
		return nil, fmt.Errorf("parallel: server %d: %w", i, err)
	}
	return proc, nil
}

// NewCluster fans out over the given servers, one partition each.
func NewCluster(servers []Server) (*Cluster, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("parallel: need at least one server")
	}
	return &Cluster{servers: servers}, nil
}

// Servers returns the number of servers.
func (c *Cluster) Servers() int { return len(c.servers) }

// ServerStats is one server's cost in a cluster operation. IO is zero for a
// remote server, whose disk the cluster cannot see.
type ServerStats struct {
	Query msq.Stats
	IO    store.IOStats
}

// Report carries the per-server costs of one parallel operation.
type Report struct {
	PerServer []ServerStats
}

// Sum returns the total work across servers (throughput view).
func (r Report) Sum() ServerStats {
	var out ServerStats
	for _, s := range r.PerServer {
		out.Query = out.Query.Add(s.Query)
		out.IO = out.IO.Add(s.IO)
	}
	return out
}

// MaxPagesRead returns the page count of the busiest server — the
// latency-determining quantity in a shared-nothing setting.
func (r Report) MaxPagesRead() int64 {
	var m int64
	for _, s := range r.PerServer {
		if s.Query.PagesRead > m {
			m = s.Query.PagesRead
		}
	}
	return m
}

// MaxDistCalcs returns the distance-calculation count (including matrix) of
// the busiest server.
func (r Report) MaxDistCalcs() int64 {
	var m int64
	for _, s := range r.PerServer {
		if c := s.Query.TotalDistCalcs(); c > m {
			m = c
		}
	}
	return m
}

// MultiQueryAll evaluates the batch to completion on every server in
// parallel and merges the per-server answers into global answers, aligned
// with queries. The merge is complete only with every partition's answers,
// so any server's failure fails the operation.
func (c *Cluster) MultiQueryAll(queries []msq.Query) ([]*query.AnswerList, Report, error) {
	return c.MultiQueryAllContext(context.Background(), queries)
}

// MultiQueryAllContext is MultiQueryAll with cancellation: ctx reaches every
// server's call, which stops at its next page barrier (in process) or
// connection deadline (wire.Remote). Once every call has returned, an
// operation whose ctx is done fails with the context error.
func (c *Cluster) MultiQueryAllContext(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, Report, error) {
	report := Report{PerServer: make([]ServerStats, len(c.servers))}
	if err := check(queries); err != nil {
		return nil, report, err
	}
	perServer := make([][]*query.AnswerList, len(c.servers))
	errs := make([]error, len(c.servers))

	var wg sync.WaitGroup
	for i, srv := range c.servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perServer[i], report.PerServer[i], errs[i] = srv.Call(ctx, queries)
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, report, fmt.Errorf("parallel: server %d: %w", i, err)
		}
	}
	// A call may finish its last page, or its reply may land, after ctx is
	// done; the operation fails all the same, on either transport.
	if err := ctx.Err(); err != nil {
		return nil, report, fmt.Errorf("parallel: %w", err)
	}
	merged := make([]*query.AnswerList, len(queries))
	for qi := range queries {
		l := query.NewAnswerList(queries[qi].Type)
		for si := range c.servers {
			for _, a := range perServer[si][qi].Answers() {
				l.Consider(a.ID, a.Dist)
			}
		}
		merged[qi] = l
	}
	return merged, report, nil
}

// check refuses, before any server is called, a batch no server could
// answer; a query only a server can judge (its dimension) each server
// refuses.
func check(queries []msq.Query) error {
	if len(queries) == 0 {
		return errors.New("parallel: empty batch")
	}
	seen := make(map[uint64]bool, len(queries))
	for _, q := range queries {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("parallel: %w", err)
		}
		if seen[q.ID] {
			return fmt.Errorf("parallel: query ID %d appears twice in one batch", q.ID)
		}
		seen[q.ID] = true
	}
	return nil
}

// Single evaluates one similarity query on all servers and merges the
// results.
func (c *Cluster) Single(q vec.Vector, t query.Type) (*query.AnswerList, Report, error) {
	res, rep, err := c.MultiQueryAll([]msq.Query{{ID: 0, Vec: q, Type: t}})
	if err != nil {
		return nil, rep, err
	}
	return res[0], rep, nil
}

// Call runs the batch on the partition's processor, which refuses a query
// it cannot evaluate before it reads a page.
func (l *local) Call(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, ServerStats, error) {
	disk := l.proc.Engine().Pager().Disk()
	before := disk.Stats()
	res, st, err := l.proc.MultiQueryContext(ctx, queries)
	if err != nil {
		return nil, ServerStats{}, err
	}
	after := disk.Stats()
	return res, ServerStats{Query: st, IO: store.IOStats{
		Reads:     after.Reads - before.Reads,
		SeqReads:  after.SeqReads - before.SeqReads,
		RandReads: after.RandReads - before.RandReads,
	}}, nil
}
