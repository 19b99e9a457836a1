// Package parallel is the shared-nothing parallel query processor of §5.3:
// the database is declustered over s servers, each holding its partition
// with a private engine, and every similarity query runs on all servers
// concurrently against s-times smaller data. Per-query answers are merged,
// which is correct because every server returns (at least) its local top
// answers and the global result is contained in their union.
//
// A Cluster reaches its partitions through the Server interface, one
// attempt of a batch at a time, and owns everything around the attempts:
// the fan-out, the per-server circuit breaker, the per-attempt timeout, the
// retries, the coverage decision under FanOut.Degrade, the union-merge and
// the per-server Report. New builds in-process servers (an engine and a
// multi-query processor per partition); package wire supplies servers that
// answer over TCP (wire.Remote), so a cross-process cluster is the same
// Cluster over different servers.
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
	"time"

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

// Config parameterizes a cluster of in-process servers: the fields describe
// the servers New builds, and the embedded FanOut how the cluster reaches
// them.
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
	// disk — the fault-injection hook. It is called once per server with
	// the server index, so faults can be confined to chosen partitions;
	// returning the source unchanged leaves that server on reliable
	// storage.
	WrapDisk func(server int, src store.PageSource) (store.PageSource, error)

	FanOut
}

// FanOut parameterizes how a Cluster reaches its servers, whatever they are.
type FanOut struct {
	// Timeout bounds each attempt on each server; zero means no bound. A
	// timed-out attempt is abandoned and counts as a failure, retried like
	// any other.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failed one.
	// An attempt the server refused as final (the caller's invalid query,
	// a remote server's shutting_down) is not retried, and an overloaded
	// server is retried no sooner than its retry-after hint.
	Retries int
	// Degrade allows partial results: when a server still fails after all
	// retries, the cluster merges the surviving servers' answers and
	// reports a degraded result (coverage < 1) instead of an error. With
	// Degrade false any server failure fails the whole operation, the
	// pre-existing strict behavior.
	Degrade bool
}

// Server is one partition as the fan-out reaches it.
type Server interface {
	// Call runs one attempt of the batch: one answer list per query,
	// aligned with queries, and the attempt's cost (Health is the
	// caller's). The fan-out abandons an attempt that outlives its timeout
	// or ctx, so Call should stop once ctx is done.
	Call(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, ServerStats, error)
}

// local is an in-process server: one partition's engine and processor.
type local struct {
	proc *msq.Processor
}

// Cluster is a set of shared-nothing servers answering similarity queries
// in parallel.
type Cluster struct {
	servers  []Server
	breakers []breaker
	cfg      FanOut
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
	return NewCluster(servers, cfg.FanOut)
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
func NewCluster(servers []Server, cfg FanOut) (*Cluster, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("parallel: need at least one server")
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("parallel: negative retries %d", cfg.Retries)
	}
	return &Cluster{servers: servers, breakers: make([]breaker, len(servers)), cfg: cfg}, nil
}

// Servers returns the number of servers.
func (c *Cluster) Servers() int { return len(c.servers) }

// ServerHealth describes one server's fate during a cluster operation.
type ServerHealth struct {
	// OK is true when the server contributed answers.
	OK bool
	// Attempts counts calls made to the server (1 for a first-try
	// success, 0 when its circuit breaker was open).
	Attempts int
	// Err holds the final failure, empty on success.
	Err string
	// Latency is the wall time of the server's final attempt — the
	// successful one, or the last failed one. Waits between attempts are
	// not included.
	Latency time.Duration
}

// ServerStats is the per-server cost and health of one cluster operation.
// IO is zero for a remote server, whose disk the cluster cannot see.
type ServerStats struct {
	Query  msq.Stats
	IO     store.IOStats
	Health ServerHealth
}

// Report carries per-server costs and the degradation state of one
// parallel operation.
type Report struct {
	PerServer []ServerStats
	// Degraded is true when at least one server failed and the merged
	// result covers only the surviving partitions.
	Degraded bool
	// Servers and Covered count partitions total and partitions answered;
	// Covered/Servers is the coverage fraction of the merged result.
	Servers int
	Covered int
}

// Coverage returns the fraction of partitions that contributed answers
// (1 when the report predates any operation).
func (r Report) Coverage() float64 {
	if r.Servers == 0 {
		return 1
	}
	return float64(r.Covered) / float64(r.Servers)
}

// Note states the correctness contract of the report's result. Degraded
// results exploit the union-merge property: every answer returned was
// truly within the query's constraint on some surviving partition, so
// answer lists are a sound subset of the fault-free result; k-NN answers
// become "up to k nearest among the covered partitions" (bounded-k-NN
// semantics).
func (r Report) Note() string {
	if !r.Degraded {
		return "complete: all partitions answered"
	}
	return fmt.Sprintf("degraded: %d/%d partitions answered; answers are a sound subset "+
		"of the fault-free result, k-NN lists are bounded-k-NN over the covered partitions",
		r.Covered, r.Servers)
}

// Sum returns the total work across servers (throughput view). The summed
// query stats carry the report's degradation state and coverage counters.
func (r Report) Sum() ServerStats {
	var out ServerStats
	for _, s := range r.PerServer {
		out.Query = out.Query.Add(s.Query)
		out.IO = out.IO.Add(s.IO)
	}
	out.Query.Degraded = r.Degraded
	out.Query.PartitionsTotal = int64(r.Servers)
	out.Query.PartitionsAnswered = int64(r.Covered)
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
// with queries.
//
// Each attempt on a server is bounded by FanOut.Timeout, and a failed one
// is retried up to FanOut.Retries times unless its server's circuit breaker
// is open. When a server still fails and FanOut.Degrade is set, the
// surviving servers' answers are merged into a degraded result
// (Report.Degraded, coverage < 1): by the union-merge property every
// returned answer genuinely satisfies its query on a covered partition, so
// the lists are a sound subset of the fault-free result. Without Degrade
// any persistent server failure fails the whole operation. An invalid batch
// is the caller's mistake: it fails without retries and without counting
// against any server's breaker.
func (c *Cluster) MultiQueryAll(queries []msq.Query) ([]*query.AnswerList, Report, error) {
	return c.MultiQueryAllContext(context.Background(), queries)
}

// MultiQueryAllContext is MultiQueryAll with cancellation: ctx bounds the
// whole cluster operation. Cancellation abandons every server's attempt in
// flight (each stops at its next page barrier or connection deadline),
// interrupts waits between attempts, and suppresses further retries; the
// operation then fails (or degrades, under FanOut.Degrade with surviving
// servers) with the context error recorded per server.
func (c *Cluster) MultiQueryAllContext(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, Report, error) {
	report := Report{PerServer: make([]ServerStats, len(c.servers)), Servers: len(c.servers)}
	if err := check(queries); err != nil {
		return nil, report, err
	}
	perServer := make([][]*query.AnswerList, len(c.servers))
	errs := make([]error, len(c.servers))

	var wg sync.WaitGroup
	for i := range c.servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perServer[i], report.PerServer[i], errs[i] = c.call(ctx, i, queries)
		}()
	}
	wg.Wait()

	var firstErr error
	firstIdx := -1
	for i, err := range errs {
		if err == nil {
			report.Covered++
		} else if firstErr == nil {
			firstErr, firstIdx = err, i
		}
	}
	if firstErr != nil {
		if !c.cfg.Degrade || report.Covered == 0 {
			return nil, report, fmt.Errorf("parallel: server %d: %w", firstIdx, firstErr)
		}
		report.Degraded = true
	}

	merged := make([]*query.AnswerList, len(queries))
	for qi := range queries {
		l := query.NewAnswerList(queries[qi].Type)
		for si := range c.servers {
			if errs[si] != nil {
				continue
			}
			for _, a := range perServer[si][qi].Answers() {
				l.Consider(a.ID, a.Dist)
			}
		}
		merged[qi] = l
	}
	return merged, report, nil
}

// check refuses, before any server is called, a batch no server could
// answer; a query only a server can judge (its dimension) comes back from
// each as a final refusal that does not count against it (see rejected).
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

// call runs server i's attempts for one operation: the breaker check, the
// retry policy (see classify) and the health record.
func (c *Cluster) call(ctx context.Context, i int, queries []msq.Query) ([]*query.AnswerList, ServerStats, error) {
	br := &c.breakers[i]
	var health ServerHealth
	var wait time.Duration
	var err error
	for try := 0; try <= c.cfg.Retries; try++ {
		if try > 0 && wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if !br.allow() {
			err = ErrCircuitOpen
			break
		}
		health.Attempts++
		start := time.Now()
		var res []*query.AnswerList
		var st ServerStats
		res, st, err = c.attempt(ctx, c.servers[i], queries)
		health.Latency = time.Since(start)
		if err == nil {
			br.success()
			health.OK = true
			st.Health = health
			return res, st, nil
		}
		retryable, after, trips := classify(err)
		// An attempt the caller cancelled says nothing about the server.
		if trips && ctx.Err() == nil {
			br.failure()
		}
		if !retryable || ctx.Err() != nil {
			break
		}
		// A server's retry-after hint is the least wait: retrying sooner
		// than it asked just gets shed again.
		wait = after
	}
	health.Err = err.Error()
	return nil, ServerStats{Health: health}, err
}

// attempt runs one call under the per-attempt timeout. The call runs on its
// own goroutine and races the timer and ctx, because a page read or a
// connection may hang where no context reaches it: on expiry the attempt is
// abandoned — its context is cancelled, so it stops at its next page
// barrier or connection deadline, and its result is discarded. I/O an
// abandoned in-process attempt issued still shows in its disk's cumulative
// statistics.
func (c *Cluster) attempt(ctx context.Context, srv Server, queries []msq.Query) ([]*query.AnswerList, ServerStats, error) {
	type outcome struct {
		res []*query.AnswerList
		st  ServerStats
		err error
	}
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan outcome, 1)
	go func() {
		res, st, err := srv.Call(attemptCtx, queries)
		done <- outcome{res, st, err}
	}()
	var expired <-chan time.Time
	if c.cfg.Timeout > 0 {
		timer := time.NewTimer(c.cfg.Timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case o := <-done:
		return o.res, o.st, o.err
	case <-expired:
		return nil, ServerStats{}, fmt.Errorf("parallel: server timed out after %v", c.cfg.Timeout)
	case <-ctx.Done():
		return nil, ServerStats{}, ctx.Err()
	}
}

// classify maps a failed attempt onto the retry policy: whether another
// attempt can help, the least wait before it, and whether the failure is
// server trouble that counts toward the circuit breaker. An error that
// carries its own policy — a remote server's coded refusal, an in-process
// server's rejected query — states it through a Classify method; anything
// else (a storage fault, a timeout, a broken connection) is retryable
// server trouble.
func classify(err error) (retryable bool, retryAfter time.Duration, trips bool) {
	var policy interface {
		Classify() (retryable bool, retryAfter time.Duration, trips bool)
	}
	if errors.As(err, &policy) {
		return policy.Classify()
	}
	return true, 0, true
}

// rejected is a query an in-process server refused as the caller's
// mistake, the counterpart of a remote server's bad_request: final, and no
// sign of trouble on the server, which answered.
type rejected struct{ error }

func (rejected) Classify() (bool, time.Duration, bool) { return false, 0, false }

// Single evaluates one similarity query on all servers and merges the
// results.
func (c *Cluster) Single(q vec.Vector, t query.Type) (*query.AnswerList, Report, error) {
	res, rep, err := c.MultiQueryAll([]msq.Query{{ID: 0, Vec: q, Type: t}})
	if err != nil {
		return nil, rep, err
	}
	return res[0], rep, nil
}

// Call runs the batch on the partition's processor. A query the processor
// cannot evaluate is refused as rejected, as a wire server refuses it as
// bad_request.
func (l *local) Call(ctx context.Context, queries []msq.Query) ([]*query.AnswerList, ServerStats, error) {
	for _, q := range queries {
		if err := l.proc.CheckQuery(q); err != nil {
			return nil, ServerStats{}, rejected{err}
		}
	}
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
