package metricdb

import (
	"context"
	"fmt"
	"io"

	"metricdb/internal/engine"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/store"
)

// EngineKind selects the physical data organization. The values mirror the
// registry of internal/engines; Open, OpenStored, and OpenCluster all
// construct engines through that registry.
type EngineKind string

// Supported engines.
const (
	// EngineScan is the sequential scan: always applicable, sequential
	// I/O only, and the maximal beneficiary of multiple similarity
	// queries (the per-query I/O speed-up is exactly m).
	EngineScan = EngineKind(engines.Scan)
	// EngineXTree is the X-tree index: selective in low and moderate
	// dimensions, with supernodes avoiding high-overlap directory splits.
	EngineXTree = EngineKind(engines.XTree)
	// EngineVAFile is the vector-approximation file: a scan over
	// in-memory bit-quantized approximations that reads only the exact
	// vectors its distance bounds cannot exclude — the refined scan the
	// paper cites (Weber et al., VLDB 1998).
	EngineVAFile = EngineKind(engines.VAFile)
	// EnginePivot is the LAESA-style pivot table: pivot-to-item distances
	// precomputed at page granularity, so each query pays one distance
	// per pivot and then prunes pages by the triangle inequality alone —
	// applicable in any metric space, with no coordinate geometry.
	EnginePivot = EngineKind(engines.Pivot)
	// EnginePMTree is the PM-tree: a paged metric tree whose nodes carry
	// both covering balls and pivot hyper-rings, pruning with whichever
	// bound is tighter.
	EnginePMTree = EngineKind(engines.PMTree)
)

// Options configures Open. The zero value selects a sequential scan with
// Euclidean distance, a page capacity derived from 32 KB blocks, the
// paper's 10 %-of-pages LRU buffer, and no avoidance lemmas (AvoidAuto with
// a metric whose kernel abandons early). Each engine is built one way,
// with fixed parameters: the X-tree by dynamic insertion with R*-style
// splits and supernodes past 20 % directory overlap, the VA-file with 6 bits
// a dimension, the pivot table with 16 pivots, the PM-tree with 8 pivots and
// a directory fanout of 8.
type Options struct {
	// Engine selects the physical organization; empty means EngineScan.
	Engine EngineKind
	// Metric is the distance function; nil means Euclidean.
	Metric Metric
	// PageCapacity is the number of items per data page; 0 derives it
	// from a 32 KB block at the data's dimensionality.
	PageCapacity int
	// BufferPages sizes the LRU page buffer; 0 selects the 10 % default
	// and a negative value disables buffering.
	BufferPages int
	// Avoidance selects the triangle-inequality mode; the zero value is
	// AvoidAuto, which applies both lemmas only when a distance is a full
	// calculation (the metric has no early-abandoning kernel of its own:
	// QuadraticForm, or any metric from outside this module).
	// ProcessorStats reports the mode in effect.
	Avoidance AvoidanceMode
}

// Validate checks the options for structural mistakes without consulting a
// database: an unknown engine kind, a negative page capacity or one the
// engine cannot split (the X-tree halves an overflowing page, so it needs
// at least two items a page), or an unknown avoidance mode. It accepts
// every zero or sentinel value that Open would default (PageCapacity 0,
// BufferPages <= 0, nil Metric, empty Engine), so Validate(withDefaults(...))
// is stable. Command-line front ends call it to reject flag mistakes before
// any data is loaded.
func (o Options) Validate() error {
	if o.Engine != "" && !engines.Known(engines.Kind(o.Engine)) {
		return fmt.Errorf("metricdb: unknown engine %q (have %v)", o.Engine, engines.Kinds())
	}
	if o.PageCapacity < 0 {
		return fmt.Errorf("metricdb: page capacity must be >= 0 (0 derives from 32 KB blocks), got %d", o.PageCapacity)
	}
	if o.Engine == EngineXTree && o.PageCapacity == 1 {
		return fmt.Errorf("metricdb: the X-tree needs a page capacity of 0 (derived) or >= 2, got 1")
	}
	if err := o.Avoidance.Validate(); err != nil {
		return fmt.Errorf("metricdb: %w", err)
	}
	return nil
}

// withDefaults resolves the zero and sentinel values of validated options
// against a concrete database shape: nil Metric becomes Euclidean,
// PageCapacity 0 derives from a 32 KB block at the data's dimensionality
// (at least two items for the X-tree, which halves an overflowing page, even
// where a block holds one vector), and the BufferPages sentinel (0 = the
// paper's 10 % default, negative = unbuffered) is resolved into the
// returned concrete page count. The
// returned options are fully explicit except BufferPages, which keeps its
// sentinel so the caller's intent remains readable from DB.Options-style
// introspection.
func (o Options) withDefaults(dim, nItems int) (Options, int) {
	if o.Metric == nil {
		o.Metric = Euclidean()
	}
	if o.Engine == "" {
		o.Engine = EngineScan
	}
	if o.PageCapacity == 0 {
		o.PageCapacity = store.PageCapacityForBlockSize(32768, dim)
		if o.Engine == EngineXTree {
			o.PageCapacity = max(o.PageCapacity, 2)
		}
	}
	bufferPages := o.BufferPages
	switch {
	case bufferPages == 0:
		bufferPages = store.DefaultBufferPages((nItems + o.PageCapacity - 1) / o.PageCapacity)
	case bufferPages < 0:
		bufferPages = 0
	}
	return o, bufferPages
}

// engineSpec translates resolved public options into the engine registry's
// request — the module's only bridge to engine construction. The options
// must already be defaulted (withDefaults); wrap may be nil.
func (o Options) engineSpec(items []Item, dim, bufferPages int,
	wrap func(store.PageSource) (store.PageSource, error)) engines.Spec {
	return engines.Spec{
		Kind:         engines.Kind(o.Engine),
		Items:        items,
		Dim:          dim,
		Metric:       o.Metric,
		PageCapacity: o.PageCapacity,
		BufferPages:  bufferPages,
		WrapDisk:     wrap,
	}
}

// DB is a metric database ready to answer similarity queries. A DB is safe
// for concurrent single queries; batches (sessions) are single-goroutine.
type DB struct {
	items []Item
	dim   int
	eng   engine.Engine
	proc  *msq.Processor
	opts  Options
	// closers holds the file-backed disks of a stored database; nil for
	// the in-memory databases Open builds.
	closers []io.Closer
}

// Open builds a database over items. Items must be numbered 0..n-1 (see
// NewItems) and dimensionally consistent. The DB keeps the slice and the
// vectors, so neither may change while it is open: the X-tree engine copies
// the coordinates into its data pages (8·dim bytes an item, one array in
// page order), and every other engine reads the caller's vectors. Options
// are checked with Options.Validate and defaulted with the documented
// sentinel rules before the engine is built.
func Open(items []Item, opts Options) (*DB, error) {
	dim, err := validateItems(items)
	if err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts, bufferPages := opts.withDefaults(dim, len(items))
	if opts.PageCapacity < 1 {
		return nil, fmt.Errorf("metricdb: page capacity must be >= 1, got %d", opts.PageCapacity)
	}

	eng, err := engines.Build(opts.engineSpec(items, dim, bufferPages, nil))
	if err != nil {
		return nil, err
	}

	proc, err := msq.New(eng, opts.Metric, msq.Options{Avoidance: opts.Avoidance})
	if err != nil {
		return nil, err
	}
	return &DB{items: items, dim: dim, eng: eng, proc: proc, opts: opts}, nil
}

// Len returns the number of stored items.
func (db *DB) Len() int { return len(db.items) }

// Dim returns the dimensionality of the stored vectors.
func (db *DB) Dim() int { return db.dim }

// Items returns the stored items. The slice is shared, not copied.
func (db *DB) Items() []Item { return db.items }

// Item returns the item with the given ID.
func (db *DB) Item(id ItemID) (Item, error) {
	if int(id) >= len(db.items) {
		return Item{}, fmt.Errorf("metricdb: no item %d in database of %d items", id, len(db.items))
	}
	return db.items[id], nil
}

// Engine returns the engine kind in use.
func (db *DB) Engine() EngineKind {
	if db.opts.Engine == "" {
		return EngineScan
	}
	return db.opts.Engine
}

// NumPages returns the number of data pages of the physical organization.
func (db *DB) NumPages() int { return db.eng.NumPages() }

// Query evaluates a single similarity query (the algorithm of Figure 1)
// and returns the answers in ascending distance order.
func (db *DB) Query(q Vector, t QueryType) ([]Answer, Stats, error) {
	return db.QueryContext(context.Background(), q, t)
}

// QueryContext is Query with cancellation: the page loop checks ctx once
// per data page and aborts with ctx's error when it is canceled or past its
// deadline. On the uncanceled path the context costs one check per page and
// perturbs neither answers nor statistics.
func (db *DB) QueryContext(ctx context.Context, q Vector, t QueryType) ([]Answer, Stats, error) {
	answers, stats, err := db.proc.SingleContext(ctx, q, t)
	if err != nil {
		return nil, stats, err
	}
	return answers.Answers(), stats, nil
}

// ResetCounters zeroes the I/O and distance counters and clears the page
// buffer, so a following measurement starts cold. It returns the I/O
// statistics accumulated so far.
func (db *DB) ResetCounters() store.IOStats {
	db.proc.Metric().Reset()
	return db.eng.Pager().ResetStats()
}

// IOStats returns the accumulated simulated-disk statistics.
func (db *DB) IOStats() store.IOStats { return db.eng.Pager().Disk().Stats() }

// Batch is a multiple-similarity-query session: partial answers are
// buffered across calls, and so are the distances between the queries that
// are still incomplete, so a call that repeats most of the previous call's
// queries — a window sliding over a mining job's seed list — pays for the
// queries that entered, not for the batch. A completed query keeps only its
// answers; a Batch that lives long grows with the answers it has returned
// and with nothing else. Not safe for concurrent use.
type Batch struct {
	db      *DB
	session *msq.Session
}

// NewBatch starts a session for incremental multiple similarity queries.
func (db *DB) NewBatch() *Batch {
	return &Batch{db: db, session: db.proc.NewSession()}
}

// Query evaluates a multiple similarity query per Definition 4: the
// answers for queries[0] are complete; those of the remaining queries are
// correct partial results, completed by later calls that list them first.
// The returned answer slices are aligned with queries.
func (b *Batch) Query(queries []Query) ([][]Answer, Stats, error) {
	return b.QueryContext(context.Background(), queries)
}

// QueryContext is Query with cancellation: the page loop checks ctx once
// per data page. An aborted call keeps the partial answers collected so far
// buffered in the batch, so a later call resumes rather than restarts.
func (b *Batch) QueryContext(ctx context.Context, queries []Query) ([][]Answer, Stats, error) {
	lists, stats, err := b.session.MultiQueryContext(ctx, queries)
	if err != nil {
		return nil, stats, err
	}
	out := make([][]Answer, len(lists))
	for i, l := range lists {
		out[i] = l.Answers()
	}
	return out, stats, nil
}

// QueryAll evaluates the whole batch to completion, reusing every page and
// buffered answer across the queries.
func (b *Batch) QueryAll(queries []Query) ([][]Answer, Stats, error) {
	return b.QueryAllContext(context.Background(), queries)
}

// QueryAllContext is QueryAll with cancellation (see QueryContext for the
// resume-after-abort semantics).
func (b *Batch) QueryAllContext(ctx context.Context, queries []Query) ([][]Answer, Stats, error) {
	lists, stats, err := b.session.MultiQueryAllContext(ctx, queries)
	if err != nil {
		return nil, stats, err
	}
	out := make([][]Answer, len(lists))
	for i, l := range lists {
		out[i] = l.Answers()
	}
	return out, stats, nil
}

// Explain is a per-batch EXPLAIN profile: per-query work attribution
// (pages visited, distance calculations, Lemma 1 vs Lemma 2 avoidance,
// early-abandoned kernels), buffer-pool hit/miss/eviction deltas, and wall
// time per processing phase. Obtain one with DB.Explain or
// DB.ExplainContext.
type Explain = msq.Explain

// Profile is the per-query slice of an Explain.
type Profile = msq.Profile

// Explain evaluates the batch to completion like Batch.QueryAll while
// attributing the work to each query position. The answers and Stats
// embedded in the profile are bit-identical to an unprofiled run.
func (db *DB) Explain(queries []Query) (*Explain, error) {
	return db.ExplainContext(context.Background(), queries)
}

// ExplainContext is Explain bounded by ctx (checked once per data page).
func (db *DB) ExplainContext(ctx context.Context, queries []Query) (*Explain, error) {
	return db.proc.ExplainContext(ctx, queries)
}

// Ranking is an incremental nearest-neighbor iterator: objects are emitted
// in ascending distance, reading data pages lazily (the Hjaltason–Samet
// ranking the paper's page scheduling is based on). Obtain one with
// DB.Ranking; call Next until ok is false.
type Ranking = msq.Ranking

// Ranking starts an incremental nearest-neighbor ranking from q. Stopping
// after k results costs exactly what an optimal k-NN query costs, without
// fixing k in advance.
func (db *DB) Ranking(q Vector) (*Ranking, error) {
	return db.proc.Ranking(q)
}

// ProcessorStats is a point-in-time view of the query processor: its active
// configuration and the cumulative distance-calculation counters since Open
// (or the last ResetCounters). Unlike the per-call Stats, these counters
// aggregate over every query, batch, and mining method on the DB.
type ProcessorStats struct {
	// Avoidance is the triangle-inequality mode in effect: never AvoidAuto,
	// but what it resolved to for this database's metric.
	Avoidance AvoidanceMode
	// RowKernel is the instruction set the blocked page pass runs on:
	// "avx512" or "avx2" (an assembly Euclidean kernel) or "go" (the
	// portable one, and every other metric's).
	RowKernel string
	// DistCalcs counts distance calculations, including ones abandoned
	// mid-vector by the bounded kernel.
	DistCalcs int64
	// PartialAbandoned counts the abandoned subset of DistCalcs.
	PartialAbandoned int64
	// PivotDistCalcs counts the query-to-pivot setup distances of the
	// pivot-filtering engines (zero for engines without a pivot phase).
	PivotDistCalcs int64
}

// ProcessorStats reports the processor's configuration and cumulative work.
func (db *DB) ProcessorStats() ProcessorStats {
	ps := ProcessorStats{
		Avoidance:        db.proc.Options().Avoidance,
		RowKernel:        db.proc.RowKernel(),
		DistCalcs:        db.proc.Metric().Count(),
		PartialAbandoned: db.proc.Metric().Abandoned(),
	}
	if pc, ok := db.eng.(engine.PivotCoster); ok {
		ps.PivotDistCalcs = pc.PivotDistCalcs()
	}
	return ps
}

// Processor exposes the underlying multiple-similarity-query processor for
// in-module integrations such as the wire server.
//
// Deprecated: Processor leaks the internal msq package through the public
// API, so code outside this module cannot use the returned value. Use
// Query/QueryContext, NewBatch and ProcessorStats instead; in-module
// integrations (cmd/msqserver) remain the only sanctioned callers.
func (db *DB) Processor() *msq.Processor { return db.proc }
