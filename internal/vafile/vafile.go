// Package vafile implements a vector-approximation file in the spirit of
// Weber, Schek and Blott (VLDB 1998), which the paper cites as the
// refined alternative to the plain sequential scan: every vector is
// quantized into a small bit approximation kept in memory; a query first
// scans the approximations, deriving per-item lower and upper distance
// bounds from the quantization cells, and only reads the exact vectors of
// candidates that the bounds cannot exclude.
//
// Mapped onto this library's engine interface, the approximation scan
// implements Plan/MinDist/MaxDist: a data page's lower bound is the
// minimum over its items' cell lower bounds, so the multiple-similarity-
// query machinery (page sharing, incremental buffering, avoidance) works
// unchanged on top of a VA-file — demonstrating the paper's claim that the
// techniques apply to "an implementation based on an index or using a
// sequential scan". A query scans the approximations once, on its handle's
// first probe, and every probe reads the per-page bounds that scan left.
// Queries prepared as one block (PrepareBlock) share their scan, four to a
// pass, as Weber et al. share it among the queries of a batch.
//
// The approximation array is immutable after construction and a scan's
// working tables come from a free list, so the query path
// (Prepare/ReadPage and any number of handles) is safe for concurrent
// readers, as the engine contract requires.
package vafile

import (
	"fmt"
	"math"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Config parameterizes a VA-file.
type Config struct {
	// Bits per dimension (1..8); zero selects 6, i.e. 64 cells per
	// dimension (the VA-file paper's recommended range is 4-8).
	Bits int
	// PageCapacity is the number of exact vectors per data page; zero
	// derives it from 32 KB blocks.
	PageCapacity int
	// BufferPages sizes the LRU buffer (0 disables; negative selects the
	// 10 % default).
	BufferPages int
	// Metric is used for the cell bounds. Nil selects Euclidean. Only
	// coordinatewise metrics produce nonzero bounds; anything else makes
	// the VA-file degrade to a plain scan.
	Metric vec.Metric
	// WrapDisk, when non-nil, interposes on the freshly built disk before
	// the pager is attached — the hook used to run the engine on
	// fault-injected storage. Approximations are built from the in-memory
	// pages, so construction never reads through the wrapper.
	WrapDisk func(store.PageSource) (store.PageSource, error)
}

// Engine is a VA-file over a paged vector file.
type Engine struct {
	pager  *store.Pager
	metric vec.Metric
	base   vec.Metric // unwrapped metric used for bound arithmetic
	cw     bool       // base is coordinatewise
	// kernel is base's term/combine/finish when vec ships it (Term is nil
	// otherwise); tables and laneTables are the free lists of the per-sweep
	// cell tables built from it, one query's and four's — a sweep holds one,
	// so a few cover any number of sessions.
	kernel     vec.GapKernel
	tables     chan []cellTerm
	laneTables chan []laneTerm
	dim        int
	bits       int
	cells      int
	bounds     [][]float64 // per dimension: cells+1 boundaries
	pages      []pageApprox
	numItems   int
	// pageCapacity is the resolved build-time page capacity, kept for
	// EXPLAIN output.
	pageCapacity int
	// asm selects sweepPageLanesAVX2 over sweepPageLanes, by the row kernel's
	// rule (GOARCH, the purego tag, the CPU); tests clear it to run the
	// portable body.
	asm bool
}

// pageApprox holds the in-memory approximations of one data page.
type pageApprox struct {
	cells []uint8 // item-major: item*dim + d
	n     int
}

var (
	_ engine.Engine        = (*Engine)(nil)
	_ engine.BlockPreparer = (*Engine)(nil)
)

// New builds a VA-file over items.
func New(items []store.Item, cfg Config) (*Engine, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("vafile: empty database")
	}
	if cfg.Bits == 0 {
		cfg.Bits = 6
	}
	if cfg.Bits < 1 || cfg.Bits > 8 {
		return nil, fmt.Errorf("vafile: bits per dimension must be in [1,8], got %d", cfg.Bits)
	}
	dim := items[0].Vec.Dim()
	if dim < 1 {
		return nil, fmt.Errorf("vafile: dimension must be positive, got %d", dim)
	}
	if cfg.PageCapacity == 0 {
		cfg.PageCapacity = store.PageCapacityForBlockSize(32768, dim)
	}
	if cfg.PageCapacity < 1 {
		return nil, fmt.Errorf("vafile: page capacity must be >= 1, got %d", cfg.PageCapacity)
	}
	if cfg.Metric == nil {
		cfg.Metric = vec.Euclidean{}
	}

	pages, err := store.Paginate(items, cfg.PageCapacity)
	if err != nil {
		return nil, fmt.Errorf("vafile: %w", err)
	}
	disk, err := store.NewDisk(pages)
	if err != nil {
		return nil, fmt.Errorf("vafile: %w", err)
	}
	var src store.PageSource = disk
	if cfg.WrapDisk != nil {
		if src, err = cfg.WrapDisk(disk); err != nil {
			return nil, fmt.Errorf("vafile: %w", err)
		}
	}
	bufPages := cfg.BufferPages
	if bufPages < 0 {
		bufPages = store.DefaultBufferPages(len(pages))
	}
	var buf *store.Buffer
	if bufPages > 0 {
		if buf, err = store.NewBuffer(bufPages); err != nil {
			return nil, fmt.Errorf("vafile: %w", err)
		}
	}
	pager, err := store.NewPager(src, buf)
	if err != nil {
		return nil, fmt.Errorf("vafile: %w", err)
	}

	e := &Engine{
		pager:        pager,
		metric:       cfg.Metric,
		dim:          dim,
		bits:         cfg.Bits,
		cells:        1 << cfg.Bits,
		numItems:     len(items),
		pageCapacity: cfg.PageCapacity,
	}
	e.base = vec.BaseMetric(cfg.Metric)
	if cw, ok := e.base.(vec.Coordinatewise); ok && cw.CoordinatewiseMetric() {
		e.cw = true
		e.kernel, _ = vec.GapKernelOf(e.base)
		e.tables = make(chan []cellTerm, 4)
		e.laneTables = make(chan []laneTerm, 4)
		e.asm = vec.HaveAVX2()
	}
	if err := e.buildBoundaries(items); err != nil {
		return nil, err
	}
	e.quantize(pages)
	return e, nil
}

// buildBoundaries computes equi-width cell boundaries per dimension from
// the data's min/max range. A coordinate that is not finite has no cell, and
// a range wider than float64 has no cell width: both are errors.
func (e *Engine) buildBoundaries(items []store.Item) error {
	if err := store.CheckFinite(items); err != nil {
		return fmt.Errorf("vafile: %w", err)
	}
	e.bounds = make([][]float64, e.dim)
	for d := 0; d < e.dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range items {
			v := items[i].Vec[d]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi == lo {
			hi = lo + 1 // constant dimension: one degenerate cell range
		}
		if math.IsInf(hi-lo, 1) {
			return fmt.Errorf("vafile: dimension %d spans [%v, %v], wider than float64 holds", d, lo, hi)
		}
		b := make([]float64, e.cells+1)
		step := (hi - lo) / float64(e.cells)
		for c := 0; c <= e.cells; c++ {
			b[c] = lo + float64(c)*step
		}
		b[e.cells] = hi // avoid floating-point shortfall at the top edge
		e.bounds[d] = b
	}
	return nil
}

// quantize stores the approximation of every page.
func (e *Engine) quantize(pages []*store.Page) {
	e.pages = make([]pageApprox, len(pages))
	for pi, p := range pages {
		pa := pageApprox{cells: make([]uint8, len(p.Items)*e.dim), n: len(p.Items)}
		for it := range p.Items {
			for d := 0; d < e.dim; d++ {
				pa.cells[it*e.dim+d] = e.cellOf(d, p.Items[it].Vec[d])
			}
		}
		e.pages[pi] = pa
	}
}

// cellOf returns the cell index of value v in dimension d.
func (e *Engine) cellOf(d int, v float64) uint8 {
	b := e.bounds[d]
	lo, hi := b[0], b[e.cells]
	if v <= lo {
		return 0
	}
	if v >= hi {
		return uint8(e.cells - 1)
	}
	c := int(float64(e.cells) * (v - lo) / (hi - lo))
	if c >= e.cells {
		c = e.cells - 1
	}
	// Guard against floating-point drift at cell edges.
	for c > 0 && v < b[c] {
		c--
	}
	for c < e.cells-1 && v >= b[c+1] {
		c++
	}
	return uint8(c)
}

// Name returns "vafile".
func (e *Engine) Name() string { return "vafile" }

// Describe reports the approximation resolution for EXPLAIN output.
func (e *Engine) Describe() engine.Config {
	return engine.Config{PageCapacity: e.pageCapacity, Bits: e.bits}
}

// Prepare returns the per-query handle; the approximation scan runs on its
// first probe.
func (e *Engine) Prepare(q vec.Vector) engine.PreparedQuery {
	return &prepared{e: e, q: q}
}

// PrepareBlock prepares qs as one block: the first probe of any of its
// handles sweeps the approximations for all of them, four queries a pass
// (sweepLanes), and leaves each the bits its lone handle would compute.
func (e *Engine) PrepareBlock(qs []vec.Vector, dst []engine.PreparedQuery) {
	block := make([]prepared, len(qs))
	for i, q := range qs {
		block[i] = prepared{e: e, q: q, block: block}
		dst[i] = &block[i]
	}
}

// prepared answers page probes for one query: its first probe sweeps the
// approximation array and keeps every page's bounds, so each Plan, MinDist
// and MaxDist after it is an array read.
type prepared struct {
	e *Engine
	q vec.Vector
	// block holds the handles prepared together with this one, itself
	// included; nil for a lone handle.
	block []prepared
	// bounds[2*pid], bounds[2*pid+1]: lower and upper bound of page pid.
	bounds []float64 // nil until the first probe
}

// swept returns the per-page bounds, computing them — for the whole block,
// if the handle has one — on first use.
func (p *prepared) swept() []float64 {
	if p.bounds == nil {
		if p.block != nil {
			p.e.sweepBlock(p.block)
		} else {
			p.bounds = make([]float64, 2*len(p.e.pages))
			p.e.sweep(p.q, p.bounds)
		}
	}
	return p.bounds
}

// sweep writes the bounds of every page for q — its minimum item lower bound
// and maximum item upper bound — to bounds. A metric that is not
// coordinatewise knows nothing about a cell: every page gets [0, +Inf)
// without a sweep and the VA-file degrades to the scan.
func (e *Engine) sweep(q vec.Vector, bounds []float64) {
	switch {
	case !e.cw:
		for pi := range e.pages {
			bounds[2*pi+1] = math.Inf(1)
		}
	case e.kernel.Term != nil:
		t := take(e.tables, e.dim*e.cells)
		e.fillTables(t, q)
		for pi := range e.pages {
			bounds[2*pi], bounds[2*pi+1] = e.sweepPage(t, &e.pages[pi])
		}
		give(e.tables, t)
	default:
		gap, zero := make(vec.Vector, e.dim), make(vec.Vector, e.dim)
		for pi := range e.pages {
			bounds[2*pi], bounds[2*pi+1] = e.sweepPageByGapVector(q, &e.pages[pi], gap, zero)
		}
	}
}

// lanes is the number of queries one pass of sweepLanes serves, and
// minLanes the fewest worth a pass of the portable body: a shorter remainder
// of a block costs less swept one query at a time. A pass of the assembly
// costs no more than one lone sweep, so there every remainder takes one
// (BenchmarkSweep's block arms price both bodies).
const lanes, minLanes = 4, 3

// sweepBlock sweeps for every handle of block into one allocation: each
// group of lanes queries shares a pass, and so does a remainder worth one; a
// shorter one, and every query of a metric whose terms are combined by max
// or that vec does not ship, is swept alone.
func (e *Engine) sweepBlock(block []prepared) {
	n := 2 * len(e.pages)
	slab := make([]float64, n*len(block))
	for i := range block {
		block[i].bounds = slab[i*n : (i+1)*n : (i+1)*n]
	}
	i, least := 0, minLanes
	if e.asm {
		least = 1
	}
	if e.kernel.Term != nil && !e.kernel.Max {
		for ; i+least <= len(block); i += lanes {
			e.sweepLanes(block[i:min(i+lanes, len(block))])
		}
	}
	for ; i < len(block); i++ {
		e.sweep(block[i].q, block[i].bounds)
	}
}

// take returns a table from free, or a new one of n entries.
func take[T any](free chan []T, n int) []T {
	select {
	case t := <-free:
		return t
	default:
		return make([]T, n)
	}
}

// give returns t to free, or drops it when the list is full.
func give[T any](free chan []T, t []T) {
	select {
	case free <- t:
	default:
	}
}

// cellTerm is what one cell of one dimension adds to a bound: the term of
// the metric's Distance loop for the gap between the query's coordinate and
// the cell (lo; 0 inside the cell) and its farther edge (up).
type cellTerm struct{ lo, up float64 }

// fillTables writes the cellTerm of cell c of dimension d to t[d*cells+c].
func (e *Engine) fillTables(t []cellTerm, q vec.Vector) {
	for d, b := range e.bounds {
		row := t[d*e.cells : (d+1)*e.cells]
		for c := range row {
			row[c] = cellTerm{
				lo: e.kernel.Term(d, vec.BoxGap(q[d], b[c], b[c+1], false)),
				up: e.kernel.Term(d, vec.BoxGap(q[d], b[c], b[c+1], true)),
			}
		}
	}
}

// sweepPage combines the table entries of each item's cells the way the
// metric combines its terms — in dimension order, so with the bits of
// Distance(gap, zero) — and returns the page's smallest lower and largest
// upper combination, finished (sqrt, pow or nothing: monotone, so once per
// page does what once per item did).
func (e *Engine) sweepPage(t []cellTerm, pa *pageApprox) (lb, ub float64) {
	dim, ncells, byMax := e.dim, e.cells, e.kernel.Max
	lb = math.Inf(1)
	for cells := pa.cells; len(cells) >= dim; cells = cells[dim:] {
		var lo, up float64
		if byMax {
			for d, c := range cells[:dim] {
				ct := &t[d*ncells+int(c)]
				lo, up = max(lo, ct.lo), max(up, ct.up)
			}
		} else {
			for d, c := range cells[:dim] {
				ct := &t[d*ncells+int(c)]
				lo, up = lo+ct.lo, up+ct.up
			}
		}
		lb, ub = min(lb, lo), max(ub, up)
	}
	return e.kernel.Finish(lb), e.kernel.Finish(ub)
}

// laneTerm is cellTerm for the queries of one sweepLanes pass: lane j of lo
// and up belongs to query j. It is 64 bytes, one cache line and two AVX2
// registers.
type laneTerm struct{ lo, up [lanes]float64 }

// laneBounds is what a lane pass over one page leaves: lane j's smallest
// lower and largest upper combination, not yet finished.
type laneBounds struct{ lb, ub [lanes]float64 }

// sweepLanes sweeps the approximations once for the one to lanes queries of
// group; the idle lanes of a short group repeat its last query.
func (e *Engine) sweepLanes(group []prepared) {
	t := take(e.laneTables, e.dim*e.cells)
	e.fillLaneTables(t, group)
	var b laneBounds
	for pi := range e.pages {
		if e.asm {
			sweepPageLanesAVX2(t, e.pages[pi].cells, e.dim, e.cells, &b)
		} else {
			sweepPageLanes(t, e.pages[pi].cells, e.dim, e.cells, &b)
		}
		for j := range group {
			group[j].bounds[2*pi], group[j].bounds[2*pi+1] = e.kernel.Finish(b.lb[j]), e.kernel.Finish(b.ub[j])
		}
	}
	give(e.laneTables, t)
}

// fillLaneTables is fillTables for the queries of group, lane j for group[j];
// the idle lanes of a short group repeat its last query.
func (e *Engine) fillLaneTables(t []laneTerm, group []prepared) {
	for d, b := range e.bounds {
		row := t[d*e.cells : (d+1)*e.cells]
		for j := range lanes {
			q := group[min(j, len(group)-1)].q
			for c := range row {
				row[c].lo[j] = e.kernel.Term(d, vec.BoxGap(q[d], b[c], b[c+1], false))
				row[c].up[j] = e.kernel.Term(d, vec.BoxGap(q[d], b[c], b[c+1], true))
			}
		}
	}
}

// sweepPageLanes is sweepPage for a sum-combined metric and four queries,
// short of the finish: each lane adds its own terms t[d*ncells+cell] in
// dimension order from zero and takes the same min and max, so once its
// caller finishes lane j it holds the bits sweepPage returns for query j. It
// is the portable body and the definition of sweepPageLanesAVX2. The
// dimension loop tests at its bottom (New rejects dim 0) so that the sum
// leaving it is the last add's, not the loop header's: the compiler then
// folds each table load into its add and keeps all eight sums in registers,
// which a range loop spills (≈ 1.35× slower).
func sweepPageLanes(t []laneTerm, cells []uint8, dim, ncells int, b *laneBounds) {
	lb := [lanes]float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}
	var ub [lanes]float64
	for ; len(cells) >= dim; cells = cells[dim:] {
		var lo0, lo1, lo2, lo3, up0, up1, up2, up3 float64
		for d := 0; ; {
			ct := &t[d*ncells+int(cells[d])]
			lo0, lo1, lo2, lo3 = lo0+ct.lo[0], lo1+ct.lo[1], lo2+ct.lo[2], lo3+ct.lo[3]
			up0, up1, up2, up3 = up0+ct.up[0], up1+ct.up[1], up2+ct.up[2], up3+ct.up[3]
			if d++; d == dim {
				break
			}
		}
		lb[0], lb[1], lb[2], lb[3] = min(lb[0], lo0), min(lb[1], lo1), min(lb[2], lo2), min(lb[3], lo3)
		ub[0], ub[1], ub[2], ub[3] = max(ub[0], up0), max(ub[1], up1), max(ub[2], up2), max(ub[3], up3)
	}
	b.lb, b.ub = lb, ub
}

// sweepPageByGapVector is sweepPage for a coordinatewise metric vec does not
// ship: it fills each item's two gap vectors and asks the metric itself.
func (e *Engine) sweepPageByGapVector(q vec.Vector, pa *pageApprox, gap, zero vec.Vector) (lb, ub float64) {
	lb = math.Inf(1)
	for cells := pa.cells; len(cells) >= e.dim; cells = cells[e.dim:] {
		for _, far := range [2]bool{false, true} {
			for d, c := range cells[:e.dim] {
				gap[d] = vec.BoxGap(q[d], e.bounds[d][c], e.bounds[d][int(c)+1], far)
			}
			if b := e.base.Distance(gap, zero); far {
				ub = max(ub, b)
			} else {
				lb = min(lb, b)
			}
		}
	}
	return lb, ub
}

// Plan performs the approximation scan (phase 1 of VA-file query
// processing): every page whose best item lower bound is within queryDist
// becomes a candidate, ordered by ascending lower bound so that k-NN
// processing can stop early, exactly like an index plan.
func (p *prepared) Plan(queryDist float64) []engine.PageRef {
	bounds := p.swept()
	n := 0
	for pi := 0; pi < len(bounds); pi += 2 {
		if bounds[pi] <= queryDist {
			n++
		}
	}
	refs := make([]engine.PageRef, 0, n)
	for pi := 0; pi < len(bounds); pi += 2 {
		if bounds[pi] <= queryDist {
			refs = append(refs, engine.PageRef{ID: store.PageID(pi / 2), MinDist: bounds[pi]})
		}
	}
	engine.SortPlan(refs)
	return refs
}

// MinDist returns the page's approximation lower bound.
func (p *prepared) MinDist(pid store.PageID) float64 { return p.swept()[2*pid] }

// MaxDist returns an upper bound on the distance from q to any item on the
// page (the maximum item upper bound).
func (p *prepared) MaxDist(pid store.PageID) float64 { return p.swept()[2*pid+1] }

// PageLen returns the number of items on the page.
func (e *Engine) PageLen(pid store.PageID) int { return e.pages[pid].n }

// ReadPage fetches the exact vectors of a page (phase 2).
func (e *Engine) ReadPage(pid store.PageID) (*store.Page, error) {
	return e.pager.ReadPage(pid)
}

// NumPages returns the number of data pages.
func (e *Engine) NumPages() int { return len(e.pages) }

// NumItems returns the number of stored items.
func (e *Engine) NumItems() int { return e.numItems }

// Pager returns the underlying pager.
func (e *Engine) Pager() *store.Pager { return e.pager }

// ApproximationBytes reports the in-memory size of the approximations,
// the VA-file's footprint relative to 8·dim bytes per exact vector.
func (e *Engine) ApproximationBytes() int {
	total := 0
	for i := range e.pages {
		total += len(e.pages[i].cells)
	}
	return total
}
