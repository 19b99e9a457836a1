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
	// Columns selects whether a columnar float64 block is materialized on
	// each page at build time for the blocked distance kernels.
	Columns store.ColumnSpec
}

// Engine is a VA-file over a paged vector file.
type Engine struct {
	pager  *store.Pager
	metric vec.Metric
	base   vec.Metric // unwrapped metric used for bound arithmetic
	cw     bool       // base is coordinatewise
	// kernel is base's term/combine/finish when vec ships it (Term is nil
	// otherwise); tables is the free list of the per-sweep cell tables built
	// from it — a sweep holds one, so a few cover any number of sessions.
	kernel   vec.GapKernel
	tables   chan []cellTerm
	dim      int
	bits     int
	cells    int
	bounds   [][]float64 // per dimension: cells+1 boundaries
	pages    []pageApprox
	numItems int
	// pageCapacity is the resolved build-time page capacity, kept for
	// EXPLAIN output.
	pageCapacity int
}

// pageApprox holds the in-memory approximations of one data page.
type pageApprox struct {
	cells []uint8 // item-major: item*dim + d
	n     int
}

var _ engine.Engine = (*Engine)(nil)

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
	if err := store.Columnize(pages, cfg.Columns); err != nil {
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
	}
	e.buildBoundaries(items)
	e.quantize(pages)
	return e, nil
}

// buildBoundaries computes equi-width cell boundaries per dimension from
// the data's min/max range.
func (e *Engine) buildBoundaries(items []store.Item) {
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
		b := make([]float64, e.cells+1)
		step := (hi - lo) / float64(e.cells)
		for c := 0; c <= e.cells; c++ {
			b[c] = lo + float64(c)*step
		}
		b[e.cells] = hi // avoid floating-point shortfall at the top edge
		e.bounds[d] = b
	}
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

// prepared answers page probes for one query: its first probe sweeps the
// approximation array and keeps every page's bounds, so each Plan, MinDist
// and MaxDist after it is an array read.
type prepared struct {
	e *Engine
	q vec.Vector
	// bounds[2*pid], bounds[2*pid+1]: lower and upper bound of page pid.
	bounds []float64 // nil until the first probe
}

// swept returns the per-page bounds — the minimum item lower bound and the
// maximum item upper bound of every page — computing them on first use. A
// metric that is not coordinatewise knows nothing about a cell: every page
// gets [0, +Inf) without a sweep and the VA-file degrades to the scan.
func (p *prepared) swept() []float64 {
	if p.bounds != nil {
		return p.bounds
	}
	e := p.e
	p.bounds = make([]float64, 2*len(e.pages))
	switch {
	case !e.cw:
		for pi := range e.pages {
			p.bounds[2*pi+1] = math.Inf(1)
		}
	case e.kernel.Term != nil:
		var t []cellTerm
		select {
		case t = <-e.tables:
		default:
			t = make([]cellTerm, e.dim*e.cells)
		}
		e.fillTables(t, p.q)
		for pi := range e.pages {
			p.bounds[2*pi], p.bounds[2*pi+1] = e.sweepPage(t, &e.pages[pi])
		}
		select {
		case e.tables <- t:
		default:
		}
	default:
		gap, zero := make(vec.Vector, e.dim), make(vec.Vector, e.dim)
		for pi := range e.pages {
			p.bounds[2*pi], p.bounds[2*pi+1] = e.sweepPageByGapVector(p.q, &e.pages[pi], gap, zero)
		}
	}
	return p.bounds
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
