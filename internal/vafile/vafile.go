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
// sequential scan".
//
// The approximation array is immutable after construction, so the query
// path (Plan/MinDist/MaxDist/ReadPage) is safe for concurrent readers, as
// the engine contract requires.
package vafile

import (
	"fmt"
	"math"
	"sort"

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
	pager    *store.Pager
	metric   vec.Metric
	base     vec.Metric // unwrapped metric used for bound arithmetic
	cw       bool       // base is coordinatewise
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

// itemLowerBound returns the cell-derived lower bound on the distance from
// q to the it-th item of page pi, writing the per-dimension gaps into
// scratch (len dim).
func (e *Engine) itemLowerBound(q vec.Vector, pi store.PageID, it int, scratch, zero vec.Vector) float64 {
	if !e.cw {
		return 0
	}
	cells := e.pages[pi].cells[it*e.dim : (it+1)*e.dim]
	for d := 0; d < e.dim; d++ {
		b := e.bounds[d]
		c := int(cells[d])
		lo, hi := b[c], b[c+1]
		switch {
		case q[d] < lo:
			scratch[d] = lo - q[d]
		case q[d] > hi:
			scratch[d] = q[d] - hi
		default:
			scratch[d] = 0
		}
	}
	return e.base.Distance(scratch, zero)
}

// itemUpperBound is the matching farthest-corner bound.
func (e *Engine) itemUpperBound(q vec.Vector, pi store.PageID, it int, scratch, zero vec.Vector) float64 {
	if !e.cw {
		return math.Inf(1)
	}
	cells := e.pages[pi].cells[it*e.dim : (it+1)*e.dim]
	for d := 0; d < e.dim; d++ {
		b := e.bounds[d]
		c := int(cells[d])
		lo := math.Abs(q[d] - b[c])
		hi := math.Abs(q[d] - b[c+1])
		if lo > hi {
			scratch[d] = lo
		} else {
			scratch[d] = hi
		}
	}
	return e.base.Distance(scratch, zero)
}

// Name returns "vafile".
func (e *Engine) Name() string { return "vafile" }

// Describe reports the approximation resolution for EXPLAIN output.
func (e *Engine) Describe() engine.Config {
	return engine.Config{PageCapacity: e.pageCapacity, Bits: e.bits}
}

// Prepare returns the per-query handle. The handle owns the per-dimension
// scratch vectors that the cell-bound arithmetic needs, so a query pays the
// two allocations once instead of on every page probe.
func (e *Engine) Prepare(q vec.Vector) engine.PreparedQuery {
	return &prepared{
		e:       e,
		q:       q,
		scratch: make(vec.Vector, e.dim),
		zero:    make(vec.Vector, e.dim),
	}
}

// prepared answers page probes for one query against the in-memory
// approximation array.
type prepared struct {
	e       *Engine
	q       vec.Vector
	scratch vec.Vector
	zero    vec.Vector
}

// Plan performs the approximation scan (phase 1 of VA-file query
// processing): every page whose best item lower bound is within queryDist
// becomes a candidate, ordered by ascending lower bound so that k-NN
// processing can stop early, exactly like an index plan.
func (p *prepared) Plan(queryDist float64) []engine.PageRef {
	e := p.e
	refs := make([]engine.PageRef, 0, len(e.pages))
	for pi := range e.pages {
		pid := store.PageID(pi)
		lb := e.pageLowerBound(p.q, pid, p.scratch, p.zero)
		if lb <= queryDist {
			refs = append(refs, engine.PageRef{ID: pid, MinDist: lb})
		}
	}
	sortRefs(refs)
	return refs
}

func sortRefs(refs []engine.PageRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].MinDist != refs[j].MinDist {
			return refs[i].MinDist < refs[j].MinDist
		}
		return refs[i].ID < refs[j].ID
	})
}

// pageLowerBound is the minimum item lower bound of the page.
func (e *Engine) pageLowerBound(q vec.Vector, pid store.PageID, scratch, zero vec.Vector) float64 {
	pa := &e.pages[pid]
	best := math.Inf(1)
	for it := 0; it < pa.n; it++ {
		if lb := e.itemLowerBound(q, pid, it, scratch, zero); lb < best {
			best = lb
			if best == 0 {
				break
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// MinDist returns the page's approximation lower bound.
func (p *prepared) MinDist(pid store.PageID) float64 {
	return p.e.pageLowerBound(p.q, pid, p.scratch, p.zero)
}

// MaxDist returns an upper bound on the distance from q to any item on the
// page (the maximum item upper bound).
func (p *prepared) MaxDist(pid store.PageID) float64 {
	e := p.e
	if !e.cw {
		return math.Inf(1)
	}
	pa := &e.pages[pid]
	worst := 0.0
	for it := 0; it < pa.n; it++ {
		if ub := e.itemUpperBound(p.q, pid, it, p.scratch, p.zero); ub > worst {
			worst = ub
		}
	}
	return worst
}

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
