// Package pivot implements a LAESA-style pivot table engine (Micó, Oncina
// and Vidal's Linear Approximating and Eliminating Search Algorithm,
// adapted to page granularity): a small set of pivot objects is chosen from
// the data by farthest-first traversal, the distance from every pivot to
// every item is computed once at build time, and each data page keeps the
// per-pivot minimum and maximum of those distances. A query computes its
// distance to each pivot exactly once (in Engine.Prepare); every page probe
// then costs only arithmetic:
//
//	lb(page) = max over pivots p of max(d(q,p) − maxD(p,page),
//	                                    minD(p,page) − d(q,p), 0)
//	ub(page) = min over pivots p of d(q,p) + maxD(p,page)
//
// Both follow from the triangle inequality alone — for every item o on the
// page, |d(q,p) − d(p,o)| ≤ d(q,o) ≤ d(q,p) + d(p,o) and d(p,o) lies in
// [minD, maxD] — so the bounds are sound for any metric, unlike MBR
// geometry, which needs coordinatewise structure. The table is the
// data-side sibling of the paper's query-distance matrix: the same lemmas,
// precomputed against fixed reference objects instead of the batch's other
// queries.
//
// Page bounds are only as tight as the pages are coherent, so New lays
// items out in pivot order — sorted by their distance to the first pivot —
// which makes every page a thin annulus around that pivot and its rings
// genuinely selective. NewStored instead serves whatever pagination an
// existing dataset directory has (the table is computed for that layout,
// persisted beside the pages, and reloaded without any distance
// calculations — see persist.go); bounds over an incoherent layout are
// looser but remain sound.
package pivot

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// DefaultPivots is the pivot count when the configuration does not choose
// one. LAESA's accuracy grows quickly and then saturates with the pivot
// count; 16 keeps the table a few pages' worth of floats while giving the
// lower bounds most of their power at moderate intrinsic dimensionality.
const DefaultPivots = 16

// Config parameterizes a pivot table engine.
type Config struct {
	// Pivots is the number of pivots; 0 selects DefaultPivots. Values
	// above the item count are clamped at build time.
	Pivots int
	// PageCapacity is the number of items per data page. Required.
	PageCapacity int
	// BufferPages sizes the LRU buffer (0 disables; negative selects the
	// 10 % default).
	BufferPages int
	// Metric is the distance used for pivot selection, the table, and the
	// per-query pivot distances. Nil selects Euclidean.
	Metric vec.Metric
	// WrapDisk, when non-nil, interposes on the freshly built disk before
	// the pager is attached (fault injection).
	WrapDisk func(store.PageSource) (store.PageSource, error)
}

// Table is the precomputed pivot structure: the pivots themselves and the
// per-page aggregates of the pivot-to-item distances. It is independent of
// the query path and serializable (see persist.go).
type Table struct {
	// MetricName names the metric the distances were computed under; a
	// table loaded for a different metric is unusable.
	MetricName string
	// Generation and Items bind a persisted table to the dataset build it
	// was computed from (the manifest's generation and item count).
	Generation int64
	Items      int
	// Dim is the vector dimensionality of the pivots.
	Dim int
	// Pivots are the chosen reference objects, in selection order.
	Pivots []vec.Vector
	// MinD[p][page] and MaxD[p][page] are the minimum and maximum of
	// d(Pivots[p], o) over the items o of the page.
	MinD [][]float64
	MaxD [][]float64
	// BuildDistCalcs is the number of metric evaluations the construction
	// spent (pivot selection rows double as table rows, so this is
	// len(Pivots) × Items). Not persisted.
	BuildDistCalcs int64
}

// NumPivots returns the pivot count.
func (t *Table) NumPivots() int { return len(t.Pivots) }

// NumPages returns the page count the table was aggregated over.
func (t *Table) NumPages() int {
	if len(t.MinD) == 0 {
		return 0
	}
	return len(t.MinD[0])
}

// BuildTable selects npivots pivots by farthest-first traversal and
// aggregates the pivot-to-item distance matrix at page granularity, with
// pages defined by pageLens over items in order (the sequential layout of
// store.Paginate and of persistent dataset directories). The construction
// is deterministic: the first pivot is the first item, and each further
// pivot is the item maximizing its distance to the nearest already-chosen
// pivot (ties broken by lowest index), so a rebuilt table is bit-identical
// to a persisted one.
func BuildTable(items []store.Item, pageLens []int, npivots int, metric vec.Metric) (*Table, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("pivot: empty database")
	}
	if npivots <= 0 {
		npivots = DefaultPivots
	}
	if npivots > len(items) {
		npivots = len(items)
	}
	if metric == nil {
		metric = vec.Euclidean{}
	}
	total := 0
	for _, n := range pageLens {
		if n < 0 {
			return nil, fmt.Errorf("pivot: negative page length")
		}
		total += n
	}
	if total != len(items) {
		return nil, fmt.Errorf("pivot: page lengths sum to %d items, expected %d", total, len(items))
	}

	t := &Table{
		MetricName: metric.Name(),
		Items:      len(items),
		Dim:        items[0].Vec.Dim(),
		Pivots:     make([]vec.Vector, 0, npivots),
		MinD:       make([][]float64, 0, npivots),
		MaxD:       make([][]float64, 0, npivots),
	}
	// nearest[o] is the distance from item o to its closest chosen pivot;
	// the next pivot is the argmax. Each chosen pivot's full distance row
	// is exactly a table row, so selection costs nothing extra.
	nearest := make([]float64, len(items))
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	next := 0
	row := make([]float64, len(items))
	for len(t.Pivots) < npivots {
		pv := append(vec.Vector(nil), items[next].Vec...)
		for o := range items {
			d := metric.Distance(pv, items[o].Vec)
			row[o] = d
			if d < nearest[o] {
				nearest[o] = d
			}
		}
		t.BuildDistCalcs += int64(len(items))
		minD, maxD := aggregateRow(row, pageLens)
		t.Pivots = append(t.Pivots, pv)
		t.MinD = append(t.MinD, minD)
		t.MaxD = append(t.MaxD, maxD)
		next = 0
		for o := 1; o < len(items); o++ {
			if nearest[o] > nearest[next] {
				next = o
			}
		}
	}
	return t, nil
}

// orderByPivot returns the items sorted by ascending distance to the first
// item — the pivot the farthest-first selection starts from — with ties
// broken by input position. Sequential pagination of the result yields
// annulus-shaped pages whose first-pivot rings are as thin as the data
// allows. The sort is deterministic and does not mutate the input slice.
func orderByPivot(items []store.Item, metric vec.Metric) []store.Item {
	type keyed struct {
		d   float64
		idx int
	}
	keys := make([]keyed, len(items))
	first := items[0].Vec
	for i := range items {
		keys[i] = keyed{d: metric.Distance(first, items[i].Vec), idx: i}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].d != keys[j].d {
			return keys[i].d < keys[j].d
		}
		return keys[i].idx < keys[j].idx
	})
	ordered := make([]store.Item, len(items))
	for i, k := range keys {
		ordered[i] = items[k.idx]
	}
	return ordered
}

// aggregateRow folds one pivot's item distances into per-page minima and
// maxima. Empty pages get [+Inf, -Inf], which makes their lower bound +Inf —
// an empty page can contain no answer.
func aggregateRow(row []float64, pageLens []int) (minD, maxD []float64) {
	minD = make([]float64, len(pageLens))
	maxD = make([]float64, len(pageLens))
	off := 0
	for pg, n := range pageLens {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, d := range row[off : off+n] {
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		minD[pg], maxD[pg] = lo, hi
		off += n
	}
	return minD, maxD
}

// Engine is a pivot table engine over a paged database. The page layout is
// identical to the sequential scan's; only the probe answers differ.
type Engine struct {
	pager        *store.Pager
	metric       vec.Metric
	table        *Table
	numItems     int
	pageLens     []int
	pageCapacity int
	pivotCalcs   atomic.Int64
}

var (
	_ engine.Engine      = (*Engine)(nil)
	_ engine.PivotCoster = (*Engine)(nil)
	_ engine.Described   = (*Engine)(nil)
)

// New builds a pivot engine over items according to cfg: items are laid
// out in pivot order (ascending distance to the first pivot, ties by input
// position), paginated onto a fresh simulated disk, and the pivot table is
// computed from that pagination.
func New(items []store.Item, cfg Config) (*Engine, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("pivot: empty database")
	}
	if cfg.Metric == nil {
		cfg.Metric = vec.Euclidean{}
	}
	items = orderByPivot(items, cfg.Metric)
	pages, err := store.Paginate(items, cfg.PageCapacity)
	if err != nil {
		return nil, fmt.Errorf("pivot: %w", err)
	}
	disk, err := store.NewDisk(pages)
	if err != nil {
		return nil, fmt.Errorf("pivot: %w", err)
	}
	var src store.PageSource = disk
	if cfg.WrapDisk != nil {
		if src, err = cfg.WrapDisk(disk); err != nil {
			return nil, fmt.Errorf("pivot: %w", err)
		}
	}
	bufPages := cfg.BufferPages
	if bufPages < 0 {
		bufPages = store.DefaultBufferPages(len(pages))
	}
	var buf *store.Buffer
	if bufPages > 0 {
		if buf, err = store.NewBuffer(bufPages); err != nil {
			return nil, fmt.Errorf("pivot: %w", err)
		}
	}
	pager, err := store.NewPager(src, buf)
	if err != nil {
		return nil, fmt.Errorf("pivot: %w", err)
	}
	lens := make([]int, len(pages))
	for i, p := range pages {
		lens[i] = len(p.Items)
	}
	table, err := BuildTable(items, lens, cfg.Pivots, cfg.Metric)
	if err != nil {
		return nil, err
	}
	return &Engine{
		pager:        pager,
		metric:       cfg.Metric,
		table:        table,
		numItems:     len(items),
		pageLens:     lens,
		pageCapacity: cfg.PageCapacity,
	}, nil
}

// NewStored builds a pivot engine over an existing pager (a persistent
// dataset's own page layout) and an already-available table — either loaded
// from the dataset directory (no distance calculations at all) or freshly
// built by the caller. The table must match the pagination.
func NewStored(pager *store.Pager, table *Table, metric vec.Metric, numItems int, pageLens []int, pageCapacity int) (*Engine, error) {
	if pager == nil {
		return nil, fmt.Errorf("pivot: nil pager")
	}
	if table == nil {
		return nil, fmt.Errorf("pivot: nil table")
	}
	if metric == nil {
		metric = vec.Euclidean{}
	}
	if err := table.CheckShape(metric.Name(), numItems, len(pageLens)); err != nil {
		return nil, err
	}
	total := 0
	for _, n := range pageLens {
		total += n
	}
	if total != numItems {
		return nil, fmt.Errorf("pivot: page lengths sum to %d items, expected %d", total, numItems)
	}
	return &Engine{
		pager:        pager,
		metric:       metric,
		table:        table,
		numItems:     numItems,
		pageLens:     append([]int(nil), pageLens...),
		pageCapacity: pageCapacity,
	}, nil
}

// CheckShape verifies that the table describes a dataset of the given
// metric, item count and page count — the validation both NewStored and the
// persisted-table loader apply before trusting a table.
func (t *Table) CheckShape(metricName string, items, pages int) error {
	if t.MetricName != metricName {
		return fmt.Errorf("pivot: table built under metric %q, want %q", t.MetricName, metricName)
	}
	if t.Items != items {
		return fmt.Errorf("pivot: table covers %d items, dataset holds %d", t.Items, items)
	}
	if len(t.Pivots) == 0 {
		return fmt.Errorf("pivot: table has no pivots")
	}
	for p := range t.Pivots {
		if len(t.MinD[p]) != pages || len(t.MaxD[p]) != pages {
			return fmt.Errorf("pivot: table row %d covers %d pages, dataset has %d", p, len(t.MinD[p]), pages)
		}
	}
	return nil
}

// Table exposes the engine's pivot table (for persistence).
func (e *Engine) Table() *Table { return e.table }

// Name returns "pivot".
func (e *Engine) Name() string { return "pivot" }

// Describe reports the pivot count for EXPLAIN output.
func (e *Engine) Describe() engine.Config {
	return engine.Config{PageCapacity: e.pageCapacity, Pivots: len(e.table.Pivots)}
}

// PivotDistCalcs returns the cumulative count of query-to-pivot distance
// calculations paid by Prepare.
func (e *Engine) PivotDistCalcs() int64 { return e.pivotCalcs.Load() }

// Prepare computes d(q, p) for every pivot p — the engine's entire
// per-query cost. Every subsequent Plan/MinDist/MaxDist probe is pure
// arithmetic over the table.
func (e *Engine) Prepare(q vec.Vector) engine.PreparedQuery {
	qp := make([]float64, len(e.table.Pivots))
	for i, pv := range e.table.Pivots {
		qp[i] = e.metric.Distance(q, pv)
	}
	e.pivotCalcs.Add(int64(len(qp)))
	return &prepared{e: e, qp: qp}
}

// prepared answers page probes for one query from the cached pivot
// distances.
type prepared struct {
	e  *Engine
	qp []float64
}

// Plan returns every page whose pivot lower bound is within queryDist, in
// ascending lower-bound order (ties by page ID).
func (p *prepared) Plan(queryDist float64) []engine.PageRef {
	n := len(p.e.pageLens)
	refs := make([]engine.PageRef, 0, n)
	for pid := 0; pid < n; pid++ {
		lb := p.lowerBound(pid)
		if lb <= queryDist {
			refs = append(refs, engine.PageRef{ID: store.PageID(pid), MinDist: lb})
		}
	}
	engine.SortPlan(refs)
	return refs
}

// MinDist returns the pivot lower bound for the page.
func (p *prepared) MinDist(pid store.PageID) float64 { return p.lowerBound(int(pid)) }

// MaxDist returns the pivot upper bound for the page: the tightest
// d(q,pivot) + maxD over the pivots.
func (p *prepared) MaxDist(pid store.PageID) float64 {
	t := p.e.table
	best := math.Inf(1)
	for i, qp := range p.qp {
		maxD := t.MaxD[i][pid]
		if math.IsInf(maxD, -1) {
			continue // empty page: no finite upper bound needed
		}
		if ub := qp + maxD; ub < best {
			best = ub
		}
	}
	return best
}

func (p *prepared) lowerBound(pid int) float64 {
	t := p.e.table
	best := 0.0
	for i, qp := range p.qp {
		if d := qp - t.MaxD[i][pid]; d > best {
			best = d
		}
		if d := t.MinD[i][pid] - qp; d > best {
			best = d
		}
	}
	return best
}

// PageLen returns the number of items on the page.
func (e *Engine) PageLen(pid store.PageID) int { return e.pageLens[pid] }

// ReadPage reads a data page through the pager.
func (e *Engine) ReadPage(pid store.PageID) (*store.Page, error) {
	return e.pager.ReadPage(pid)
}

// NumPages returns the number of data pages.
func (e *Engine) NumPages() int { return len(e.pageLens) }

// NumItems returns the number of stored items.
func (e *Engine) NumItems() int { return e.numItems }

// Pager returns the underlying pager.
func (e *Engine) Pager() *store.Pager { return e.pager }
