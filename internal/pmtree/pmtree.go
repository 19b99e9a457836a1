// Package pmtree implements a PM-tree engine (Skopal & Lokoč's Pivoting
// M-tree): a paged metric tree whose nodes carry both the M-tree's ball
// region — a routing center with a covering radius — and per-pivot
// hyper-rings, the [min, max] interval of the distances from a global pivot
// to every item under the node. A query prunes a node when EITHER bound
// proves it empty of answers:
//
//	ball lower bound:  d(q, center) − radius
//	ring lower bound:  max over pivots p of
//	                   max(d(q,p) − ringMax(p), ringMin(p) − d(q,p))
//
// Both follow from the triangle inequality alone, so the tree is sound for
// any metric. The hyper-rings reuse the same global pivots as the LAESA
// table of internal/pivot; the per-query pivot distances d(q, p) are
// computed once in Engine.Prepare and shared by every node probe, while
// the routing-center distances d(q, center) are computed lazily per node
// and memoized in the prepared handle — the contract redesign that makes a
// metric tree affordable under the multi-query processor's many page
// probes.
//
// The build is a deterministic bulk load: leaf pages are formed by
// capacity-bounded farthest-first clustering (each cluster seed claims its
// nearest unassigned items), and the directory is grown bottom-up by
// grouping consecutive nodes under a routing entry whose ball and rings
// cover its children. Rebuilt trees are therefore bit-identical.
package pmtree

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// DefaultFanout is the directory fanout when the configuration does not
// choose one.
const DefaultFanout = 8

// DefaultPivots is the hyper-ring pivot count when the configuration does
// not choose one. Rings pay off faster than a flat pivot table because the
// ball bound already does coarse pruning; 8 keeps node entries compact.
const DefaultPivots = 8

// Config parameterizes a PM-tree.
type Config struct {
	// PageCapacity is the number of items per leaf data page. Required.
	PageCapacity int
	// Fanout is the directory fanout; 0 selects DefaultFanout.
	Fanout int
	// Pivots is the number of hyper-ring pivots; 0 selects DefaultPivots.
	Pivots int
	// BufferPages sizes the LRU buffer (0 disables; negative selects the
	// 10 % default).
	BufferPages int
	// Metric is the distance the tree is built and probed under. Nil
	// selects Euclidean.
	Metric vec.Metric
	// WrapDisk, when non-nil, interposes on the freshly built disk before
	// the pager is attached (fault injection, persisted layouts).
	WrapDisk func(store.PageSource) (store.PageSource, error)
}

// node is one tree node. Leaves reference a data page; internal nodes
// reference a contiguous child range. Nodes are stored in one slice with
// children preceding parents (bottom-up build), the root last.
type node struct {
	center vec.Vector
	radius float64
	// ringMin/ringMax are the per-pivot hyper-rings over all items under
	// the node.
	ringMin []float64
	ringMax []float64
	// pid is the data page for leaves; InvalidPage for internal nodes.
	pid store.PageID
	// firstChild/numChildren describe the child range of internal nodes.
	firstChild  int
	numChildren int
}

func (n *node) isLeaf() bool { return n.pid != store.InvalidPage }

// Engine is a PM-tree engine over a paged database.
type Engine struct {
	pager        *store.Pager
	metric       vec.Metric
	pivots       []vec.Vector
	nodes        []node // children before parents; root is the last entry
	numItems     int
	numPages     int
	pageCapacity int
	fanout       int
	buildCalcs   int64
	pivotCalcs   atomic.Int64
}

var (
	_ engine.Engine      = (*Engine)(nil)
	_ engine.PivotCoster = (*Engine)(nil)
	_ engine.Described   = (*Engine)(nil)
)

// New bulk-loads a PM-tree over items according to cfg.
func New(items []store.Item, cfg Config) (*Engine, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("pmtree: empty database")
	}
	if cfg.PageCapacity < 1 {
		return nil, fmt.Errorf("pmtree: page capacity must be >= 1, got %d", cfg.PageCapacity)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = DefaultFanout
	}
	if cfg.Fanout < 2 {
		return nil, fmt.Errorf("pmtree: fanout must be >= 2, got %d", cfg.Fanout)
	}
	if cfg.Metric == nil {
		cfg.Metric = vec.Euclidean{}
	}
	e := &Engine{
		metric:       cfg.Metric,
		pageCapacity: cfg.PageCapacity,
		fanout:       cfg.Fanout,
	}

	far := newFarthestFirst(e.metric, items)
	clusters := e.cluster(items, cfg.PageCapacity, far)
	e.selectPivots(items, cfg.Pivots, far)

	// Materialize the leaf pages in cluster order and their nodes.
	pages := make([]*store.Page, len(clusters))
	e.numPages = len(clusters)
	e.nodes = make([]node, 0, 2*len(clusters))
	for pid, cl := range clusters {
		members := make([]store.Item, len(cl.members))
		for i, idx := range cl.members {
			members[i] = items[idx]
		}
		pages[pid] = &store.Page{ID: store.PageID(pid), Items: members}
		e.numItems += len(members)
		e.nodes = append(e.nodes, e.leafNode(store.PageID(pid), items[cl.seed].Vec, members))
	}
	e.buildDirectory(len(clusters))

	disk, err := store.NewDisk(pages)
	if err != nil {
		return nil, fmt.Errorf("pmtree: %w", err)
	}
	var src store.PageSource = disk
	if cfg.WrapDisk != nil {
		if src, err = cfg.WrapDisk(disk); err != nil {
			return nil, fmt.Errorf("pmtree: %w", err)
		}
	}
	bufPages := cfg.BufferPages
	if bufPages < 0 {
		bufPages = store.DefaultBufferPages(len(pages))
	}
	var buf *store.Buffer
	if bufPages > 0 {
		if buf, err = store.NewBuffer(bufPages); err != nil {
			return nil, fmt.Errorf("pmtree: %w", err)
		}
	}
	if e.pager, err = store.NewPager(src, buf); err != nil {
		return nil, fmt.Errorf("pmtree: %w", err)
	}
	return e, nil
}

// cluster forms capacity-bounded leaf clusters by farthest-first traversal:
// seeds are chosen to be mutually far apart (the first seed is item 0, each
// next seed the item farthest from every earlier seed), then each seed in
// order claims its nearest unassigned items up to the page capacity. The
// construction is deterministic; ties break toward the lowest item index.
type clusterInfo struct {
	seed    int
	members []int
}

func (e *Engine) cluster(items []store.Item, capacity int, far *farthestFirst) []clusterInfo {
	n := len(items)
	numPages := (n + capacity - 1) / capacity
	// Farthest-first seeds.
	seeds := make([]int, 0, numPages)
	far.reset()
	for next := 0; len(seeds) < numPages; {
		seeds = append(seeds, next)
		next = far.add(items[next].Vec)
		e.buildCalcs += int64(n)
	}
	// Capacity-bounded assignment: each seed in order claims its nearest
	// unassigned items. The last cluster absorbs the remainder, so every
	// item is assigned and no cluster exceeds the capacity. left and rows
	// are the unassigned items' indexes, ascending, and vectors.
	assigned := make([]bool, n)
	clusters := make([]clusterInfo, numPages)
	cands := make([]cand, 0, n)
	left, rows := make([]int, n), slices.Clone(far.rows)
	for o := range left {
		left[o] = o
	}
	for ci, seed := range seeds {
		dists := far.dists[:len(rows)]
		far.distances(items[seed].Vec, rows, dists)
		cands = cands[:0]
		for j, o := range left {
			cands = append(cands, cand{d: dists[j], idx: o})
		}
		e.buildCalcs += int64(len(cands))
		take := capacity
		if remainingClusters := numPages - ci - 1; len(cands)-take < remainingClusters {
			// Never strand later seeds without items (cannot happen with
			// exact arithmetic, but keep the invariant explicit).
			take = len(cands) - remainingClusters
		}
		if ci == numPages-1 {
			take = len(cands)
		}
		nearestFirst(cands, take)
		members := make([]int, 0, take)
		for _, c := range cands[:take] {
			assigned[c.idx] = true
			members = append(members, c.idx)
		}
		slices.Sort(members) // keep the dataset's item order within a page
		clusters[ci] = clusterInfo{seed: seed, members: members}
		kept := 0
		for j, o := range left {
			if !assigned[o] {
				left[kept], rows[kept] = o, rows[j]
				kept++
			}
		}
		left, rows = left[:kept], rows[:kept]
	}
	return clusters
}

// cand is an unassigned item at distance d from the seed claiming items.
type cand struct {
	d   float64
	idx int
}

// candLess orders candidates by distance, then index: a strict total order
// on finite distances, so the k smallest are one set however they are
// found.
func candLess(a, b cand) bool {
	return a.d < b.d || (a.d == b.d && a.idx < b.idx)
}

// nearestFirst reorders cands so that its first k entries are the k
// smallest under candLess, in no particular order — Hoare's selection with a
// median-of-three pivot, O(len(cands)) expected, where sorting every
// candidate cost O(n log n) per seed.
func nearestFirst(cands []cand, k int) {
	lo, hi := 0, len(cands)
	if k <= lo || k >= hi {
		return
	}
	// Invariant: every entry of [0, lo) is below every entry of [lo, n),
	// every entry of [hi, n) above every entry of [0, hi), lo <= k <= hi.
	for hi-lo > 16 {
		mid := lo + (hi-lo)/2
		last := hi - 1
		if candLess(cands[mid], cands[lo]) {
			cands[mid], cands[lo] = cands[lo], cands[mid]
		}
		if candLess(cands[last], cands[mid]) {
			cands[last], cands[mid] = cands[mid], cands[last]
			if candLess(cands[mid], cands[lo]) {
				cands[mid], cands[lo] = cands[lo], cands[mid]
			}
		}
		// The median is the pivot; park it at the end and partition.
		cands[mid], cands[last] = cands[last], cands[mid]
		pivot := cands[last]
		below := lo
		for i := lo; i < last; i++ {
			if candLess(cands[i], pivot) {
				cands[i], cands[below] = cands[below], cands[i]
				below++
			}
		}
		cands[below], cands[last] = cands[last], cands[below]
		switch {
		case below == k:
			return
		case below < k:
			lo = below + 1
		default:
			hi = below
		}
	}
	// A short range left: sorting it puts every entry in its place.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && candLess(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// selectPivots chooses the global hyper-ring pivots by the same
// deterministic farthest-first traversal the pivot table uses.
func (e *Engine) selectPivots(items []store.Item, npivots int, far *farthestFirst) {
	if npivots <= 0 {
		npivots = DefaultPivots
	}
	if npivots > len(items) {
		npivots = len(items)
	}
	far.reset()
	e.pivots = make([]vec.Vector, 0, npivots)
	for next := 0; len(e.pivots) < npivots; {
		pv := append(vec.Vector(nil), items[next].Vec...)
		e.pivots = append(e.pivots, pv)
		next = far.add(pv)
		e.buildCalcs += int64(len(items))
	}
}

// farthestFirst is the state of a farthest-first traversal over the items:
// each item's distance to the nearest point chosen so far, and the scratch
// its distance sweeps write, which the claims in cluster reuse.
type farthestFirst struct {
	metric  vec.Metric
	lanes   *vec.Items // nil: the metric has no bounded kernel
	rows    []vec.Vector
	dists   []float64
	nearest []float64
}

func newFarthestFirst(m vec.Metric, items []store.Item) *farthestFirst {
	f := &farthestFirst{
		metric:  m,
		rows:    make([]vec.Vector, len(items)),
		dists:   make([]float64, len(items)),
		nearest: make([]float64, len(items)),
	}
	if bm, ok := m.(vec.BoundedMetric); ok {
		f.lanes = vec.NewItems(bm)
	}
	for i := range items {
		f.rows[i] = items[i].Vec
	}
	return f
}

// reset starts a new traversal: no point chosen, every item infinitely far.
func (f *farthestFirst) reset() {
	for i := range f.nearest {
		f.nearest[i] = math.Inf(1)
	}
}

// distances sets dists[i] to the metric's distance from q to rows[i]. Where
// the metric has a bounded kernel they come from the item-lane kernel under
// an infinite limit, vec.MaxSweepRows rows a sweep, which by the
// BoundedMetric contract is Distance bit for bit; only a NaN distance comes
// back +Inf, and coordinates the engines accept give none.
func (f *farthestFirst) distances(q vec.Vector, rows []vec.Vector, dists []float64) {
	if f.lanes != nil {
		for base := 0; base < len(rows); base += vec.MaxSweepRows {
			f.lanes.Sweep(q, rows[base:min(base+vec.MaxSweepRows, len(rows))], math.Inf(1), dists[base:])
		}
		return
	}
	for i, r := range rows {
		dists[i] = f.metric.Distance(q, r)
	}
}

// add takes p as a chosen point and returns the item now farthest from
// every chosen point, the lowest index among equals.
func (f *farthestFirst) add(p vec.Vector) int {
	f.distances(p, f.rows, f.dists)
	next, farthest := 0, math.Inf(-1) // no nearest distance is NaN
	for o, d := range f.dists {
		near := f.nearest[o]
		if d < near {
			near = d
			f.nearest[o] = d
		}
		if near > farthest {
			next, farthest = o, near
		}
	}
	return next
}

// leafNode computes a leaf's ball and hyper-rings from its members.
func (e *Engine) leafNode(pid store.PageID, center vec.Vector, members []store.Item) node {
	nd := node{
		center:  append(vec.Vector(nil), center...),
		pid:     pid,
		ringMin: make([]float64, len(e.pivots)),
		ringMax: make([]float64, len(e.pivots)),
	}
	for i := range members {
		if d := e.metric.Distance(nd.center, members[i].Vec); d > nd.radius {
			nd.radius = d
		}
	}
	e.buildCalcs += int64(len(members))
	for p, pv := range e.pivots {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range members {
			d := e.metric.Distance(pv, members[i].Vec)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		e.buildCalcs += int64(len(members))
		nd.ringMin[p], nd.ringMax[p] = lo, hi
	}
	return nd
}

// buildDirectory grows the directory bottom-up: consecutive runs of fanout
// nodes are grouped under a parent whose ball and rings cover them, until
// one root remains. Nodes are appended after their children, so the root is
// always the slice's last entry.
func (e *Engine) buildDirectory(numLeaves int) {
	levelStart, levelLen := 0, numLeaves
	for levelLen > 1 {
		nextStart := len(e.nodes)
		for off := 0; off < levelLen; off += e.fanout {
			count := e.fanout
			if off+count > levelLen {
				count = levelLen - off
			}
			e.nodes = append(e.nodes, e.parentNode(levelStart+off, count))
		}
		levelStart, levelLen = nextStart, len(e.nodes)-nextStart
	}
}

// parentNode covers children [first, first+count): its center is the first
// child's routing center, its radius covers every child ball, and its rings
// are the elementwise union of the child rings.
func (e *Engine) parentNode(first, count int) node {
	children := e.nodes[first : first+count]
	nd := node{
		center:      children[0].center,
		pid:         store.InvalidPage,
		firstChild:  first,
		numChildren: count,
		ringMin:     make([]float64, len(e.pivots)),
		ringMax:     make([]float64, len(e.pivots)),
	}
	for p := range e.pivots {
		nd.ringMin[p] = math.Inf(1)
		nd.ringMax[p] = math.Inf(-1)
	}
	for i := range children {
		c := &children[i]
		d := 0.0
		if i > 0 {
			d = e.metric.Distance(nd.center, c.center)
			e.buildCalcs++
		}
		if r := d + c.radius; r > nd.radius {
			nd.radius = r
		}
		for p := range e.pivots {
			if c.ringMin[p] < nd.ringMin[p] {
				nd.ringMin[p] = c.ringMin[p]
			}
			if c.ringMax[p] > nd.ringMax[p] {
				nd.ringMax[p] = c.ringMax[p]
			}
		}
	}
	return nd
}

// Name returns "pmtree".
func (e *Engine) Name() string { return "pmtree" }

// Describe reports the tree's tuning for EXPLAIN output.
func (e *Engine) Describe() engine.Config {
	return engine.Config{PageCapacity: e.pageCapacity, Pivots: len(e.pivots), Fanout: e.fanout}
}

// PivotDistCalcs returns the cumulative count of per-query distance
// calculations paid by prepared handles: the pivot distances of Prepare
// plus the lazily memoized routing-center distances.
func (e *Engine) PivotDistCalcs() int64 { return e.pivotCalcs.Load() }

// BuildDistCalcs returns the number of metric evaluations the bulk load
// spent (clustering, pivot selection, ball radii and rings).
func (e *Engine) BuildDistCalcs() int64 { return e.buildCalcs }

// Prepare computes the query's pivot distances once and returns the handle
// that memoizes routing-center distances and per-page bounds: the handle
// and one slab holding the pivot distances and the memos.
func (e *Engine) Prepare(q vec.Vector) engine.PreparedQuery {
	np := len(e.pivots)
	p := &prepared{e: e, q: q, memo: make([]float64, np+len(e.nodes)+e.numPages)}
	for i, pv := range e.pivots {
		p.memo[i] = e.metric.Distance(q, pv)
	}
	e.pivotCalcs.Add(int64(np))
	for i := np; i < len(p.memo); i++ {
		p.memo[i] = math.NaN()
	}
	return p
}

// prepared answers page probes for one query. It memoizes the expensive
// parts — routing-center distances and per-leaf bounds — so repeated probes
// of the same page (plans, relevance checks, seeding) cost arithmetic
// only. PreparedQuery handles are single-owner by contract, so the memos
// need no locking.
type prepared struct {
	e *Engine
	q vec.Vector
	// memo: the query's pivot distances, then d(q, center) per node, then
	// leafMemo; NaN = not yet computed.
	memo []float64
}

// leafMemo returns the per-page memo of lower bounds.
func (p *prepared) leafMemo() []float64 {
	return p.memo[len(p.e.pivots)+len(p.e.nodes):]
}

// center returns the memoized d(q, center) of node i.
func (p *prepared) center(i int) float64 {
	m := &p.memo[len(p.e.pivots)+i]
	if !math.IsNaN(*m) {
		return *m
	}
	*m = p.e.metric.Distance(p.q, p.e.nodes[i].center)
	p.e.pivotCalcs.Add(1)
	return *m
}

// nodeLB is the node's lower bound: the larger of the ball bound and the
// strongest ring bound, floored at zero.
func (p *prepared) nodeLB(i int) float64 {
	nd := &p.e.nodes[i]
	lb := p.center(i) - nd.radius
	if lb < 0 {
		lb = 0
	}
	for pi, qp := range p.memo[:len(p.e.pivots)] {
		if d := qp - nd.ringMax[pi]; d > lb {
			lb = d
		}
		if d := nd.ringMin[pi] - qp; d > lb {
			lb = d
		}
	}
	return lb
}

// leafBound returns the memoized lower bound of the leaf holding page pid.
// Leaves occupy the first NumPages slots of the node slice in page order.
func (p *prepared) leafBound(pid store.PageID) float64 {
	lbs := p.leafMemo()
	if math.IsNaN(lbs[pid]) {
		lbs[pid] = p.nodeLB(int(pid))
	}
	return lbs[pid]
}

// planEntry is a heap entry of the best-first descent.
type planEntry struct {
	lb   float64
	node int
}

// planHeap is the descent's min-heap by (lb, node), typed so that no entry
// is boxed: push and pop sift as container/heap's Push and Pop do.
type planHeap []planEntry

func (h planHeap) less(i, j int) bool {
	if h[i].lb != h[j].lb {
		return h[i].lb < h[j].lb
	}
	return h[i].node < h[j].node
}

func (h planHeap) push(e planEntry) planHeap {
	h = append(h, e)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func (h planHeap) pop() (planEntry, planHeap) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[n], h[:n]
}

// Plan returns AppendPlan's refs in a new slice.
func (p *prepared) Plan(queryDist float64) []engine.PageRef { return p.AppendPlan(nil, queryDist) }

// AppendPlan descends the tree best-first and appends its leaves to dst:
// nodes are popped in ascending lower-bound order, internal nodes expand
// their children, and leaves are emitted — so the page schedule is the
// Hjaltason–Samet order. A child's lower bound is clamped to its parent's (a
// child region is contained in its parent's, so mathematically lb(child) ≥
// lb(parent); the clamp keeps the emitted order monotone under
// floating-point rounding). The heap lives in a frame array, on the heap
// only for a descent with more than 128 entries pending at once.
func (p *prepared) AppendPlan(dst []engine.PageRef, queryDist float64) []engine.PageRef {
	e := p.e
	if len(e.nodes) == 0 {
		return dst
	}
	root := len(e.nodes) - 1
	var frame [128]planEntry
	h := append(planHeap(frame[:0]), planEntry{lb: p.rootLB(root), node: root})
	dst = engine.GrowPlan(dst, e.numPages)
	lbs := p.leafMemo()
	for len(h) > 0 {
		var ent planEntry
		ent, h = h.pop()
		if ent.lb > queryDist {
			break // every remaining entry is at least as far
		}
		nd := &e.nodes[ent.node]
		if nd.isLeaf() {
			// Memoize the leaf bound under the same clamp the emitted ref
			// carries, so MinDist(pid) agrees with the plan entry.
			if math.IsNaN(lbs[nd.pid]) {
				lbs[nd.pid] = ent.lb
			}
			dst = append(dst, engine.PageRef{ID: nd.pid, MinDist: ent.lb})
			continue
		}
		for c := nd.firstChild; c < nd.firstChild+nd.numChildren; c++ {
			lb := p.nodeLB(c)
			if lb < ent.lb {
				lb = ent.lb
			}
			if lb <= queryDist {
				h = h.push(planEntry{lb: lb, node: c})
			}
		}
	}
	return dst
}

// rootLB is the root's lower bound, or the leaf bound when the tree is a
// single leaf.
func (p *prepared) rootLB(root int) float64 {
	if p.e.nodes[root].isLeaf() {
		return p.leafBound(p.e.nodes[root].pid)
	}
	return p.nodeLB(root)
}

// MinDist returns the leaf's lower bound.
func (p *prepared) MinDist(pid store.PageID) float64 { return p.leafBound(pid) }

// ReadPage reads a data page through the pager.
func (e *Engine) ReadPage(pid store.PageID) (*store.Page, error) {
	return e.pager.ReadPage(pid)
}

// NumPages returns the number of data pages.
func (e *Engine) NumPages() int { return e.numPages }

// NumItems returns the number of stored items.
func (e *Engine) NumItems() int { return e.numItems }

// Pager returns the underlying pager.
func (e *Engine) Pager() *store.Pager { return e.pager }
