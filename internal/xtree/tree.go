package xtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"metricdb/internal/geom"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// minFillRatio is the minimum fill of either half of a split, as a
// fraction of the overflowing node's entries: the R*-tree's 40 %.
const minFillRatio = 0.4

// Config parameterizes an X-tree.
type Config struct {
	// LeafCapacity is the number of items per data page. Required.
	LeafCapacity int
	// DirFanout is the normal directory fanout; supernodes grow in
	// multiples of it. Required.
	DirFanout int
	// MaxOverlap is the X-tree overlap threshold: if the best topological
	// split of a directory node overlaps more than this fraction of the
	// union volume, the node becomes a supernode instead. The X-tree
	// paper derives 20 % as a good threshold. Zero selects the default.
	MaxOverlap float64
	// BufferPages sizes the LRU data-page buffer created by Build.
	// Negative selects the paper's default of 10 % of the data pages;
	// zero disables buffering.
	BufferPages int
	// Metric is used for query lower bounds. Nil selects Euclidean.
	// Non-coordinatewise metrics are allowed but give the index no
	// selectivity (all lower bounds are zero).
	Metric vec.Metric
	// WrapDisk, when non-nil, interposes on the disk built by Build before
	// the pager is attached — the hook used to run the tree on
	// fault-injected storage. The directory stays in memory, so only data-
	// page reads pass through the wrapper.
	WrapDisk func(store.PageSource) (store.PageSource, error)
}

// withDefaults fills in defaulted fields and validates the config.
func (c Config) withDefaults() (Config, error) {
	if c.LeafCapacity < 2 {
		return c, fmt.Errorf("xtree: LeafCapacity must be >= 2, got %d", c.LeafCapacity)
	}
	if c.DirFanout < 2 {
		return c, fmt.Errorf("xtree: DirFanout must be >= 2, got %d", c.DirFanout)
	}
	if c.MaxOverlap == 0 {
		c.MaxOverlap = 0.2
	}
	if c.MaxOverlap < 0 || c.MaxOverlap > 1 {
		return c, fmt.Errorf("xtree: MaxOverlap must be in (0, 1], got %g", c.MaxOverlap)
	}
	if c.Metric == nil {
		c.Metric = vec.Euclidean{}
	}
	return c, nil
}

// DefaultConfig returns the configuration used by the experiments: page
// capacity derived from the paper's 32 KB blocks for the given
// dimensionality, matching directory fanout, and the 10 % buffer.
func DefaultConfig(dim int) Config {
	return Config{
		LeafCapacity: store.PageCapacityForBlockSize(32768, dim),
		DirFanout:    dirFanoutForBlockSize(32768, dim),
		BufferPages:  -1,
	}
}

// dirFanoutForBlockSize returns how many directory entries (an MBR of 2*dim
// float64 plus a child pointer) fit in a block.
func dirFanoutForBlockSize(blockSize, dim int) int {
	per := 16*dim + 8
	f := blockSize / per
	if f < 4 {
		f = 4
	}
	return f
}

// Tree is an X-tree under construction (Insert) or built (Build), after
// which it serves queries as an engine.Engine.
type Tree struct {
	cfg   Config
	dim   int
	root  *node
	count int

	// split is the scratch every split of this tree works in; choose is
	// chooseSubtree's.
	split  splitScratch
	choose chooseScratch

	// Set by Build.
	built  bool
	pager  *store.Pager
	leaves *vec.Boxes // the data pages' MBRs, indexed by PageID
}

// New creates an empty X-tree for dim-dimensional items.
func New(dim int, cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("xtree: dimension must be positive, got %d", dim)
	}
	return &Tree{
		cfg:  cfg,
		dim:  dim,
		root: &node{level: 0, rect: geom.EmptyRect(dim)},
	}, nil
}

// Insert adds an item to the tree. It fails after Build (the index is
// static once materialized on the simulated disk, matching the experimental
// setup) or on dimension mismatch.
func (t *Tree) Insert(it store.Item) error {
	if t.built {
		return fmt.Errorf("xtree: tree is already built")
	}
	if it.Vec.Dim() != t.dim {
		return fmt.Errorf("xtree: item %d has dimension %d, tree expects %d", it.ID, it.Vec.Dim(), t.dim)
	}
	t.insertTop(it)
	t.count++
	return nil
}

// insertTop inserts from the root, growing the tree when the root splits.
func (t *Tree) insertTop(it store.Item) {
	if sib := t.insertAt(t.root, it); sib != nil {
		old := t.root
		t.root = &node{
			level:    old.level + 1,
			rect:     old.rect.Union(sib.rect),
			children: []*node{old, sib},
			pid:      store.InvalidPage,
		}
	}
}

// insertAt inserts it into the subtree rooted at n and returns a new
// sibling node if n was split.
func (t *Tree) insertAt(n *node, it store.Item) *node {
	if n.isLeaf() {
		n.items = append(n.items, it)
		n.rect.Extend(it.Vec)
		if len(n.items) > t.cfg.LeafCapacity {
			return t.splitLeaf(n)
		}
		return nil
	}
	c := t.chooseSubtree(n, it.Vec)
	sib := t.insertAt(c, it)
	n.rect.ExtendRect(c.rect)
	if sib == nil {
		return nil
	}
	n.children = append(n.children, sib)
	n.rect.ExtendRect(sib.rect)
	if len(n.children) > t.dirCapacity(n) {
		return t.splitDir(n)
	}
	return nil
}

// dirCapacity returns the current capacity of a directory node: the normal
// fanout, or the next multiple of it for supernodes.
func (t *Tree) dirCapacity(n *node) int {
	f := t.cfg.DirFanout
	if len(n.children) <= f {
		return f
	}
	// Supernode: capacity is the smallest multiple of f that holds the
	// children that were present before the current overflow.
	blocks := (len(n.children) - 1 + f - 1) / f
	if blocks < 1 {
		blocks = 1
	}
	return blocks * f
}

// chooseSubtree implements the R*-tree descent criterion: minimal overlap
// enlargement when the children are leaves, minimal area enlargement
// otherwise, with area and child count as tie-breakers.
func (t *Tree) chooseSubtree(n *node, p vec.Vector) *node {
	// Fast path: children whose MBR already contains p need no
	// enlargement at all (zero area and zero overlap increase), so the
	// smallest such child wins outright. This skips the quadratic
	// overlap computation for the vast majority of inserts.
	best := -1
	var bestArea float64
	for i, c := range n.children {
		if c.rect.Contains(p) {
			if a := c.rect.Area(); best == -1 || a < bestArea {
				best, bestArea = i, a
			}
		}
	}
	if best >= 0 {
		return n.children[best]
	}

	// Area enlargements for every child (one linear pass), and the
	// candidates in child order.
	sc := &t.choose
	sc.areas, sc.areaIncs, sc.candidates = sc.areas[:0], sc.areaIncs[:0], sc.candidates[:0]
	for i, c := range n.children {
		a := c.rect.Area()
		sc.areas = append(sc.areas, a)
		sc.areaIncs = append(sc.areaIncs, c.rect.AreaWithPoint(p)-a)
		sc.candidates = append(sc.candidates, i)
	}
	areas, areaIncs, candidates := sc.areas, sc.areaIncs, sc.candidates

	// R*-style criterion. The overlap-enlargement test above the leaf
	// level is O(f²·d); following the R*-tree's own mitigation, it is
	// evaluated only for the few children with the least area
	// enlargement (the rest cannot plausibly win).
	if n.level == 1 {
		const overlapCandidates = 8
		if len(candidates) > overlapCandidates {
			slices.SortFunc(candidates, func(a, b int) int {
				if c := cmp.Compare(areaIncs[a], areaIncs[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			candidates = candidates[:overlapCandidates]
		}
	}

	var bestOverlapInc, bestAreaInc float64
	for _, i := range candidates {
		c := n.children[i]
		var overlapInc float64
		if n.level == 1 {
			for j, o := range n.children {
				if j == i {
					continue
				}
				// A sibling the grown child does not overlap was not
				// overlapped before either (the grown child covers the
				// ungrown one), so its term is 0 − 0 = +0, and adding
				// +0 to a sum that starts at +0 changes no bit.
				grown := c.rect.OverlapWithPoint(p, o.rect)
				if grown == 0 {
					continue
				}
				overlapInc += grown - c.rect.Overlap(o.rect)
				if best != -1 && overlapInc > bestOverlapInc {
					// Every term is ≥ 0, so the sum cannot fall back
					// to the best one: the switch below rejects the
					// candidate on this partial sum as it would on the
					// whole.
					break
				}
			}
		}
		better := false
		switch {
		case best == -1:
			better = true
		case n.level == 1 && overlapInc != bestOverlapInc:
			better = overlapInc < bestOverlapInc
		case areaIncs[i] != bestAreaInc:
			better = areaIncs[i] < bestAreaInc
		default:
			better = areas[i] < bestArea
		}
		if better {
			best = i
			bestOverlapInc, bestAreaInc, bestArea = overlapInc, areaIncs[i], areas[i]
		}
	}
	return n.children[best]
}

// chooseScratch is chooseSubtree's working memory, reused across inserts:
// each child's area and area enlargement, and the candidate children.
type chooseScratch struct {
	areas, areaIncs []float64
	candidates      []int
}

// splitLeaf splits an overflowing leaf with the topological split and
// returns the new right sibling.
func (t *Tree) splitLeaf(n *node) *node {
	// The split only reads its rects, so a point's two corners share the
	// item's vector.
	rects := t.split.rects[:0]
	for i := range n.items {
		rects = append(rects, geom.Rect{Min: n.items[i].Vec, Max: n.items[i].Vec})
	}
	t.split.rects = rects
	minFill := int(math.Ceil(minFillRatio * float64(len(n.items))))
	res := t.split.topologicalSplit(rects, minFill, true)

	left := make([]store.Item, 0, len(res.left))
	right := make([]store.Item, 0, len(res.right))
	for _, i := range res.left {
		left = append(left, n.items[i])
	}
	for _, i := range res.right {
		right = append(right, n.items[i])
	}
	n.items = left
	n.rect = res.leftRect
	hist := n.splitHist | historyBit(res.axis, t.dim)
	n.splitHist = hist
	return &node{level: 0, items: right, rect: res.rightRect, pid: store.InvalidPage, splitHist: hist}
}

// historyBit returns the split-history bit for an axis, or 0 when the
// dimensionality exceeds the 64 tracked bits.
func historyBit(axis, dim int) uint64 {
	if dim > 64 || axis >= 64 {
		return 0
	}
	return 1 << uint(axis)
}

// splitDir splits an overflowing directory node — unless the best split
// would overlap more than MaxOverlap of the union volume, in which case the
// node becomes (or grows as) a supernode and nil is returned. This is the
// X-tree's central deviation from the R*-tree.
func (t *Tree) splitDir(n *node) *node {
	rects := t.split.rects[:0]
	for _, c := range n.children {
		rects = append(rects, c.rect)
	}
	t.split.rects = rects
	minFill := int(math.Ceil(minFillRatio * float64(len(n.children))))
	res := t.split.topologicalSplit(rects, minFill, false)
	if res.overlapRatio() > t.cfg.MaxOverlap {
		// The topological split overlaps too much. The X-tree then
		// consults the split history for a guaranteed overlap-free
		// split; only when that would be too unbalanced does the node
		// become (or grow as) a supernode.
		alt, ok := t.overlapFreeSplit(n, rects, minFill)
		if !ok {
			return nil // supernode: capacity grows via dirCapacity
		}
		res = alt
	}
	left := make([]*node, 0, len(res.left))
	right := make([]*node, 0, len(res.right))
	for _, i := range res.left {
		left = append(left, n.children[i])
	}
	for _, i := range res.right {
		right = append(right, n.children[i])
	}
	n.children = left
	n.rect = res.leftRect
	hist := n.splitHist | historyBit(res.axis, t.dim)
	n.splitHist = hist
	return &node{level: n.level, children: right, rect: res.rightRect, pid: store.InvalidPage, splitHist: hist}
}

// overlapFreeSplit tries the X-tree's history-based split of a directory
// node: a dimension d along which *every* child has previously been split
// admits a zero-overlap partition; among the balanced zero-overlap
// candidates the most balanced one wins. rects are the children's MBRs. ok
// is false when no common split dimension exists or every zero-overlap
// split violates the minimum fill.
func (t *Tree) overlapFreeSplit(n *node, rects []geom.Rect, minFill int) (splitResult, bool) {
	if t.dim > 64 || len(n.children) < 2 {
		return splitResult{}, false
	}
	common := ^uint64(0)
	for _, c := range n.children {
		common &= c.splitHist
	}
	if common == 0 {
		return splitResult{}, false
	}
	nEntries := len(rects)
	var best splitResult
	bestBalance := -1
	for d := 0; d < t.dim && d < 64; d++ {
		if common&(1<<uint(d)) == 0 {
			continue
		}
		t.split.sortAxis(rects, d, false)
		order := t.split.order
		prefix, suffix := t.split.cumulate(rects, order)
		for k := minFill; k <= nEntries-minFill; k++ {
			if prefix[k].Overlap(suffix[k]) != 0 {
				continue
			}
			balance := k
			if nEntries-k < balance {
				balance = nEntries - k
			}
			if balance > bestBalance {
				bestBalance = balance
				best = splitResult{
					left:      append([]int(nil), order[:k]...),
					right:     append([]int(nil), order[k:]...),
					leftRect:  prefix[k].Clone(),
					rightRect: suffix[k].Clone(),
					overlap:   0,
					axis:      d,
				}
			}
		}
	}
	return best, bestBalance >= 0
}

// Build materializes the leaf level as data pages on a fresh simulated
// disk, laid out in tree (DFS) order so that physically close pages are
// spatially close, and lays every directory node's child MBRs out as the
// lanes Plan sweeps. The pages own their coordinates: every item's vector
// is copied into one array in page order, a capped row each, so a page's
// vectors are consecutive in memory whatever the caller's layout, and the
// leaves let their items go. After Build the tree is immutable and serves
// queries.
func (t *Tree) Build() error {
	if t.built {
		return fmt.Errorf("xtree: already built")
	}
	var pages []*store.Page
	var rects []geom.Rect
	var flushed []*node // the leaves, in page order
	coords := make([]float64, t.count*t.dim)
	var flush func(n *node)
	flush = func(n *node) {
		if n.isLeaf() {
			n.pid = store.PageID(len(pages))
			items := make([]store.Item, len(n.items))
			for i, it := range n.items {
				row := coords[:t.dim:t.dim]
				coords = coords[t.dim:]
				copy(row, it.Vec)
				it.Vec = row
				items[i] = it
			}
			pages = append(pages, &store.Page{ID: n.pid, Items: items})
			rects = append(rects, n.rect)
			flushed = append(flushed, n)
			return
		}
		kids := make([]geom.Rect, len(n.children))
		for i, c := range n.children {
			kids[i] = c.rect
			flush(c)
		}
		n.boxes = t.boxes(kids)
	}
	flush(t.root)

	disk, err := store.NewDisk(pages)
	if err != nil {
		return fmt.Errorf("xtree: %w", err)
	}
	var src store.PageSource = disk
	if t.cfg.WrapDisk != nil {
		if src, err = t.cfg.WrapDisk(disk); err != nil {
			return fmt.Errorf("xtree: %w", err)
		}
	}
	bufPages := t.cfg.BufferPages
	if bufPages < 0 {
		bufPages = store.DefaultBufferPages(len(pages))
	}
	var buf *store.Buffer
	if bufPages > 0 {
		if buf, err = store.NewBuffer(bufPages); err != nil {
			return fmt.Errorf("xtree: %w", err)
		}
	}
	pager, err := store.NewPager(src, buf)
	if err != nil {
		return fmt.Errorf("xtree: %w", err)
	}
	t.pager = pager
	t.leaves = t.boxes(rects)
	t.built = true
	for _, n := range flushed {
		n.items = nil // the page holds them; a failed Build keeps them to retry
	}
	// No insert, so no split or subtree choice, follows.
	t.split, t.choose = splitScratch{}, chooseScratch{}
	return nil
}

// boxes lays rects out for bound sweeps under the tree's metric.
func (t *Tree) boxes(rects []geom.Rect) *vec.Boxes {
	lo, hi := make([]vec.Vector, len(rects)), make([]vec.Vector, len(rects))
	for i, r := range rects {
		lo[i], hi[i] = r.Min, r.Max
	}
	return vec.NewBoxes(t.cfg.Metric, lo, hi)
}

// Bulk builds an X-tree over items by dynamic insertion followed by Build —
// the one way the engines and the experiments build the tree.
func Bulk(items []store.Item, dim int, cfg Config) (*Tree, error) {
	t, err := New(dim, cfg)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if err := t.Insert(it); err != nil {
			return nil, err
		}
	}
	if err := t.Build(); err != nil {
		return nil, err
	}
	return t, nil
}

// Stats returns shape statistics of the tree.
func (t *Tree) Stats() Stats {
	s := Stats{Height: t.root.level + 1, Items: t.count}
	collectStats(t.root, t.cfg.DirFanout, &s)
	return s
}

// Built reports whether Build has run.
func (t *Tree) Built() bool { return t.built }

// Len returns the number of inserted items.
func (t *Tree) Len() int { return t.count }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }
