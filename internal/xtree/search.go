package xtree

import (
	"fmt"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The Tree implements engine.Engine once built.
var _ engine.Engine = (*Tree)(nil)

// Name returns "xtree".
func (t *Tree) Name() string { return "xtree" }

// Prepare returns the per-query handle. It only pins the query vector: a
// bound is a sweep of MBRs laid out at Build (vec.Boxes), and what a query
// would memoize — every page's bounds — costs more to allocate than the
// probes a mining query makes cost to compute.
func (t *Tree) Prepare(q vec.Vector) engine.PreparedQuery {
	t.mustBeBuilt()
	return &prepared{t: t, q: q}
}

// prepared answers page probes for one query against the memory-resident
// directory.
type prepared struct {
	t *Tree
	q vec.Vector
}

// Plan returns AppendPlan's refs in a new slice.
func (p *prepared) Plan(queryDist float64) []engine.PageRef { return p.AppendPlan(nil, queryDist) }

// AppendPlan traverses the memory-resident directory and appends to dst every
// data page whose lower-bound distance to q does not exceed queryDist, in
// ascending lower-bound order (the Hjaltason–Samet page schedule). For a
// k-NN query the caller passes queryDist = +Inf and prunes while consuming
// the plan as its answer list tightens.
//
// The walk descends the directory depth first: a node's child MBRs are swept
// in one call, the surviving leaves collected, the surviving directory
// children descended into. Bounds live in the walk's frames, one per level,
// and the first refs in planWalk, so a wide directory costs stack, not heap;
// dst grows at most once — to the refs when they fit the frame, to every
// page when they do not.
func (p *prepared) AppendPlan(dst []engine.PageRef, queryDist float64) []engine.PageRef {
	t := p.t
	if t.root.isLeaf() {
		if b := p.MinDist(t.root.pid); b <= queryDist {
			return append(dst, engine.PageRef{ID: t.root.pid, MinDist: b})
		}
		return dst
	}
	// The root's MBR contains every child's, so its own bound excludes
	// nothing the children's bounds do not.
	w := planWalk{p: p, queryDist: queryDist, dst: dst, start: len(dst)}
	w.descend(t.root)
	dst = append(w.dst, w.local[:w.n]...)
	engine.SortPlan(dst[w.start:])
	return dst
}

// planWalk is AppendPlan's state: the refs found so far are dst[start:] and
// local[:n].
type planWalk struct {
	p         *prepared
	queryDist float64
	dst       []engine.PageRef
	start, n  int
	local     [32]engine.PageRef
}

// descend collects the leaves under directory node nd within the query
// distance.
func (w *planWalk) descend(nd *node) {
	var bounds [128]float64
	for from := 0; from < len(nd.children); from += len(bounds) {
		chunk := bounds[:min(len(bounds), len(nd.children)-from)]
		nd.boxes.Sweep(w.p.q, from, chunk)
		for i, b := range chunk {
			if b > w.queryDist {
				continue
			}
			c := nd.children[from+i]
			if !c.isLeaf() {
				w.descend(c)
				continue
			}
			if w.n == len(w.local) {
				if cap(w.dst)-len(w.dst) < len(w.local) {
					w.dst = engine.GrowPlan(w.dst, w.p.t.pager.NumPages()-(len(w.dst)-w.start))
				}
				w.dst, w.n = append(w.dst, w.local[:]...), 0
			}
			w.local[w.n] = engine.PageRef{ID: c.pid, MinDist: b}
			w.n++
		}
	}
}

// MinDist returns the lower bound on the distance from q to any item on
// data page pid.
func (p *prepared) MinDist(pid store.PageID) float64 {
	return p.t.leaves.Bound(p.q, int(pid))
}

// Describe reports the directory tuning for EXPLAIN output.
func (t *Tree) Describe() engine.Config {
	return engine.Config{PageCapacity: t.cfg.LeafCapacity, Fanout: t.cfg.DirFanout}
}

// ReadPage fetches a data page through the tree's pager.
func (t *Tree) ReadPage(pid store.PageID) (*store.Page, error) {
	t.mustBeBuilt()
	return t.pager.ReadPage(pid)
}

// NumPages returns the number of data pages.
func (t *Tree) NumPages() int {
	t.mustBeBuilt()
	return t.pager.NumPages()
}

// NumItems returns the number of stored items.
func (t *Tree) NumItems() int { return t.count }

// Pager returns the data-page pager.
func (t *Tree) Pager() *store.Pager {
	t.mustBeBuilt()
	return t.pager
}

func (t *Tree) mustBeBuilt() {
	if !t.built {
		panic(fmt.Sprintf("xtree: query before Build on tree with %d items", t.count))
	}
}
