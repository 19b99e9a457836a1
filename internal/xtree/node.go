// Package xtree implements the X-tree of Berchtold, Keim and Kriegel
// (VLDB 1996): an R*-tree-style index for high-dimensional point data whose
// directory avoids high-overlap splits by creating supernodes — directory
// nodes of variable size that are scanned linearly instead of being split
// into heavily overlapping halves.
//
// The directory is memory-resident (as in typical deployments and in the
// paper's buffered setting); the leaf level is materialized as data pages
// on the simulated disk, so I/O accounting covers exactly the data-page
// accesses that Figure 7 of the multi-query paper reports. Leaf pages are
// laid out on disk in tree order, giving spatially clustered physical
// addresses, and their vectors in memory in the same order: Build copies
// the coordinates into one array, so a page's rows are consecutive.
//
// A built tree is immutable on the query path: Plan, MinDist and ReadPage
// only walk the in-memory directory and read through the pager,
// so they are safe for concurrent readers (the engine contract concurrent
// sessions rely on). Insert is not concurrent with queries.
package xtree

import (
	"metricdb/internal/geom"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// node is one X-tree node. Leaves (level 0) hold items until Build copies
// them to the disk data pages the leaves map to 1:1; directory nodes hold
// children. A directory node whose children count exceeds the normal fanout
// is a supernode.
type node struct {
	level    int // 0 for leaves
	rect     geom.Rect
	children []*node      // directory nodes only
	boxes    *vec.Boxes   // the children's MBRs in child order; set by Build
	items    []store.Item // leaves only, until Build copies them to the page
	pid      store.PageID // assigned by flush; InvalidPage before
	// splitHist is the X-tree split history: a bit per dimension that
	// some ancestor split of this node used. If every child of a
	// directory node carries a common bit d, an overlap-free split along
	// dimension d exists (the X-tree's split theorem). Only tracked for
	// dimensionalities up to 64.
	splitHist uint64
}

func (n *node) isLeaf() bool { return n.level == 0 }

// isSuper reports whether a directory node is a supernode for the given
// normal fanout.
func (n *node) isSuper(fanout int) bool {
	return !n.isLeaf() && len(n.children) > fanout
}

// Stats describes the shape of a built X-tree.
type Stats struct {
	Height     int // number of levels, 1 for a single leaf
	Leaves     int
	DirNodes   int // directory nodes, including supernodes
	Supernodes int
	Items      int
}

func collectStats(n *node, fanout int, s *Stats) {
	if n.isLeaf() {
		s.Leaves++
		return
	}
	s.DirNodes++
	if n.isSuper(fanout) {
		s.Supernodes++
	}
	for _, c := range n.children {
		collectStats(c, fanout, s)
	}
}
