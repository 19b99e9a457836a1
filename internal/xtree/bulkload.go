package xtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"metricdb/internal/geom"
	"metricdb/internal/store"
)

// BulkSTR builds the tree bottom-up with Sort-Tile-Recursive packing
// (Leutenegger et al.): items are recursively sorted and sliced into slabs
// dimension by dimension until each tile fits a leaf, and the directory is
// packed level by level over the tile order. Compared to dynamic insertion
// (Bulk) this is much faster and produces full pages, at the price of more
// leaf overlap in high dimensions — the ablation benchmark quantifies the
// trade-off. The returned tree is already built (leaves are on the
// simulated disk).
func BulkSTR(items []store.Item, dim int, cfg Config) (*Tree, error) {
	t, err := New(dim, cfg)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, t.Build()
	}
	for i := range items {
		if items[i].Vec.Dim() != dim {
			return nil, fmt.Errorf("xtree: item %d has dimension %d, tree expects %d", items[i].ID, items[i].Vec.Dim(), dim)
		}
	}

	tiles := strTiles(items, t.cfg.LeafCapacity, dim)
	level := make([]*node, len(tiles))
	for i, tile := range tiles {
		n := &node{level: 0, items: tile, pid: store.InvalidPage}
		n.recompute(dim)
		level[i] = n
	}

	// Pack the directory bottom-up over the tile order.
	height := 0
	for len(level) > 1 {
		height++
		parents := make([]*node, 0, (len(level)+t.cfg.DirFanout-1)/t.cfg.DirFanout)
		for start := 0; start < len(level); start += t.cfg.DirFanout {
			end := start + t.cfg.DirFanout
			if end > len(level) {
				end = len(level)
			}
			p := &node{level: height, children: level[start:end:end], pid: store.InvalidPage}
			p.rect = geom.EmptyRect(dim)
			for _, c := range p.children {
				p.rect.ExtendRect(c.rect)
			}
			parents = append(parents, p)
		}
		level = parents
	}
	t.root = level[0]
	t.count = len(items)
	return t, t.Build()
}

// strTiles recursively partitions items into leaf-sized tiles: at recursion
// depth d the slice is sorted by coordinate d and cut into
// ceil(P^(1/(dim-d))) slabs, where P is the number of leaf pages needed.
func strTiles(items []store.Item, capacity, dim int) [][]store.Item {
	work := append([]store.Item(nil), items...)
	var out [][]store.Item
	var rec func(part []store.Item, d int)
	rec = func(part []store.Item, d int) {
		if len(part) <= capacity {
			out = append(out, part)
			return
		}
		if d >= dim {
			// All dimensions consumed: chop in order.
			for start := 0; start < len(part); start += capacity {
				end := start + capacity
				if end > len(part) {
					end = len(part)
				}
				out = append(out, part[start:end:end])
			}
			return
		}
		slices.SortStableFunc(part, func(a, b store.Item) int {
			if c := cmp.Compare(a.Vec[d], b.Vec[d]); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		pages := (len(part) + capacity - 1) / capacity
		slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-d))))
		if slabs < 1 {
			slabs = 1
		}
		// Slab sizes are multiples of the leaf capacity so every tile
		// except the last packs full pages.
		pagesPerSlab := (pages + slabs - 1) / slabs
		per := pagesPerSlab * capacity
		for start := 0; start < len(part); start += per {
			end := start + per
			if end > len(part) {
				end = len(part)
			}
			rec(part[start:end:end], d+1)
		}
	}
	rec(work, 0)
	return out
}
