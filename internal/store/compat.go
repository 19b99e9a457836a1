package store

import (
	"fmt"

	"metricdb/internal/vec"
)

// The symbols in this file are kept only because the benchmark module
// (bench/) names them. Nothing else in the module may use them: `make
// compat` fails on any other file that does. ROADMAP item 1a's item-8
// line moves the benchmark's row-kernel probe off them and deletes this
// file.

// ColumnSpec once selected a columnar page representation. Pages have one
// representation now, their items' vectors, so nothing reads it.
//
// Deprecated: ignored. Removed by ROADMAP item 1a (item 8).
type ColumnSpec struct {
	// Columnar asks ColumnizePage for a block.
	Columnar bool
}

// pageCompat holds the Page field the benchmark names.
type pageCompat struct {
	// Cols is the block ColumnizePage last built for the page: a copy of
	// the items' coordinates, item-major. It does not follow the page
	// afterwards; nothing but ColumnizePage sets it.
	//
	// Deprecated: removed by ROADMAP item 1a (item 8).
	Cols *vec.Block
}

// ColumnizePage sets p.Cols to a new block holding a copy of p's item
// coordinates, item-major, when spec asks for one and p has items. The
// items themselves are left as they are.
//
// Deprecated: removed by ROADMAP item 1a (item 8).
func ColumnizePage(p *Page, spec ColumnSpec) error {
	if !spec.Columnar || len(p.Items) == 0 {
		return nil
	}
	dim := p.Items[0].Vec.Dim()
	b := &vec.Block{Dim: dim, N: len(p.Items), F64: make([]float64, 0, len(p.Items)*dim)}
	for i, it := range p.Items {
		if it.Vec.Dim() != dim {
			return fmt.Errorf("store: page %d item %d has dimension %d, item 0 has %d", p.ID, i, it.Vec.Dim(), dim)
		}
		b.F64 = append(b.F64, it.Vec...)
	}
	p.Cols = b
	return nil
}
