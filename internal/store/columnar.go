// Columnar page construction: turning array-of-structs pages (one heap
// allocation per item vector) into SoA blocks, at build time for the
// in-memory engines and on read for stored version-1 datasets.
package store

import (
	"fmt"

	"metricdb/internal/obs"
	"metricdb/internal/vec"
)

// ColumnSpec says which page representation to materialize for a page
// set. The zero value requests nothing (pages stay AoS).
type ColumnSpec struct {
	// Columnar requests the contiguous float64 block.
	Columnar bool
}

// Columnize rebuilds each page's coordinates as a columnar block per
// spec and re-points every Item.Vec at its block row. Values are copied
// bit-for-bit, so results of any computation over the vectors are
// unchanged; only memory placement is new. A no-op when the spec requests
// nothing.
func Columnize(pages []*Page, spec ColumnSpec) error {
	if !spec.Columnar {
		return nil
	}
	for _, p := range pages {
		if err := ColumnizePage(p, spec); err != nil {
			return err
		}
	}
	return nil
}

// ColumnizePage is Columnize for a single page: the coordinates are copied
// row by row into the page's slab, kept across reads of a recycled page, so
// columnizing a FileDisk page allocates nothing after the first few reads.
func ColumnizePage(p *Page, spec ColumnSpec) error {
	if !spec.Columnar || len(p.Items) == 0 {
		return nil
	}
	dim := p.Items[0].Vec.Dim()
	if b := p.Cols; b != nil && b.Dim == dim && b.N == len(p.Items) {
		return nil
	}
	for i := range p.Items {
		if p.Items[i].Vec.Dim() != dim {
			return fmt.Errorf("store: page %d item %d has dimension %d, item 0 has %d",
				p.ID, i, p.Items[i].Vec.Dim(), dim)
		}
	}
	if n := len(p.Items) * dim; p.slab == nil || cap(p.slab) < n {
		p.slab = make([]float64, n)
	} else {
		p.slab = p.slab[:n]
	}
	for i := range p.Items {
		row := p.slab[i*dim : (i+1)*dim : (i+1)*dim]
		copy(row, p.Items[i].Vec)
		p.Items[i].Vec = row
	}
	p.cols = vec.Block{Dim: dim, N: len(p.Items), F64: p.slab}
	p.Cols, p.hdrs = &p.cols, 0
	return nil
}

// ColumnSource is a PageSource wrapper that columnizes pages as they are
// read — the adapter that serves a stored dataset to a layout that asks for
// blocks, whatever its record version (the decoder never builds one). It
// sits between the disk and the buffer pool, so cached pages stay columnar.
type ColumnSource struct {
	src  PageSource
	spec ColumnSpec
}

// WrapColumns wraps src so every page read through it is columnized per
// spec. If the spec requests nothing, src is returned unwrapped.
func WrapColumns(src PageSource, spec ColumnSpec) PageSource {
	if !spec.Columnar {
		return src
	}
	return &ColumnSource{src: src, spec: spec}
}

// Read fetches the page from the wrapped source and columnizes it.
func (c *ColumnSource) Read(pid PageID) (*Page, error) {
	p, err := c.src.Read(pid)
	if err != nil {
		return nil, err
	}
	if err := ColumnizePage(p, c.spec); err != nil {
		return nil, err
	}
	return p, nil
}

// NumPages reports the wrapped source's page count.
func (c *ColumnSource) NumPages() int { return c.src.NumPages() }

// Stats reports the wrapped source's I/O statistics.
func (c *ColumnSource) Stats() IOStats { return c.src.Stats() }

// ResetStats clears the wrapped source's I/O statistics, returning the
// stats up to that point.
func (c *ColumnSource) ResetStats() IOStats { return c.src.ResetStats() }

// SetTracer forwards the tracer to the wrapped source when it accepts one
// (the same duck-typed seam the pager uses).
func (c *ColumnSource) SetTracer(tr *obs.Tracer) {
	if st, ok := c.src.(interface{ SetTracer(*obs.Tracer) }); ok {
		st.SetTracer(tr)
	}
}

// Unwrap exposes the wrapped source so facades that type-assert for a
// concrete disk (e.g. *FileDisk for storage statistics) keep working when
// a layout wrapper is interposed.
func (c *ColumnSource) Unwrap() PageSource { return c.src }

// UnwrapSource strips PageSource wrappers (anything exposing
// Unwrap() PageSource) down to the innermost source.
func UnwrapSource(src PageSource) PageSource {
	for {
		u, ok := src.(interface{ Unwrap() PageSource })
		if !ok {
			return src
		}
		src = u.Unwrap()
	}
}

var _ PageSource = (*ColumnSource)(nil)
