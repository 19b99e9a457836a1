package vec

import (
	"fmt"
	"math"
)

// Block is the columnar (SoA) representation of one page's item
// coordinates: a single contiguous item-major float64 buffer instead of
// one heap allocation per item.
//
//	F64:   [item0 d0..dDim-1 | item1 d0..dDim-1 | ...]   8·Dim bytes/item
//
// Page Items alias rows of F64 (Item(i) returns a subslice, never a copy),
// so every per-pair code path reads the exact same float64 values whether
// or not a block is attached — attaching one can change memory placement
// but never results.
type Block struct {
	// Dim is the dimensionality of every row.
	Dim int
	// N is the number of items in the block.
	N int
	// F64 is the item-major coordinate buffer, len N*Dim. Always non-nil
	// for a built block.
	F64 []float64
}

// NewBlock allocates a block for n items of the given dimensionality.
func NewBlock(dim, n int) *Block {
	return &Block{Dim: dim, N: n, F64: make([]float64, n*dim)}
}

// Item returns row i of the float64 buffer as a Vector. The returned slice
// aliases the block.
func (b *Block) Item(i int) Vector {
	return b.F64[i*b.Dim : (i+1)*b.Dim : (i+1)*b.Dim]
}

// SetItem copies v into row i of the float64 buffer.
func (b *Block) SetItem(i int, v Vector) {
	if len(v) != b.Dim {
		panic(fmt.Sprintf("vec: block row dim %d, vector dim %d", b.Dim, len(v)))
	}
	copy(b.F64[i*b.Dim:(i+1)*b.Dim], v)
}

// BlockKernel is the row kernel behind its former entry point: the loaded
// Rows, reloaded for every call. Nothing in this module calls it; the
// benchmark's vec.row_ns_per_dist probe does, and the benchmark PR that
// moves the probe to Rows deletes it (ROADMAP item 1).
type BlockKernel struct {
	rows *Rows
	sc   RowScratch
}

// NewBlockKernel returns the adapter over NewRows(m).
func NewBlockKernel(m BoundedMetric) *BlockKernel {
	return &BlockKernel{rows: NewRows(m)}
}

// RowWithin evaluates every query against item i of b under the per-query
// limits and returns how many lanes the limits abandoned. wOut[a] and,
// where it holds, dOut[a] are DistanceWithin(queries[a], b.Item(i),
// limits[a]) bit for bit; an abandoned lane's dOut is +Inf.
func (k *BlockKernel) RowWithin(queries []Vector, b *Block, i int, limits []float64, dOut []float64, wOut []bool) int {
	k.rows.Load(queries, limits)
	for a := range queries {
		dOut[a], wOut[a] = math.Inf(1), false
	}
	hits := k.rows.Sweep(b.Item(i), &k.sc)
	for _, hit := range hits {
		dOut[hit.Lane], wOut[hit.Lane] = hit.D, true
	}
	return len(queries) - len(hits)
}
