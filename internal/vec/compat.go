package vec

import "math"

// The symbols in this file are kept only because the benchmark module
// (bench/) names them: its vec.row_ns_per_dist probe times RowWithin over
// a block. Nothing else in the module may use them: `make compat` fails on
// any other file that does. ROADMAP item 1a's item-8 line moves the probe
// to Rows.Screen and Resolve and deletes this file.

// Block holds n items' coordinates in one contiguous item-major float64
// buffer:
//
//	F64:   [item0 d0..dDim-1 | item1 d0..dDim-1 | ...]   8·Dim bytes/item
//
// Deprecated: removed by ROADMAP item 1a (item 8).
type Block struct {
	// Dim is the dimensionality of every row.
	Dim int
	// N is the number of items in the block.
	N int
	// F64 is the item-major coordinate buffer, len N*Dim. Always non-nil
	// for a built block.
	F64 []float64
}

// Item returns row i of the float64 buffer as a Vector. The returned slice
// aliases the block.
func (b *Block) Item(i int) Vector {
	return b.F64[i*b.Dim : (i+1)*b.Dim : (i+1)*b.Dim]
}

// BlockKernel is the row kernel behind its former entry point: the loaded
// Rows, reloaded for every call.
//
// Deprecated: removed by ROADMAP item 1a (item 8).
type BlockKernel struct {
	rows *Rows
	sc   RowScratch
}

// NewBlockKernel returns the adapter over NewRows(m).
//
// Deprecated: removed by ROADMAP item 1a (item 8).
func NewBlockKernel(m BoundedMetric) *BlockKernel {
	return &BlockKernel{rows: NewRows(m)}
}

// RowWithin evaluates every query against item i of b under the per-query
// limits and returns how many lanes the limits abandoned. wOut[a] and,
// where it holds, dOut[a] are DistanceWithin(queries[a], b.Item(i),
// limits[a]) bit for bit; an abandoned lane's dOut is +Inf.
//
// Deprecated: removed by ROADMAP item 1a (item 8).
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
