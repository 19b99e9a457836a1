//go:build !amd64 || purego

package vec

// Off amd64, and under -tags purego, the portable sweeps are the only ones.
const haveAVX2, haveAVX512 = false, false

func eucRowsAVX2(q, h []float64, item Vector, sums []float64, alive []int32) int {
	panic("vec: no assembly row kernel in this build")
}

func eucRowsAVX512(q, h []float64, item Vector, sums []float64, alive []int32) int {
	panic("vec: no assembly row kernel in this build")
}

func eucItemsAVX2(q Vector, rows []Vector, h float64, dists []float64) bool {
	panic("vec: no assembly item kernel in this build")
}

func eucBoxesAVX2(q Vector, boxes []float64, far bool, dst []float64) {
	panic("vec: no assembly box kernel in this build")
}
