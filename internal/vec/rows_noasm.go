//go:build !amd64 || purego

package vec

// Off amd64, and under -tags purego, the portable sweep is the only one.
const haveAVX2 = false

func eucRowsAVX2(q, h []float64, item Vector, sums []float64, alive []int32) int {
	panic("vec: no assembly row kernel in this build")
}
