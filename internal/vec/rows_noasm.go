//go:build !amd64 || purego

package vec

import "unsafe"

// Off amd64, and under -tags purego, the portable sweeps are the only ones.
const haveAVX2, haveFMA, haveAVX512 = false, false, false

func eucCentreAVX2(rows []Vector, centre, x, nx []float64) {
	panic("vec: no assembly row screen in this build")
}

func eucScreenAVX2(q, t, x, nx []float64, kept []uint64, dim int) {
	panic("vec: no assembly row screen in this build")
}

func eucScreenAVX512(q, t, x, nx []float64, kept []uint64, dim int) {
	panic("vec: no assembly row screen in this build")
}

func eucItemsAVX2(q Vector, rows unsafe.Pointer, stride uintptr, n int, h float64, dists []float64) (uint64, bool) {
	panic("vec: no assembly item kernel in this build")
}

func eucBoxesAVX2(q Vector, boxes []float64, far bool, dst []float64) {
	panic("vec: no assembly box kernel in this build")
}
