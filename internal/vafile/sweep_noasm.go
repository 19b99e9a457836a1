//go:build !amd64 || purego

package vafile

// Off amd64, and under -tags purego, sweepPageLanes is the only body (vec's
// probe reports no AVX2, so asm is never set).
func sweepPageLanesAVX2(t []laneTerm, cells []uint8, dim, ncells int, b *laneBounds) {
	panic("vafile: no assembly lane sweep in this build")
}
