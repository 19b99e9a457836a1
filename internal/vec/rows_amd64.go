//go:build amd64 && !purego

package vec

import "unsafe"

// haveAVX2 reports whether the AVX2 sweeps may run: the CPU has AVX2 and
// the operating system saves the YMM registers across context switches
// (OSXSAVE set and XCR0 enabling both the SSE and the AVX state). haveFMA
// adds the fused multiply-add the AVX2 screen is built on. haveAVX512
// reports the same for the AVX-512 screen: AVX512F for the ZMM arithmetic,
// fused multiply-adds and compares, AVX512DQ for KMOVB, and XCR0 enabling
// the opmask and both halves of the ZMM state as well (bits 5, 6 and 7).
// haveCLMUL512 is the ZMM state with AVX512F, AVX512VL for the EVEX forms
// on X and Y registers, VPCLMULQDQ and SSE4.2's CRC32: no body here uses
// it (see HaveAVX512CLMUL).
var haveAVX2, haveFMA, haveAVX512, haveCLMUL512 = func() (bool, bool, bool, bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false, false, false
	}
	const fma, sse42, osxsave, avx = 1 << 12, 1 << 20, 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&osxsave == 0 || c&avx == 0 {
		return false, false, false, false
	}
	xcr0, _ := xgetbv()
	_, b, c7, _ := cpuid(7, 0)
	const avx2, avx512f, avx512dq, avx512vl, vpclmulqdq = 1 << 5, 1 << 16, 1 << 17, 1 << 31, 1 << 10
	ymm := xcr0&0x06 == 0x06
	zmm := xcr0&0xe6 == 0xe6 && b&avx512f != 0
	return ymm && b&avx2 != 0, ymm && c&fma != 0, zmm && b&avx512dq != 0,
		zmm && b&avx512vl != 0 && c7&vpclmulqdq != 0 && c&sse42 != 0
}()

// eucCentreAVX2 writes the first len(nx) rows, whole groups of screenItems
// of them, centred on centre, to x as [group][dim][screenItems], and each
// row's sum of squares of its centred coordinates to nx: the values of
// eucCentreGo, the definition in the tests, bit for bit. Every row it reads must have len(centre)
// coordinates — it reads exactly those. The screenItems rows after them,
// when rows has them, are prefetched.
//
//go:noescape
func eucCentreAVX2(rows []Vector, centre, x, nx []float64)

// eucScreenAVX2 is the screen over whole groups of screenItems items, a
// block of lanes to two YMM registers: the kept lanes of eucScreenGo, the
// definition in the tests, bit for bit.
//
//go:noescape
func eucScreenAVX2(q, t, x, nx []float64, kept []uint64, dim int)

// eucScreenAVX512 is eucScreenAVX2 with a block to a ZMM register and four
// blocks at a time.
//
//go:noescape
func eucScreenAVX512(q, t, x, nx []float64, kept []uint64, dim int)

// eucItemsAVX2 is eucItemsGo, itemLanes rows to two registers, over the n
// >= itemLanes vector headers at rows, stride bytes apart, and with dists
// room for n values. It reads each group's headers, and the coordinates of
// none of its rows unless every length in it is len(q); then it reads
// exactly len(q) coordinates of each. ok is false when a length was not:
// the sweep stopped there.
//
//go:noescape
func eucItemsAVX2(q Vector, rows unsafe.Pointer, stride uintptr, n int, h float64, dists []float64) (within uint64, ok bool)

// eucBoxesAVX2 is eucBoxesGo, a group of four boxes to two registers. boxes
// must hold len(dst)/4 whole groups of len(q) dimensions — it reads exactly
// those and q — and len(dst) must be a multiple of four.
//
//go:noescape
func eucBoxesAVX2(q Vector, boxes []float64, dst []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
