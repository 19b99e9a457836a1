//go:build amd64 && !purego

package vec

// haveAVX2 reports whether the AVX2 sweeps may run: the CPU has AVX2 and
// the operating system saves the YMM registers across context switches
// (OSXSAVE set and XCR0 enabling both the SSE and the AVX state).
// haveAVX512 reports the same for the AVX-512 row sweep: AVX512F for the ZMM
// arithmetic and compares, AVX512DQ for the byte-wide mask instructions
// (KANDB, KORTESTB), and XCR0 enabling the opmask and both halves of the ZMM
// state as well (bits 5, 6 and 7).
var haveAVX2, haveAVX512 = func() (bool, bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, b, _, _ := cpuid(7, 0)
	const avx2, avx512f, avx512dq = 1 << 5, 1 << 16, 1 << 17
	ymm := xcr0&0x06 == 0x06
	zmm := xcr0&0xe6 == 0xe6
	return ymm && b&avx2 != 0, zmm && b&avx512f != 0 && b&avx512dq != 0
}()

// eucRowsAVX2 is eucRowsGo, eight lanes to two registers: the same
// arguments, the same sums, the same surviving blocks.
//
//go:noescape
func eucRowsAVX2(q, h []float64, item Vector, sums []float64, alive []int32) int

// eucRowsAVX512 is eucRowsGo, a block to a register and four blocks in
// flight: the same arguments, the same sums, the same surviving blocks — or
// -1 when a NaN sum leaves a block's outcome undecided, and the caller must
// sweep the item with eucRowsGo instead.
//
//go:noescape
func eucRowsAVX512(q, h []float64, item Vector, sums []float64, alive []int32) int

// eucItemsAVX2 is eucItemsGo, itemLanes rows to two registers. len(rows)
// must be a multiple of itemLanes, every row must have len(q) coordinates —
// it reads exactly those — and dists room for one value per row.
//
//go:noescape
func eucItemsAVX2(q Vector, rows []Vector, h float64, dists []float64) bool

// eucBoxesAVX2 is eucBoxesGo, a group of four boxes to two registers. boxes
// must hold len(dst)/4 whole groups of len(q) dimensions — it reads exactly
// those and q — and len(dst) must be a multiple of four.
//
//go:noescape
func eucBoxesAVX2(q Vector, boxes []float64, far bool, dst []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
