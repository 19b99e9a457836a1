//go:build amd64 && !purego

package vec

// haveAVX2 reports whether the assembly sweep may run: the CPU has AVX2
// and the operating system saves the YMM registers across context switches
// (OSXSAVE set and XCR0 enabling both the SSE and the AVX state).
var haveAVX2 = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

// eucRowsAVX2 is eucRowsGo, eight lanes to two registers: the same
// arguments, the same sums, the same surviving blocks.
//
//go:noescape
func eucRowsAVX2(q, h []float64, item Vector, sums []float64, alive []int32) int

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
