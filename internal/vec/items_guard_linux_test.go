//go:build linux

package vec

import (
	"fmt"
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guardedVector maps two pages, makes the second inaccessible and returns
// a random vector whose last coordinate ends flush against it: a load of
// even one byte past v[dim-1] faults.
func guardedVector(t *testing.T, rng *rand.Rand, dim int) Vector {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	v := unsafe.Slice((*float64)(unsafe.Pointer(&mem[page-dim*8])), dim)
	for d := range v {
		v[d] = rng.NormFloat64()
	}
	return v
}

// TestItemLanesStayInBounds runs every body over rows and a query that each
// end flush against an inaccessible page, for dimensions 1–20 (every tail of
// the four-dimension chunk) and 1–9 rows (every short group, a full one and
// one more), with limits that abandon early, late and never. A body that
// loads past a row's last coordinate dies of SIGSEGV here.
func TestItemLanesStayInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for dim := 1; dim <= 20; dim++ {
		for n := 1; n <= 9; n++ {
			q, rows := guardedVector(t, rng, dim), make([]Vector, n)
			for i := range rows {
				rows[i] = guardedVector(t, rng, dim)
			}
			for _, limit := range []float64{0, math.Sqrt(float64(dim)), math.Inf(1)} {
				for body, k := range itemBodies(Euclidean{}) {
					what := fmt.Sprintf("dim=%d n=%d limit=%v %s", dim, n, limit, body)
					checkItems(t, what, Euclidean{}, k, n, q, rows, limit, func(_ int, _ float64, _ bool, limit float64) float64 {
						return limit
					})
				}
			}
		}
	}
}
