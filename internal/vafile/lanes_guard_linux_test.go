//go:build linux

package vafile

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps enough pages for n values of T and one more, makes the last
// inaccessible and returns n zero values whose last one ends flush against
// it: a load of even one byte past v[n-1] faults.
func guarded[T any](t *testing.T, n int) []T {
	t.Helper()
	page, size := syscall.Getpagesize(), n*int(unsafe.Sizeof(*new(T)))
	mapped := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, mapped+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[mapped:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[mapped-size])), n)
}

// TestLaneSweepStaysInBounds runs every lane-pass body over a table and cells
// that each end flush against an inaccessible page, for dimensions 1–20,
// 2, 64 and 256 cells a dimension and 1–9 items, whose first item's last
// cell is the table's last term. A body that loads past the table's last
// term or past the last whole item's last cell dies of SIGSEGV here.
func TestLaneSweepStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for dim := 1; dim <= 20; dim++ {
		for _, ncells := range []int{2, 64, 256} {
			tab := guarded[laneTerm](t, dim*ncells)
			for i := range tab {
				for j := range lanes {
					tab[i][j] = rng.Float64()
				}
			}
			for n := 1; n <= 9; n++ {
				cells := guarded[uint8](t, n*dim)
				copy(cells, randomCells(rng, n, dim, ncells))
				want := laneReference(tab, cells, dim, ncells)
				for _, asm := range laneBodies() {
					if err := sameLanes(runLanes(asm, tab, cells, dim, ncells), want); err != nil {
						t.Fatalf("%s dim=%d ncells=%d n=%d: %v", bodyName(asm), dim, ncells, n, err)
					}
				}
			}
		}
	}
}
