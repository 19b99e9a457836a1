//go:build linux

package store

import (
	"hash/crc32"
	"math/rand"
	"syscall"
	"testing"
)

// TestCRC32CStaysInBounds runs every body over messages that end flush
// against an inaccessible page: every length to 1 100 and serve_stored's
// record body give or take 300 bytes. A body that loads even one byte past
// the message dies of SIGSEGV here.
func TestCRC32CStaysInBounds(t *testing.T) {
	page := syscall.Getpagesize()
	mapped := (34576 + 300 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, mapped+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem) //nolint:errcheck
	if err := syscall.Mprotect(mem[mapped:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	buf := mem[:mapped]
	rng := rand.New(rand.NewSource(53))
	rng.Read(buf)
	lengths := make([]int, 0, 1700)
	for n := 0; n <= 1100; n++ {
		lengths = append(lengths, n)
	}
	for n := 34576 - 300; n <= 34576+300; n++ {
		lengths = append(lengths, n)
	}
	crcBodies(t, func(body string) {
		for _, n := range lengths {
			p := buf[len(buf)-n:]
			c := rng.Uint32()
			if got, want := crc32c(c, p), crc32.Update(c, castagnoli, p); got != want {
				t.Fatalf("%s: %d bytes against the guard page: %#08x, want %#08x", body, n, got, want)
			}
		}
	})
}
