//go:build linux

package store

import (
	"hash/crc32"
	"math/rand"
	"syscall"
	"testing"
)

// guarded returns size bytes that end flush against an inaccessible page,
// unmapped when the test ends.
func guarded(t *testing.T, size int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mapped := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, mapped+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) }) //nolint:errcheck
	if err := syscall.Mprotect(mem[mapped:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return mem[mapped-size : mapped]
}

// TestCRC32CStaysInBounds runs every body over messages that end flush
// against an inaccessible page: every length to 1 100 and serve_stored's
// record body give or take 300 bytes. A body that loads even one byte past
// the message dies of SIGSEGV here. crc32cCopy runs with its source and its
// destination each flush against a guard page, so a load past the one or a
// store past the other dies too.
func TestCRC32CStaysInBounds(t *testing.T) {
	const size = 34576 + 300
	buf, dst := guarded(t, size), guarded(t, size)
	rng := rand.New(rand.NewSource(53))
	rng.Read(buf)
	notBuf := complement(buf)
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
			want := crc32.Update(c, castagnoli, p)
			if got := crc32c(c, p); got != want {
				t.Fatalf("%s: %d bytes against the guard page: %#08x, want %#08x", body, n, got, want)
			}
			checkCRC32CCopy(t, body, c, dst[len(dst)-n:], p, notBuf[len(buf)-n:], want)
		}
	})
}
