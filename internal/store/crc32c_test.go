package store

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// crcBodies runs f once for each crc32c and crc32cCopy body this build and
// CPU can run: the fold where it runs, and hash/crc32 alone (the fold
// forced off).
func crcBodies(t testing.TB, f func(body string)) {
	t.Helper()
	defer func(on bool) { haveFold = on }(haveFold)
	if haveFold {
		f("fold")
	}
	haveFold = false
	f("portable")
}

// crcLengths are the lengths the contract covers: every one to 2 048 (every
// tail of a 256-byte block, one block to eight), and serve_stored's record
// body (34 576 bytes) give or take 300.
func crcLengths() []int {
	var ns []int
	for n := 0; n <= 2048; n++ {
		ns = append(ns, n)
	}
	for d := 1; d <= 300; d++ {
		ns = append(ns, 34576-d)
	}
	for d := 0; d <= 300; d++ {
		ns = append(ns, 34576+d)
	}
	return ns
}

// TestCRC32CMatchesHashCRC32: crc32c is crc32.Update over castagnoli for
// every length above, at each of 64 start offsets, from the initial values
// 0, ^0 and a random one a case — through every body. So is crc32cCopy,
// which also leaves its destination equal to the source byte for byte (a
// mapped record is not 8-aligned, hence the source offsets), and writes
// nothing past it.
func TestCRC32CMatchesHashCRC32(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	buf := make([]byte, 64+34576+300)
	rng.Read(buf)
	notBuf := complement(buf)
	dst := make([]byte, 34576+300+1)
	crcBodies(t, func(body string) {
		for _, n := range crcLengths() {
			for off := 0; off < 64; off++ {
				p := buf[off : off+n]
				for i, c := range []uint32{0, ^uint32(0), rng.Uint32()} {
					want := crc32.Update(c, castagnoli, p)
					if got := crc32c(c, p); got != want {
						t.Fatalf("%s: crc32c(%#08x, %d bytes at offset %d) = %#08x, want %#08x", body, c, n, off, got, want)
					}
					if i == (n+off)%3 { // one initial value a case copies
						checkCRC32CCopy(t, body, c, dst, p, notBuf[off:off+n], want)
					}
				}
			}
		}
	})
}

// complement returns p with every bit flipped: a buffer that differs from p
// in every byte.
func complement(p []byte) []byte {
	q := make([]byte, len(p))
	for i := range p {
		q[i] = ^p[i]
	}
	return q
}

// checkCRC32CCopy runs crc32cCopy(c, dst[:len(p)], p) over a destination
// that first holds notP, p's complement, and fails t unless it returns want,
// leaves dst[:len(p)] equal to p and the byte after it as it was.
func checkCRC32CCopy(t testing.TB, body string, c uint32, dst, p, notP []byte, want uint32) {
	t.Helper()
	d := dst[:len(p)]
	copy(d, notP)
	after := len(p) < len(dst)
	if after {
		dst[len(p)] = 0x5a
	}
	if got := crc32cCopy(c, d, p); got != want {
		t.Fatalf("%s: crc32cCopy(%#08x, %d bytes) = %#08x, want %#08x", body, c, len(p), got, want)
	}
	if !bytes.Equal(d, p) {
		t.Fatalf("%s: crc32cCopy of %d bytes: the destination differs from the source", body, len(p))
	}
	if after && dst[len(p)] != 0x5a {
		t.Fatalf("%s: crc32cCopy of %d bytes wrote past its destination", body, len(p))
	}
}

// TestCRC32CChains: updating from the CRC of a prefix, at any split points,
// gives the CRC of the whole — so a block the fold takes may end anywhere in
// the message, and a tail hash/crc32 takes may start anywhere.
func TestCRC32CChains(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	buf := make([]byte, 34576+300)
	rng.Read(buf)
	crcBodies(t, func(body string) {
		for round := 0; round < 2000; round++ {
			p := buf[rng.Intn(64):]
			p = p[:rng.Intn(len(p)+1)]
			c := rng.Uint32()
			want := crc32c(c, p)
			got, rest := c, p
			for len(rest) > 0 {
				k := rng.Intn(len(rest) + 1)
				if rng.Intn(2) == 0 { // a piece of one to four blocks, give or take a byte
					k = min(len(rest), 256*(1+rng.Intn(4))+rng.Intn(3)-1)
				}
				got, rest = crc32c(got, rest[:k]), rest[k:]
			}
			if got != want || want != crc32.Update(c, castagnoli, p) {
				t.Fatalf("%s: %d bytes from %#08x: chained %#08x, one shot %#08x", body, len(p), c, got, want)
			}
		}
	})
}

// FuzzCRC32C holds crc32c and crc32cCopy to hash/crc32, and crc32cCopy's
// destination to its source, through every body on bytes, initial values
// and offsets no generator would pick.
func FuzzCRC32C(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{255, 256, 257, 511, 512} {
		p := make([]byte, n)
		rng.Read(p)
		f.Add(uint32(0), uint8(0), p)
		f.Add(^uint32(0), uint8(n%7), p)
	}
	f.Fuzz(func(t *testing.T, c uint32, off uint8, p []byte) {
		p = p[min(int(off), len(p)):]
		want := crc32.Update(c, castagnoli, p)
		dst := make([]byte, len(p)+1)
		crcBodies(t, func(body string) {
			if got := crc32c(c, p); got != want {
				t.Fatalf("%s: crc32c(%#08x, %d bytes) = %#08x, want %#08x", body, c, len(p), got, want)
			}
			checkCRC32CCopy(t, body, c, dst, p, complement(p), want)
		})
	})
}

var crcSink uint32

// BenchmarkCRC32C prices one record body of serve_stored's shape (34 576
// bytes) through each body: summed in place, copied then summed (copy+sum),
// and copied by crc32cCopy (copy), whose fold body is one pass. The source
// starts at 4 mod 8, as half the records of a mapped page file do.
func BenchmarkCRC32C(b *testing.B) {
	p := make([]byte, 4+34576)[4:]
	rand.New(rand.NewSource(47)).Read(p)
	dst := make([]byte, len(p))
	crcBodies(b, func(body string) {
		b.Run(body, func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				crcSink = crc32c(crcSink, p)
			}
		})
		b.Run(body+"/copy+sum", func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				copy(dst, p)
				crcSink = crc32c(crcSink, dst)
			}
		})
		b.Run(body+"/copy", func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				crcSink = crc32cCopy(crcSink, dst, p)
			}
		})
	})
}
