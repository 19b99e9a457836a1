package store

import "math/bits"

// foldConsts are crc32cFold's fold pairs, for 2048 bits (the loop), 512
// (across accumulators), then 384, 256 and 128 (across a register's lanes)
// and a zero pair, so the last lane folds to nothing.
var foldConsts = func() (k [12]uint64) {
	for i, d := range []int{2048, 512, 384, 256, 128} {
		k[2*i], k[2*i+1] = foldPair(d)
	}
	return k
}()

// foldPair is the pair that folds a 128-bit lane of the bit-reflected
// message d bits forward: the lane's first 64 bits are multiplied by the
// first, its last 64 by the second. A reflected carry-less product is one
// bit short (it lands as a·b·x), hence x^(63+d) and x^(d−1) rather than
// x^(64+d) and x^d.
func foldPair(d int) (lo, hi uint64) {
	return bits.Reverse64(xPowMod(63 + d)), bits.Reverse64(xPowMod(d - 1))
}

// xPowMod is x^n mod P, P the CRC-32C polynomial, coefficient i at bit i.
func xPowMod(n int) uint64 {
	const p = 1<<32 | 0x1edc6f41
	v := uint64(1)
	for ; n > 0; n-- {
		if v <<= 1; v&(1<<32) != 0 {
			v ^= p
		}
	}
	return v
}
