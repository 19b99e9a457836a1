//go:build amd64 && !purego

package store

import "metricdb/internal/vec"

// haveFold reports whether crc32c and crc32cCopy may run crc32cFold and
// crc32cFoldCopy (vec's probe). A var, so the tests also run the portable
// bodies on a CPU that has the fold.
var haveFold = vec.HaveAVX512CLMUL()

// crc32cFold returns the CRC-32C register, without the inversions, after
// p from crc: len(p) is a positive multiple of 256, k is foldConsts.
//
//go:noescape
func crc32cFold(crc uint32, p []byte, k *[12]uint64) uint32

// crc32cFoldCopy is crc32cFold over src that also copies src to dst, as
// long, in the same pass: each 64 bytes are loaded once, stored and folded.
//
//go:noescape
func crc32cFoldCopy(crc uint32, dst, src []byte, k *[12]uint64) uint32
