//go:build amd64 && !purego

package store

import "metricdb/internal/vec"

// haveFold reports whether crc32c may run crc32cFold (vec's probe). A var,
// so the tests also run the portable body on a CPU that has the fold.
var haveFold = vec.HaveAVX512CLMUL()

// crc32cFold returns the CRC-32C register, without the inversions, after
// p from crc: len(p) is a positive multiple of 256, k is foldConsts.
//
//go:noescape
func crc32cFold(crc uint32, p []byte, k *[12]uint64) uint32
