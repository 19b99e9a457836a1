//go:build !amd64 || purego

package store

// Off amd64, and under -tags purego, hash/crc32 is the only body.
var haveFold = false

func crc32cFold(crc uint32, p []byte, k *[12]uint64) uint32 {
	panic("store: no assembly CRC-32C in this build")
}
