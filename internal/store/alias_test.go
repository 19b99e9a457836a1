package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"metricdb/internal/vec"
)

// requireAliasesRecord fails unless every vector of p is the capped view of
// its item's coordinates in p's own record buffer: header + 16 + i·(16+8d)
// bytes from the buffer's start, 8-aligned, cap == len, inside the buffer.
func requireAliasesRecord(t *testing.T, p *Page) {
	t.Helper()
	rec := p.record(8 * len(p.rec))
	header := pageHeaderLen
	if len(rec) >= 4 && binary.LittleEndian.Uint32(rec) == pageMagic2 {
		header = pageHeaderLenV2
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(rec)))
	for i, it := range p.Items {
		v := it.Vec
		at := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
		want := start + uintptr(header+itemFixedLen+i*(itemFixedLen+8*len(v)))
		if at != want || at%8 != 0 || cap(v) != len(v) || at+uintptr(8*len(v)) > start+uintptr(len(rec)) {
			t.Fatalf("page %d item %d: vector at %#x (len %d, cap %d), want the record's coordinates at %#x in [%#x, %#x)",
				p.ID, i, at, len(v), cap(v), want, start, start+uintptr(len(rec)))
		}
	}
}

// TestDecodedPageAliasesRecord: whatever the read path (pread, mmap), the
// record version, the dimension (0, 1, 7, 16) and the page (empty or not),
// a page a FileDisk serves is its record — every vector points at its
// coordinates in the page's own buffer, aligned, capped, bit-equal to what
// the encoder was given. Five records put two of them at 4 mod 8 in the
// file, so the mapping is unaligned where it must be copied. A vector held
// past the last release reads NaN (the poison hook), and a page held past
// Close stays intact: its record is its own, not the mapping's.
func TestDecodedPageAliasesRecord(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		for _, columnar := range []bool{false, true} {
			for _, dim := range []int{0, 1, 7, 16} {
				t.Run(fmt.Sprintf("mmap=%v/columnar=%v/dim=%d", mmap, columnar, dim), func(t *testing.T) {
					const capacity = 6
					pages, err := Paginate(testItems(3*capacity+2, dim), capacity)
					if err != nil {
						t.Fatal(err)
					}
					pages = append(pages, &Page{ID: PageID(len(pages))}) // empty, and the fifth
					dir := t.TempDir()
					meta := DatasetMeta{Dim: dim, PageCapacity: capacity, Columnar: columnar}
					if err := WriteDataset(dir, pages, meta, WriteOptions{NoSync: true}); err != nil {
						t.Fatal(err)
					}
					fd, err := OpenFileDisk(dir, FileDiskOptions{Mmap: mmap})
					if err != nil {
						t.Fatal(err)
					}
					defer fd.Close() //nolint:errcheck
					if mmap && fd.Mode() != "mmap" {
						t.Skip("no mmap on this platform")
					}
					unaligned := 0
					for _, e := range fd.Manifest().Pages {
						unaligned += int(e.Offset % 8 / 4)
					}
					if unaligned != len(pages)/2 {
						t.Fatalf("%d of %d records at 4 mod 8, want %d", unaligned, len(pages), len(pages)/2)
					}
					var kept []*Page
					for pid := range pages {
						pg, err := fd.Read(PageID(pid))
						if err != nil {
							t.Fatal(err)
						}
						requireAliasesRecord(t, pg)
						if !samePage(pg, pages[pid]) {
							t.Fatalf("page %d decoded differently from what was written", pid)
						}
						if pid%2 == 0 {
							kept = append(kept, pg)
							continue
						}
						stale := make([]vec.Vector, len(pg.Items))
						for i := range pg.Items {
							stale[i] = pg.Items[i].Vec
						}
						pg.unpin()
						for i, v := range stale {
							for _, c := range v {
								if !math.IsNaN(c) {
									t.Fatalf("page %d item %d: a vector held past release reads %v, not the poison", pid, i, c)
								}
							}
						}
					}
					if err := fd.Close(); err != nil {
						t.Fatal(err)
					}
					for _, pg := range kept {
						if !samePage(pg, pages[pg.ID]) {
							t.Fatalf("page %d changed when the disk closed", pg.ID)
						}
					}
				})
			}
		}
	}
}

// TestBindSwapsBigEndianWords runs the byte-swapping body on any host. A
// record whose coordinate words are stored in the other byte order reads,
// here, the way a little-endian record reads on a big-endian host; bind with
// swap must give back the encoder's input from it, from the caller's memory
// and in place, leaving IDs and labels (read byte by byte) alone — and the
// host's own order must come through bind without it.
func TestBindSwapsBigEndianWords(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		const n, dim = 9, 5
		want := &Page{ID: 4, Items: testItems(n, dim)}
		if err := ColumnizePage(want, ColumnSpec{Columnar: columnar}); err != nil {
			t.Fatal(err)
		}
		rec, err := EncodePage(want, dim)
		if err != nil {
			t.Fatal(err)
		}
		r, err := checkRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		foreign := slices.Clone(rec)
		for i := 0; i < r.n; i++ {
			for c := 0; c < r.dim; c++ {
				off := r.header + i*(itemFixedLen+8*r.dim) + itemFixedLen + 8*c
				slices.Reverse(foreign[off : off+8])
			}
		}
		fromCaller, inPlace, native := new(Page), new(Page), new(Page)
		fromCaller.bind(foreign, r, !bigEndian)
		own := inPlace.record(len(foreign))
		copy(own, foreign)
		inPlace.bind(own, r, !bigEndian)
		native.bind(rec, r, bigEndian)
		for name, got := range map[string]*Page{"from the caller": fromCaller, "in place": inPlace, "native": native} {
			if !samePage(got, want) {
				t.Fatalf("columnar=%v: swapped %s, the page differs from the encoder's input", columnar, name)
			}
			requireAliasesRecord(t, got)
		}
	}
}

// BenchmarkDecodePage prices decoding one record of serve_stored's shape
// (240 items × 16 dimensions, 34 580 bytes) into a recycled page: in place,
// where a pread lands, and from the caller's memory (DecodePage's and mmap's
// path), which copies the record in first. One op is one page; B/op reads 0
// for both.
func BenchmarkDecodePage(b *testing.B) {
	const n, dim = 240, 16
	for _, columnar := range []bool{false, true} {
		p := &Page{ID: 3, Items: testItems(n, dim)}
		if err := ColumnizePage(p, ColumnSpec{Columnar: columnar}); err != nil {
			b.Fatal(err)
		}
		rec, err := EncodePage(p, dim)
		if err != nil {
			b.Fatal(err)
		}
		for _, inPlace := range []bool{true, false} {
			b.Run(fmt.Sprintf("columnar=%v/in-place=%v", columnar, inPlace), func(b *testing.B) {
				if inPlace && bigEndian {
					b.Skip("the swap in place changes the record under its checksum")
				}
				dst, data := new(Page), rec
				if inPlace {
					data = dst.record(len(rec))
					copy(data, rec)
				}
				b.SetBytes(int64(len(rec)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := decodePageInto(dst, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
