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

// TestRebindKeepsRecordHeaders: one FileDisk, in either mode, over a
// version-1 or a version-2 dataset, reads every page into the one page its
// free list holds, and the page is its record after every read — however
// the page's last holder left it. The sequence reads the short last page
// first, so the record buffer grows under the full pages after it; serves
// pages through WrapColumns, whose vectors point into the slab, and reads
// the recycled page plain after them; and reads fewer items than the last
// holder had, then more. A rebind that kept a header it should have
// rewritten points a vector at the old buffer or the slab, and
// requireAliasesRecord fails. The poison hook is on, so every release
// NaNs what the last holder could see.
func TestRebindKeepsRecordHeaders(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("mmap=%v/columnar=%v", mmap, columnar), func(t *testing.T) {
				const capacity, dim = 8, 5
				pages, err := Paginate(testItems(4*capacity+3, dim), capacity)
				if err != nil {
					t.Fatal(err)
				}
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
				soa, short := WrapColumns(fd, ColumnSpec{Columnar: true}), PageID(len(pages)-1)
				steps := []struct {
					pid  PageID
					cols bool
				}{
					{short, false}, {0, false}, {1, false}, // the record grows, then a rebind of its shape
					{2, true}, {3, false}, // columnized, then read plain
					{short, false}, {0, false}, // fewer items than the last holder, then more
					{short, true}, {1, true}, {short, false}, {2, false},
				}
				var held *Page
				for i, s := range steps {
					src := PageSource(fd)
					if s.cols {
						src = soa
					}
					pg, err := src.Read(s.pid)
					if err != nil {
						t.Fatal(err)
					}
					if held != nil && pg != held {
						t.Fatalf("step %d: page %d read into a fresh page, not the recycled one", i, s.pid)
					}
					held = pg
					if !samePage(pg, pages[s.pid]) {
						t.Fatalf("step %d: page %d decoded differently from what was written", i, s.pid)
					}
					if s.cols {
						if pg.Cols == nil || len(pg.Items) > 0 && &pg.Items[0].Vec[0] != &pg.slab[0] {
							t.Fatalf("step %d: page %d served without its block", i, s.pid)
						}
					} else {
						requireAliasesRecord(t, pg)
					}
					pg.unpin()
				}
				if st := fd.Storage(); st.PagesReused != int64(len(steps)-1) {
					t.Fatalf("%d of %d reads reused the page, want all but the first", st.PagesReused, len(steps))
				}
			})
		}
	}
}

// TestRebindAcrossShapes decodes records of one shape after another, in
// place, into one page: a record of the same version and dimension with
// fewer items (the headers stay), a record of the same shape made longer
// by a legacy section (the record buffer is replaced), and records of
// another dimension and of another header length, both of which fit the
// buffer and the items the page holds. Every decode must give the encoder's
// page, every vector pointing into the page's own record.
func TestRebindAcrossShapes(t *testing.T) {
	encode := func(n, dim int, columnar, legacy bool) ([]byte, *Page) {
		want := &Page{ID: PageID(n), Items: testItems(n, dim)}
		if err := ColumnizePage(want, ColumnSpec{Columnar: columnar}); err != nil {
			t.Fatal(err)
		}
		rec, err := EncodePage(want, dim)
		if err != nil {
			t.Fatal(err)
		}
		if legacy { // graft on the float32 section an earlier writer appended
			rec = rec[:len(rec)-pageTrailerLen]
			binary.LittleEndian.PutUint32(rec[16:], pageFlagLegacyF32)
			rec = append(rec, make([]byte, legacySectionsLen(pageFlagLegacyF32, uint64(n), uint64(dim)))...)
			rec = binary.LittleEndian.AppendUint32(rec, crc32c(0, rec))
		}
		return rec, want
	}
	p := new(Page)
	for i, shape := range []struct {
		n, dim           int
		columnar, legacy bool
	}{
		{6, 4, true, false},
		{3, 4, true, false}, // fewer items: kept
		{6, 4, true, false}, // as many again: kept
		{6, 4, true, true},  // the same headers, a longer record: a new buffer
		{6, 2, true, false}, // another dimension in the same buffer
		{5, 2, false, false},
		{5, 4, false, false},
		{6, 4, true, false}, // another header length
	} {
		rec, want := encode(shape.n, shape.dim, shape.columnar, shape.legacy)
		data := p.record(len(rec))
		copy(data, rec)
		if err := decodePageInto(p, data); err != nil {
			t.Fatal(err)
		}
		if !samePage(p, want) {
			t.Fatalf("step %d: %+v decoded differently from the encoder's page", i, shape)
		}
		requireAliasesRecord(t, p)
	}
}

// BenchmarkDecodePage prices decoding one record of serve_stored's shape
// (240 items × 16 dimensions, 34 580 bytes) into a recycled page: in place,
// where both of FileDisk's paths land a record, and from the caller's memory
// (DecodePage's path), which copies the record in first. One op is one
// page; B/op reads 0 for both.
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

// BenchmarkFileDiskRead splits a stored page read at serve_stored's shape
// (10 000 items × 16 dimensions, 240 to a page: 42 pages, a buffer of 4)
// into its stages, one op a page, cycling through the pages: pread, the
// record read into a page's buffer; verify, checkRecord on a record in its
// page (the CRC-32C and the header checks); bind, a recycled page bound to
// its own record again; and read, the whole Pager.ReadPage miss and its
// Release — the free-list take, the three stages, the LRU insert and the
// eviction, with the tests' poison hook off. B/op reads 0 for every stage.
func BenchmarkFileDiskRead(b *testing.B) {
	const n, dim, capacity, buffer = 10000, 16, 240, 4
	fd, _ := openStored(b, n, dim, capacity, false)
	pages := make([]*Page, fd.NumPages())
	for pid := range pages {
		pg, err := fd.Read(PageID(pid))
		if err != nil {
			b.Fatal(err)
		}
		pages[pid] = pg
	}
	records := func(i int) (*Page, []byte) {
		pg := pages[i%len(pages)]
		return pg, pg.record(int(fd.Manifest().Pages[pg.ID].Length))
	}
	b.Run("pread", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pg, rec := records(i)
			if _, err := fd.f.ReadAt(rec, fd.Manifest().Pages[pg.ID].Offset); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, rec := records(i)
			if _, err := checkRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bind", func(b *testing.B) {
		if bigEndian {
			b.Skip("the swap in place changes the record under its checksum")
		}
		checked := make([]checkedRecord, len(pages))
		for pid := range pages {
			_, rec := records(pid)
			r, err := checkRecord(rec)
			if err != nil {
				b.Fatal(err)
			}
			checked[pid] = r
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pg, rec := records(i)
			pg.bind(rec, checked[i%len(pages)], bigEndian)
		}
	})
	b.Run("read", func(b *testing.B) {
		defer func() { poisonRecycled = true }()
		poisonRecycled = false // the tests' hook, off as in a build
		pager := storedPager(b, fd, buffer)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pg, err := pager.ReadPage(PageID(i % len(pages)))
			if err != nil {
				b.Fatal(err)
			}
			pager.Release(pg)
		}
	})
}
