package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"metricdb/internal/vec"
)

// checkRecycledDecode decodes data twice more and holds both against the
// fresh decode (DecodePage, from the caller's memory): once from the
// caller's memory into a destination that last held a larger page of
// another shape (tenant, a valid record) and was recycled, and once in
// place, from a page's own record buffer, where a pread lands. An accepted
// record yields the same page field by field every way, each vector a
// capped, aligned view of its own page's record; a rejected
// one is rejected every way and leaves the recycled destination as it found
// it — no ID, no items, the record it held byte for byte.
func checkRecycledDecode(t *testing.T, tenant, data []byte, fresh *Page) {
	t.Helper()
	dst := new(Page)
	if err := decodePageInto(dst, tenant); err != nil {
		t.Fatal(err)
	}
	dst.home = &FileDisk{free: make(chan *Page, 1)}
	dst.pins.Store(1)
	dst.unpin()
	held := slices.Clone(dst.rec)

	inPlace := new(Page)
	copy(inPlace.record(len(data)), data)
	inPlaceErr := decodePageInto(inPlace, inPlace.record(len(data)))
	if err := decodePageInto(dst, data); err != nil {
		if fresh != nil || inPlaceErr == nil {
			t.Fatalf("fresh decode accepted %v, in place %v, what the recycled decode rejects: %v", fresh != nil, inPlaceErr == nil, err)
		}
		if dst.ID != InvalidPage || len(dst.Items) != 0 || !slices.Equal(dst.rec, held) {
			t.Fatal("a rejected record changed its destination")
		}
		return
	}
	if fresh == nil || inPlaceErr != nil {
		t.Fatalf("recycled decode accepted what the fresh decode (%v) or the one in place (%v) rejects", fresh != nil, inPlaceErr)
	}
	for _, p := range []*Page{fresh, dst, inPlace} {
		if !samePage(p, fresh) {
			t.Fatal("recycled or in-place decode differs from the fresh one")
		}
		requireAliasesRecord(t, p)
	}
}

// tenantRecord encodes the page a fuzzed record's recycled destination held
// before: 40 items of dimension 7, larger than any seed.
func tenantRecord(f *testing.F, columnar bool) []byte {
	return encodeRecord(f, &Page{ID: 11, Items: testItems(40, 7)}, 7, columnar)
}

// FuzzPageDecode throws arbitrary bytes at the page-record decoder. The
// contract under fuzzing: never panic, never over-allocate from a
// corrupt header, and on success uphold the structural invariants
// (re-encoding the decoded page reproduces the input bit for bit, so no
// two distinct valid records decode to the same page).
func FuzzPageDecode(f *testing.F) {
	// Seed corpus: valid records of several shapes plus near-miss
	// mutations, so the fuzzer starts at the interesting boundaries.
	seed := func(n, dim int) []byte {
		items := make([]Item, n)
		for i := range items {
			v := make(vec.Vector, dim)
			for d := range v {
				v[d] = float64(i)*0.5 - float64(d)
			}
			items[i] = Item{ID: ItemID(i), Vec: v, Label: i - 1}
		}
		rec, err := EncodePage(&Page{ID: 3, Items: items}, dim)
		if err != nil {
			f.Fatal(err)
		}
		return rec
	}
	f.Add([]byte{})
	f.Add(seed(0, 0))
	f.Add(seed(1, 1))
	f.Add(seed(16, 4))
	f.Add(seed(5, 20))
	long := seed(16, 4)
	long[0] ^= 1 // broken magic
	f.Add(long)
	trunc := seed(16, 4)
	f.Add(trunc[:len(trunc)-7])
	huge := seed(1, 1)
	huge[8] = 0xFF // implausible item count
	huge[9] = 0xFF
	huge[10] = 0xFF
	f.Add(huge)

	tenant := tenantRecord(f, true) // a columnar tenant under version-1 records

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePage(data)
		checkRecycledDecode(t, tenant, data, p)
		if err != nil {
			if p != nil {
				t.Fatal("decoder returned both a page and an error")
			}
			return
		}
		if p == nil {
			t.Fatal("decoder returned neither page nor error")
		}
		if p.ID < 0 {
			t.Fatalf("decoded negative page ID %d", p.ID)
		}
		// The record's dimensionality: from the items when present, from
		// the header for an empty page (the items carry no evidence).
		dim := int(uint32(data[12]) | uint32(data[13])<<8 | uint32(data[14])<<16 | uint32(data[15])<<24)
		if len(p.Items) > 0 {
			dim = p.Items[0].Vec.Dim()
		}
		for i := range p.Items {
			if p.Items[i].Vec.Dim() != dim {
				t.Fatal("decoded page mixes dimensionalities")
			}
		}
		re, err := EncodePage(p, dim)
		if err != nil {
			t.Fatalf("re-encode of decoded page failed: %v", err)
		}
		if string(re) != string(data) {
			t.Fatal("decode/encode round trip altered the record")
		}
	})
}

// FuzzColumnarPageDecode targets the version-2 (columnar) page-record
// decoder with seeds covering every legacy-section combination earlier
// builds wrote. Same contract as FuzzPageDecode — never panic, never
// allocate from an unvalidated size — plus the columnar structural
// invariants: legacy sections are skipped, and an accepted record is the
// version-1 record of the page it decodes to, spliced to version 2
// (spliceV2), with its legacy sections after the items. The seeds are
// encoded pages spliced the same way, and the first record of the
// version-2 dataset an earlier build wrote (testdata/v2_columnar).
func FuzzColumnarPageDecode(f *testing.F) {
	// seed splices an encoded page to version 2 and, for non-zero flags,
	// grafts on the legacy sections the way the removed writers laid them
	// out (flags, quantization bits, section bytes, fresh checksum).
	seed := func(n, dim int, flags, qbits uint32) []byte {
		rec := encodeRecord(f, &Page{ID: 7, Items: testItems(n, dim)}, dim, true)
		if flags == 0 {
			return rec
		}
		rec = rec[:len(rec)-pageTrailerLen]
		binary.LittleEndian.PutUint32(rec[16:], flags)
		binary.LittleEndian.PutUint32(rec[20:], qbits)
		for i := uint64(0); i < legacySectionsLen(flags, uint64(n), uint64(dim)); i++ {
			rec = append(rec, byte(i))
		}
		return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, castagnoli))
	}
	f.Add([]byte{})
	f.Add(seed(0, 3, 0, 0))
	f.Add(seed(1, 1, 0, 0))
	f.Add(seed(16, 4, 0, 0))
	f.Add(seed(16, 4, pageFlagLegacyF32, 0))
	f.Add(seed(16, 4, pageFlagLegacyQuant, 6))
	f.Add(seed(16, 4, pageFlagLegacyF32|pageFlagLegacyQuant, 8))
	f.Add(seed(5, 20, pageFlagLegacyF32|pageFlagLegacyQuant, 1))
	f.Add(seed(16, 4, pageFlagLegacyF32, 6)) // quantization bits without a code section
	badFlags := seed(16, 4, pageFlagLegacyF32, 0)
	badFlags[16] |= 4 // unknown flag bit
	f.Add(badFlags)
	trunc := seed(16, 4, pageFlagLegacyF32|pageFlagLegacyQuant, 6)
	f.Add(trunc[:len(trunc)-9])
	huge := seed(1, 1, 0, 0)
	huge[8] = 0xFF // implausible item count
	huge[9] = 0xFF
	huge[10] = 0xFF
	f.Add(huge)
	f.Add(fixtureRecord(f, "v2_columnar", 0))

	tenant := tenantRecord(f, false) // a version-1 tenant under columnar records

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePage(data)
		checkRecycledDecode(t, tenant, data, p)
		if err != nil {
			if p != nil {
				t.Fatal("decoder returned both a page and an error")
			}
			return
		}
		if p == nil {
			t.Fatal("decoder returned neither page nor error")
		}
		if len(data) < 16 || binary.LittleEndian.Uint32(data[0:4]) != pageMagic2 {
			return // version-1 record; FuzzPageDecode owns those invariants
		}
		// A version-2 record decodes like a version-1 one: re-encoded
		// (version 1) and spliced back, the page reproduces the record up
		// to the end of the items, with flags and quantization bits
		// cleared and a checksum of its own.
		dim := int(binary.LittleEndian.Uint32(data[12:16]))
		v1, err := EncodePage(p, dim)
		if err != nil {
			t.Fatalf("re-encode of decoded page failed: %v", err)
		}
		re := spliceV2(v1)
		flags := binary.LittleEndian.Uint32(data[16:20])
		legacy := int(legacySectionsLen(flags, uint64(len(p.Items)), uint64(dim)))
		if len(re) != len(data)-legacy {
			t.Fatalf("re-encoded record is %d bytes, want %d-%d", len(re), len(data), legacy)
		}
		if flags == 0 && string(re) != string(data) {
			t.Fatal("decode/encode round trip altered the record")
		}
		items := len(re) - pageTrailerLen
		if string(re[:16]) != string(data[:16]) || string(re[pageHeaderLenV2:items]) != string(data[pageHeaderLenV2:items]) {
			t.Fatal("decode/encode round trip altered the header or the items")
		}
	})
}

// FuzzManifestDecode throws arbitrary bytes at the manifest decoder: never
// panic, and any accepted manifest satisfies the structural invariants the
// FileDisk relies on (contiguous entries, consistent sums, a page file
// name that cannot escape the dataset directory).
func FuzzManifestDecode(f *testing.F) {
	valid := func(n, dim, capacity int) []byte {
		pages, err := Paginate(testItems(n, dim), capacity)
		if err != nil {
			f.Fatal(err)
		}
		man := Manifest{
			Magic: ManifestMagic, Version: FormatVersion, Generation: 2,
			Items: n, Dim: dim, PageCapacity: capacity,
			PagesFile: "pages-g00000002.dat",
			Attrs:     map[string]string{"kind": "fuzz"},
		}
		for _, p := range pages {
			rec, err := EncodePage(p, dim)
			if err != nil {
				f.Fatal(err)
			}
			man.Pages = append(man.Pages, PageEntry{
				Offset: man.PagesBytes, Length: int64(len(rec)),
				Items: len(p.Items), CRC32C: crcOf(rec),
			})
			man.PagesBytes += int64(len(rec))
		}
		body, err := EncodeManifest(&man)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	// validV2 is a columnar manifest; with legacy set it has the shape an
	// earlier build's -layout quant wrote: longer records and a "quant"
	// key this build ignores.
	validV2 := func(n, dim, capacity int, legacy bool) []byte {
		pages, err := Paginate(testItems(n, dim), capacity)
		if err != nil {
			f.Fatal(err)
		}
		man := Manifest{
			Magic: ManifestMagic, Version: FormatVersionColumnar, Generation: 1,
			Items: n, Dim: dim, PageCapacity: capacity,
			PagesFile: "pages-g00000001.dat",
			Columnar:  true,
		}
		for _, p := range pages {
			rec := encodeRecord(f, p, dim, true)
			length := int64(len(rec))
			if legacy {
				length += int64(legacySectionsLen(pageFlagLegacyQuant, uint64(len(p.Items)), uint64(dim)))
			}
			man.Pages = append(man.Pages, PageEntry{
				Offset: man.PagesBytes, Length: length,
				Items: len(p.Items), CRC32C: crcOf(rec),
			})
			man.PagesBytes += length
		}
		body, err := EncodeManifest(&man)
		if err != nil {
			f.Fatal(err)
		}
		if legacy {
			body = append([]byte(`{"quant":{"bits":6,"min":[0,0,0],"step":[1,1,1]},`), body[1:]...)
		}
		return body
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte(`{"magic":"metricdb-dataset-dir","version":1}`))
	f.Add(valid(0, 0, 4))
	f.Add(valid(40, 4, 16))
	f.Add(valid(7, 2, 3))
	f.Add(validV2(12, 3, 5, false))
	f.Add(validV2(12, 3, 5, true))
	evil := valid(7, 2, 3)
	f.Add([]byte(string(evil)[:len(evil)/2]))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if m.Magic != ManifestMagic || (m.Version != FormatVersion && m.Version != FormatVersionColumnar) {
			t.Fatal("accepted manifest with wrong magic or version")
		}
		if m.Version == FormatVersion && m.Columnar {
			t.Fatal("accepted version-1 manifest claiming the columnar field")
		}
		if m.Version == FormatVersionColumnar && !m.Columnar {
			t.Fatal("accepted version-2 manifest without the columnar flag")
		}
		if m.Items < 0 || m.Dim < 0 || m.PageCapacity < 0 || m.Generation < 0 {
			t.Fatal("accepted manifest with negative shape")
		}
		var end, items int64
		for _, e := range m.Pages {
			if e.Offset != end || e.Items < 0 {
				t.Fatal("accepted non-contiguous or negative page entry")
			}
			end += e.Length
			items += int64(e.Items)
		}
		if end != m.PagesBytes || items != int64(m.Items) {
			t.Fatal("accepted manifest with inconsistent sums")
		}
		if len(m.Pages) > 0 {
			for _, c := range m.PagesFile {
				if c == '/' || c == '\\' {
					t.Fatalf("accepted page file path %q", m.PagesFile)
				}
			}
		}
		if int64(m.Items)*int64(16+8*m.Dim) > math.MaxInt64/2 {
			t.Fatal("accepted manifest implying overflowing dataset size")
		}
	})
}
