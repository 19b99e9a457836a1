// On-disk dataset format.
//
// A persistent dataset is a directory holding two kinds of files:
//
//   - one page file ("pages-g<generation>.dat"): the data pages of the
//     dataset encoded back to back, each as a self-describing record with a
//     trailing CRC-32C;
//   - the manifest ("MANIFEST"): a JSON superblock naming the live page
//     file and carrying per-page metadata — byte offset, length, item
//     count and the same CRC-32C — plus dataset-wide facts (item count,
//     dimensionality, page capacity, free-form attributes).
//
// The manifest is the single source of truth: a page file is invisible
// until a manifest referencing it has been atomically renamed into place
// (see WriteDataset), and every read verifies the page record against both
// the embedded and the manifest checksum, so torn or bit-rotted pages are
// detected, never silently served.
//
// Page record layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "MDPG"
//	4       4     page ID (uint32)
//	8       4     item count n (uint32)
//	12      4     dimensionality d (uint32)
//	16      n*(16+8d)  items: id uint64, label int64, d float64 coordinates
//	…       4     CRC-32C (Castagnoli) over bytes [0, len-4)
//
// Float64 coordinates are stored as their IEEE-754 bit patterns, so a
// decoded page is bit-identical to the encoded one — the property the
// FileDisk-vs-Disk differential suite (internal/msq) depends on.
//
// Item i's coordinates start at header + 16 + i·(16+8d) bytes from the
// record's start, a multiple of 8 for both headers (16 and 24 bytes). A
// record read into a buffer that starts 8-aligned therefore holds every
// coordinate aligned, and a decoded page's item vectors point at them where
// they lie (see Page). The file offsets are not aligned: every record this
// build writes is 4 mod 8 bytes long (the CRC trailer), so every other
// record of a page file starts at 4 mod 8, which is why a mapped record is
// copied, not aliased.
//
// Format version 2 ("columnar") page records carry the same item section
// after a longer header and decode exactly like version 1. Earlier builds
// wrote them; this one only reads them, so directories those builds wrote
// keep opening:
//
//	offset  size  field
//	0       4     magic "MDP2"
//	4       4     page ID (uint32)
//	8       4     item count n (uint32)
//	12      4     dimensionality d (uint32)
//	16      4     flags (bits 0/1: legacy sections, skipped; others invalid)
//	20      4     legacy quantization bits (1..8 when bit 1 set, else 0)
//	24      n*(16+8d)  items: id uint64, label int64, d float64 coordinates
//	…       n*4d  legacy float32 section (flag bit 0), skipped
//	…       n*d   legacy quantized-code section (flag bit 1), skipped
//	…       4     CRC-32C (Castagnoli) over bytes [0, len-4)
//
// The version-2 writer emitted flags 0. The two legacy sections were
// written by still earlier builds (the removed f32 and quant layouts); the
// decoder still length-checks them against the record and the checksum
// still covers them, but nothing is materialized from them, so such a
// dataset opens and serves as a plain columnar one.
//
// A version-2 dataset's manifest says Version 2 and Columnar true; a
// version-1 manifest never claims the columnar field. Readers accept both
// versions, and the writer emits version 1 only, byte-identical to the
// output of every earlier build's version-1 writer.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"strings"
	"unsafe"
)

// Format constants.
const (
	// ManifestName is the published manifest file name inside a dataset
	// directory.
	ManifestName = "MANIFEST"
	// manifestTmpName is the staging name the manifest is written under
	// before the atomic rename.
	manifestTmpName = "MANIFEST.tmp"
	// ManifestMagic guards against loading unrelated JSON documents.
	ManifestMagic = "metricdb-dataset-dir"
	// FormatVersion is the on-disk format version WriteDataset writes.
	FormatVersion = 1
	// FormatVersionColumnar is the columnar format version earlier builds
	// also wrote: version-2 page records (a longer header before the same
	// item section) and the matching manifest field. It is read, never
	// written.
	FormatVersionColumnar = 2

	// pageMagic opens every version-1 page record ("MDPG").
	pageMagic = uint32('M') | uint32('D')<<8 | uint32('P')<<16 | uint32('G')<<24
	// pageMagic2 opens every version-2 columnar page record ("MDP2").
	pageMagic2 = uint32('M') | uint32('D')<<8 | uint32('P')<<16 | uint32('2')<<24
	// pageHeaderLen is the fixed version-1 prefix before the items.
	pageHeaderLen = 16
	// pageHeaderLenV2 is the version-2 prefix: the version-1 fields plus
	// flags and legacy quantization bits.
	pageHeaderLenV2 = 24
	// pageFlagLegacyF32 and pageFlagLegacyQuant mark the sections earlier
	// builds appended to version-2 records; the decoder skips them.
	pageFlagLegacyF32   = 1
	pageFlagLegacyQuant = 2
	// pageTrailerLen is the trailing checksum.
	pageTrailerLen = 4
	// itemFixedLen is the per-item overhead: id (8) + label (8).
	itemFixedLen = 16
	// maxPageDim and maxPageItems bound the decoded sizes so a corrupt
	// header cannot drive a huge allocation before the length check.
	maxPageDim   = 1 << 20
	maxPageItems = 1 << 24
)

// Typed decode errors. ErrCorruptPage wraps every checksum or structural
// page failure so callers (the fault taxonomy, degraded-mode handling) can
// classify storage corruption with errors.Is without parsing messages.
var (
	// ErrCorruptPage marks a page record whose bytes fail validation:
	// bad magic, inconsistent lengths, or a checksum mismatch (torn
	// write, bit rot, misdirected read).
	ErrCorruptPage = errors.New("store: corrupt page record")
	// ErrBadManifest marks a manifest that is unreadable or structurally
	// invalid.
	ErrBadManifest = errors.New("store: invalid dataset manifest")
	// ErrNoDataset marks a directory holding no published manifest.
	ErrNoDataset = errors.New("store: no dataset manifest")
)

// castagnoli is the CRC-32C table: the definition of crc32c and its
// portable body.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c returns crc32.Update(crc, castagnoli, p), the one CRC-32C of the
// store's reads and writes. Where the CPU folds carry-less products on ZMM
// registers (haveFold), the whole 256-byte blocks of p go through the fold,
// about four times hash/crc32's rate; the tail, and every other build,
// through hash/crc32.
func crc32c(crc uint32, p []byte) uint32 {
	if n := len(p) &^ 255; n > 0 && haveFold {
		crc = ^crc32cFold(^crc, p[:n], &foldConsts)
		p = p[n:]
	}
	return crc32.Update(crc, castagnoli, p)
}

// crc32cCopy copies src to dst, which is as long, and returns crc32c(crc,
// dst): the sum of the bytes stored, whatever src holds by the time the
// copy ends. Where crc32c folds, its 256-byte blocks are copied and folded
// in one pass (crc32cFoldCopy); the tail, and every other build, are copied
// first and then summed.
func crc32cCopy(crc uint32, dst, src []byte) uint32 {
	dst = dst[:len(src)]
	if n := len(src) &^ 255; n > 0 && haveFold {
		crc = ^crc32cFoldCopy(^crc, dst[:n], src[:n], &foldConsts)
		dst, src = dst[n:], src[n:]
	}
	copy(dst, src)
	return crc32.Update(crc, castagnoli, dst)
}

// PageEntry is the manifest's record of one page in the page file.
type PageEntry struct {
	// Offset is the byte offset of the page record in the page file.
	Offset int64 `json:"offset"`
	// Length is the full record length in bytes, checksum included.
	Length int64 `json:"length"`
	// Items is the number of items on the page.
	Items int `json:"items"`
	// CRC32C is the record checksum, duplicated from the record trailer
	// so a reader can verify a page against the manifest alone.
	CRC32C uint32 `json:"crc32c"`
}

// Manifest is the dataset superblock. It is the unit of atomic publication:
// a dataset build writes pages and a staged manifest, fsyncs both, and
// renames the manifest into place — a crashed build leaves either the old
// manifest or the new one, never a mixture.
type Manifest struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Generation increases by one per successful rebuild of the dataset
	// in the same directory; it tags the page file name so a rebuild
	// never overwrites the pages the published manifest references.
	Generation int64 `json:"generation"`
	// Items, Dim and PageCapacity describe the dataset: total item
	// count, vector dimensionality, and the maximum items per page.
	Items        int `json:"items"`
	Dim          int `json:"dim"`
	PageCapacity int `json:"page_capacity"`
	// PagesFile is the page file's name within the dataset directory.
	PagesFile string `json:"pages_file"`
	// PagesBytes is the page file's total length in bytes.
	PagesBytes int64 `json:"pages_bytes"`
	// Attrs carries free-form dataset attributes (generator kind, seed,
	// …) for provenance; the storage layer never interprets them.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Columnar reports version-2 columnar page records. Exactly
	// Version == FormatVersionColumnar datasets set it; a version-1
	// manifest claiming it is rejected.
	Columnar bool `json:"columnar,omitempty"`
	// Pages lists every page in PageID order.
	Pages []PageEntry `json:"pages"`
}

// recordLen returns the page-record byte length the manifest's shape
// implies for a page of the given item count.
func (m *Manifest) recordLen(items int) int64 {
	header := pageHeaderLen
	if m.Columnar {
		header = pageHeaderLenV2
	}
	return int64(header) + int64(items)*int64(itemFixedLen+8*m.Dim) + pageTrailerLen
}

// legacySectionsLen returns the bytes the legacy sections named by flags
// add to a columnar record of the given shape.
func legacySectionsLen(flags uint32, items, dim uint64) uint64 {
	var l uint64
	if flags&pageFlagLegacyF32 != 0 {
		l += items * 4 * dim
	}
	if flags&pageFlagLegacyQuant != 0 {
		l += items * dim
	}
	return l
}

// validRecordLen reports whether e's length fits the manifest's shape: the
// exact record length, or for a columnar dataset of an earlier build that
// length plus one combination of the legacy sections (whose manifest keys
// this build no longer reads; the record's own flags say which).
func (m *Manifest) validRecordLen(e PageEntry) bool {
	extra := e.Length - m.recordLen(e.Items)
	if extra == 0 {
		return true
	}
	if m.Columnar {
		for f := uint32(1); f <= pageFlagLegacyF32|pageFlagLegacyQuant; f++ {
			if extra == int64(legacySectionsLen(f, uint64(e.Items), uint64(m.Dim))) {
				return true
			}
		}
	}
	return false
}

// EncodePage serializes one page as a version-1 record. Every item must
// have exactly dim coordinates.
func EncodePage(p *Page, dim int) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("store: encode of nil page")
	}
	if p.ID < 0 {
		return nil, fmt.Errorf("store: encode of page with negative ID %d", p.ID)
	}
	if dim < 0 || dim > maxPageDim {
		return nil, fmt.Errorf("store: page dimensionality %d outside [0, %d]", dim, maxPageDim)
	}
	if len(p.Items) > maxPageItems {
		return nil, fmt.Errorf("store: page holds %d items, format maximum is %d", len(p.Items), maxPageItems)
	}
	size := pageHeaderLen + len(p.Items)*(itemFixedLen+8*dim) + pageTrailerLen
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, pageMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Items)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dim))
	for i := range p.Items {
		it := &p.Items[i]
		if it.Vec.Dim() != dim {
			return nil, fmt.Errorf("store: page %d item %d has dimension %d, want %d", p.ID, i, it.Vec.Dim(), dim)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.Label))
		for _, c := range it.Vec {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32c(0, buf))
	return buf, nil
}

// DecodePage deserializes one page record, verifying structure and the
// embedded checksum. It never panics on arbitrary input: every length is
// validated against the actual data size before any allocation, and all
// failures return an error wrapping ErrCorruptPage. The page keeps a copy
// of the record, which its item vectors point into; data is not retained.
func DecodePage(data []byte) (*Page, error) {
	p := new(Page)
	if err := decodePageInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// decodePageInto is DecodePage into a page the caller owns: checkRecord,
// then bind. dst is touched only after every check has passed.
func decodePageInto(dst *Page, data []byte) error {
	r, err := checkRecord(data)
	if err != nil {
		return err
	}
	dst.bind(data, r, bigEndian)
	return nil
}

// checkedRecord is what checkRecord learned of a record that passed every check.
type checkedRecord struct {
	id       PageID
	n, dim   int
	header   int    // bytes before the first item
	columnar bool   // a version-2 record
	sum      uint32 // the CRC-32C of the body, equal to the record's trailer
}

// checkRecord validates one page record of either version — magic, header
// bounds, exact length (legacy sections included), checksum — without
// touching anything but data.
func checkRecord(data []byte) (checkedRecord, error) {
	return checkSummed(data, crc32c(0, recordBody(data)))
}

// recordBody is what a record's trailer sums: all of it but the last four
// bytes.
func recordBody(data []byte) []byte { return data[:max(len(data)-pageTrailerLen, 0)] }

// checkSummed is checkRecord given sum, the CRC-32C of recordBody(data),
// which FileDisk folds as it copies the record out of the mapping.
func checkSummed(data []byte, sum uint32) (checkedRecord, error) {
	r := checkedRecord{header: pageHeaderLen}
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == pageMagic2 {
		r.header, r.columnar = pageHeaderLenV2, true
	}
	if len(data) < r.header+pageTrailerLen {
		return r, fmt.Errorf("%w: record of %d bytes is shorter than the %d-byte envelope",
			ErrCorruptPage, len(data), r.header+pageTrailerLen)
	}
	if m := binary.LittleEndian.Uint32(data); m != pageMagic && m != pageMagic2 {
		return r, fmt.Errorf("%w: bad magic %#08x", ErrCorruptPage, m)
	}
	id := binary.LittleEndian.Uint32(data[4:8])
	count := binary.LittleEndian.Uint32(data[8:12])
	dim := binary.LittleEndian.Uint32(data[12:16])
	if id > math.MaxInt32 {
		return r, fmt.Errorf("%w: page ID %d overflows PageID", ErrCorruptPage, id)
	}
	if count > maxPageItems || dim > maxPageDim {
		return r, fmt.Errorf("%w: implausible header (items %d, dim %d)", ErrCorruptPage, count, dim)
	}
	var legacy uint64
	if r.columnar {
		flags := binary.LittleEndian.Uint32(data[16:20])
		qbits := binary.LittleEndian.Uint32(data[20:24])
		if flags&^uint32(pageFlagLegacyF32|pageFlagLegacyQuant) != 0 {
			return r, fmt.Errorf("%w: unknown flags %#x", ErrCorruptPage, flags)
		}
		if flags&pageFlagLegacyQuant != 0 {
			if qbits < 1 || qbits > 8 {
				return r, fmt.Errorf("%w: %d quantization bits, want 1..8", ErrCorruptPage, qbits)
			}
		} else if qbits != 0 {
			return r, fmt.Errorf("%w: quantization bits %d without a code section", ErrCorruptPage, qbits)
		}
		legacy = legacySectionsLen(flags, uint64(count), uint64(dim))
	}
	want := uint64(r.header) + uint64(count)*uint64(itemFixedLen+8*dim) + legacy + pageTrailerLen
	if uint64(len(data)) != want {
		return r, fmt.Errorf("%w: record is %d bytes, header implies %d", ErrCorruptPage, len(data), want)
	}
	r.sum = sum
	if claimed := binary.LittleEndian.Uint32(data[len(data)-pageTrailerLen:]); r.sum != claimed {
		return r, fmt.Errorf("%w: checksum %#08x, record claims %#08x", ErrCorruptPage, r.sum, claimed)
	}
	r.id, r.n, r.dim = PageID(id), int(count), int(dim)
	return r, nil
}

// bigEndian reports a host whose float64 words read a record's
// little-endian coordinates byte-reversed.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// bind makes p the page of data, a record checkRecord accepted as r. Unless
// data already is p's record buffer (where FileDisk reads a record), it is
// copied in whole (DecodePage); either way every Items[i].Vec then points at
// item i's coordinates inside that buffer, cap == len, and p.Items is reused
// when large enough, so binding a recycled page allocates nothing. A
// recycled page whose vectors already point there — the same buffer, dim and
// header, see hdrs — keeps them: a rebind writes only IDs and labels. swap
// (a big-endian host) byte-reverses the coordinate words in place first: the
// record has passed its checksum, and they are read only through the vectors
// from here on.
func (p *Page) bind(data []byte, r checkedRecord, swap bool) {
	rec := p.record(len(data))
	if unsafe.SliceData(rec) != unsafe.SliceData(data) {
		copy(rec, data)
	}
	if p.Items == nil || cap(p.Items) < r.n {
		p.Items, p.hdrs = make([]Item, r.n), 0
	}
	if r.dim != p.hdrDim || r.header != p.hdrLen {
		p.hdrs, p.hdrDim, p.hdrLen = 0, r.dim, r.header
	}
	p.ID, p.Items = r.id, p.Items[:r.n]
	stride, item, kept := itemFixedLen+8*r.dim, rec[r.header:], p.hdrs
	for i := range p.Items {
		it := &p.Items[i]
		it.ID = ItemID(binary.LittleEndian.Uint64(item))
		it.Label = int(int64(binary.LittleEndian.Uint64(item[8:])))
		coords := unsafe.Pointer(&item[itemFixedLen])
		if swap {
			reverseWords(unsafe.Slice((*uint64)(coords), r.dim))
		}
		if i >= kept {
			it.Vec = unsafe.Slice((*float64)(coords), r.dim)
		}
		item = item[stride:]
	}
	p.hdrs = max(kept, r.n)
}

// reverseWords byte-reverses every word of w.
func reverseWords(w []uint64) {
	for j, x := range w {
		w[j] = bits.ReverseBytes64(x)
	}
}

// record returns the page's record buffer as n bytes, replacing it when n
// does not fit (the vectors bind kept then point at the old one). It is a
// []uint64 underneath, so its start — and with it every coordinate of a
// record read into it — is 8-aligned by type.
func (p *Page) record(n int) []byte {
	if words := (n + 7) / 8; len(p.rec) < words {
		p.rec, p.hdrs = make([]uint64, words), 0
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p.rec))), n)
}

// EncodeManifest serializes a manifest as indented JSON (the file is meant
// to be inspectable with standard tools).
func EncodeManifest(m *Manifest) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("store: encode of nil manifest")
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encode manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeManifest parses and validates a manifest document. It never panics
// on arbitrary input; every failure returns an error wrapping
// ErrBadManifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.Magic != ManifestMagic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrBadManifest, m.Magic, ManifestMagic)
	}
	switch m.Version {
	case FormatVersion:
		if m.Columnar {
			return nil, fmt.Errorf("%w: version %d manifest claims the columnar field", ErrBadManifest, m.Version)
		}
	case FormatVersionColumnar:
		if !m.Columnar {
			return nil, fmt.Errorf("%w: version %d manifest without columnar flag", ErrBadManifest, m.Version)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadManifest, m.Version)
	}
	if m.Generation < 0 {
		return nil, fmt.Errorf("%w: negative generation %d", ErrBadManifest, m.Generation)
	}
	if m.Items < 0 || m.Dim < 0 || m.Dim > maxPageDim || m.PageCapacity < 0 {
		return nil, fmt.Errorf("%w: negative or implausible shape (items %d, dim %d, capacity %d)",
			ErrBadManifest, m.Items, m.Dim, m.PageCapacity)
	}
	if len(m.Pages) > 0 {
		// The page file name must be a plain name inside the dataset
		// directory: a manifest must not be able to point reads at an
		// arbitrary filesystem path.
		if m.PagesFile == "" || strings.ContainsAny(m.PagesFile, "/\\") || m.PagesFile == "." || m.PagesFile == ".." {
			return nil, fmt.Errorf("%w: page file name %q is not a plain file name", ErrBadManifest, m.PagesFile)
		}
	}
	var end int64
	var items int64
	for i, e := range m.Pages {
		if e.Offset != end {
			return nil, fmt.Errorf("%w: page %d at offset %d, expected %d (records must be contiguous)",
				ErrBadManifest, i, e.Offset, end)
		}
		if e.Items < 0 || e.Items > maxPageItems {
			return nil, fmt.Errorf("%w: page %d claims %d items", ErrBadManifest, i, e.Items)
		}
		if !m.validRecordLen(e) {
			return nil, fmt.Errorf("%w: page %d length %d, shape implies %d", ErrBadManifest, i, e.Length, m.recordLen(e.Items))
		}
		end += e.Length
		items += int64(e.Items)
	}
	if m.PagesBytes != end {
		return nil, fmt.Errorf("%w: pages_bytes %d, entries sum to %d", ErrBadManifest, m.PagesBytes, end)
	}
	if items != int64(m.Items) {
		return nil, fmt.Errorf("%w: items %d, page entries sum to %d", ErrBadManifest, m.Items, items)
	}
	return &m, nil
}
