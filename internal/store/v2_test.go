package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// spliceV2 rewrites a version-1 page record as the version-2 record an
// earlier build wrote for the same page: the "MDP2" magic and the version-1
// header, eight zero bytes of flags and quantization bits, the same items,
// and a new checksum. WriteDataset writes version 1 only, so this splice is
// how the tests make the records the kept reader must still accept.
func spliceV2(rec []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, pageMagic2)
	out = append(out, rec[4:pageHeaderLen]...)
	out = append(out, make([]byte, pageHeaderLenV2-pageHeaderLen)...)
	out = append(out, rec[pageHeaderLen:len(rec)-pageTrailerLen]...)
	return binary.LittleEndian.AppendUint32(out, crc32c(0, out))
}

// writeDataset is WriteDataset, and with columnar the dataset it wrote
// spliced to version 2: every record through spliceV2, and the manifest's
// version, flag, offsets, lengths and checksums to match.
func writeDataset(t testing.TB, dir string, pages []*Page, meta DatasetMeta, columnar bool) {
	t.Helper()
	if err := WriteDataset(dir, pages, meta, WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	if !columnar {
		return
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.PagesFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for i, e := range man.Pages {
		rec := spliceV2(data[e.Offset : e.Offset+e.Length])
		man.Pages[i] = PageEntry{Offset: int64(len(out)), Length: int64(len(rec)), Items: e.Items, CRC32C: crcOf(rec)}
		out = append(out, rec...)
	}
	man.Version, man.Columnar, man.PagesBytes = FormatVersionColumnar, true, int64(len(out))
	body, err := EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), body, 0o666); err != nil {
		t.Fatal(err)
	}
}

// encodeRecord is EncodePage, spliced to version 2 with columnar.
func encodeRecord(t testing.TB, p *Page, dim int, columnar bool) []byte {
	t.Helper()
	rec, err := EncodePage(p, dim)
	if err != nil {
		t.Fatal(err)
	}
	if columnar {
		rec = spliceV2(rec)
	}
	return rec
}

// fixtureRecord returns page pid's record in the committed dataset
// testdata/<name>, checked against its manifest entry.
func fixtureRecord(t testing.TB, name string, pid int) []byte {
	t.Helper()
	dir := filepath.Join("testdata", name)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, man.PagesFile))
	if err != nil {
		t.Fatal(err)
	}
	e := man.Pages[pid]
	rec := data[e.Offset : e.Offset+e.Length]
	if crcOf(rec) != e.CRC32C {
		t.Fatalf("%s page %d: checksum disagrees with the manifest", name, pid)
	}
	return rec
}
