package store

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricdb/internal/vec"
)

// testItems builds n deterministic dim-dimensional items with labels and
// some awkward float values (negative zero, subnormals, huge magnitudes)
// so round-trips are checked at the bit level, not just approximately.
func testItems(n, dim int) []Item {
	items := make([]Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for d := range v {
			switch (i + d) % 5 {
			case 0:
				v[d] = float64(i*dim+d) / 7
			case 1:
				v[d] = -float64(i+1) * 1e300
			case 2:
				v[d] = math.Copysign(0, -1)
			case 3:
				v[d] = 5e-324 // smallest subnormal
			default:
				v[d] = -float64(d) / float64(i+1)
			}
		}
		items[i] = Item{ID: ItemID(i), Vec: v, Label: i%3 - 1}
	}
	return items
}

func buildDataset(t *testing.T, dir string, n, dim, capacity int) []*Page {
	t.Helper()
	pages, err := Paginate(testItems(n, dim), capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dir, pages, DatasetMeta{Dim: dim, PageCapacity: capacity}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return pages
}

func samePage(a, b *Page) bool {
	if a.ID != b.ID || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.ID != y.ID || x.Label != y.Label || x.Vec.Dim() != y.Vec.Dim() {
			return false
		}
		for d := range x.Vec {
			// Bit equality: distinguishes -0 from 0 and preserves NaN
			// payloads, which float comparison would not.
			if math.Float64bits(x.Vec[d]) != math.Float64bits(y.Vec[d]) {
				return false
			}
		}
	}
	return true
}

func TestPageRoundTrip(t *testing.T) {
	pages, err := Paginate(testItems(37, 5), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		rec, err := EncodePage(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePage(rec)
		if err != nil {
			t.Fatalf("page %d: %v", p.ID, err)
		}
		if !samePage(p, got) {
			t.Fatalf("page %d round-trip mismatch", p.ID)
		}
	}
	// Empty page round-trips too.
	rec, err := EncodePage(&Page{ID: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodePage(rec); err != nil || len(got.Items) != 0 {
		t.Fatalf("empty page: %v, %d items", err, len(got.Items))
	}
}

func TestDecodePageRejectsCorruption(t *testing.T) {
	pages, err := Paginate(testItems(16, 3), 16)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := EncodePage(pages[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip anywhere in the record must be detected.
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x41
		if _, err := DecodePage(mut); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorruptPage", i, err)
		}
	}
	// Truncations and extensions as well.
	for _, n := range []int{0, 1, len(rec) - 1} {
		if _, err := DecodePage(rec[:n]); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("truncation to %d: err = %v", n, err)
		}
	}
	if _, err := DecodePage(append(append([]byte(nil), rec...), 0)); !errors.Is(err, ErrCorruptPage) {
		t.Fatal("extended record accepted")
	}
}

func TestManifestRoundTripAndValidation(t *testing.T) {
	dir := t.TempDir()
	buildDataset(t, dir, 40, 4, 16)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Items != 40 || man.Dim != 4 || man.PageCapacity != 16 || len(man.Pages) != 3 {
		t.Fatalf("manifest shape: %+v", man)
	}
	body, err := EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(body); err != nil {
		t.Fatal(err)
	}

	breakIt := func(mut func(*Manifest)) error {
		m := *man
		m.Pages = append([]PageEntry(nil), man.Pages...)
		mut(&m)
		b, err := EncodeManifest(&m)
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodeManifest(b)
		return err
	}
	cases := map[string]func(*Manifest){
		"magic":        func(m *Manifest) { m.Magic = "nope" },
		"version":      func(m *Manifest) { m.Version = 99 },
		"path escape":  func(m *Manifest) { m.PagesFile = "../evil" },
		"gap":          func(m *Manifest) { m.Pages[1].Offset++ },
		"bad length":   func(m *Manifest) { m.Pages[0].Length-- },
		"item sum":     func(m *Manifest) { m.Items++ },
		"pages bytes":  func(m *Manifest) { m.PagesBytes-- },
		"neg items":    func(m *Manifest) { m.Pages[2].Items = -1; m.PagesBytes = 0; m.Pages = m.Pages[:0]; m.Items = -1 },
		"neg capacity": func(m *Manifest) { m.PageCapacity = -1 },
	}
	for name, mut := range cases {
		if err := breakIt(mut); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: err = %v, want ErrBadManifest", name, err)
		}
	}
}

// openFileDisk opens the dataset in dir on the mapping or, mapped false, on
// the pread fallback: the map made to fail, as on a platform without one.
// A mapped open skips the test where the platform cannot map.
func openFileDisk(t testing.TB, dir string, mapped bool) *FileDisk {
	t.Helper()
	if !mapped {
		defer func(m func(*os.File, int) ([]byte, error)) { mapFile = m }(mapFile)
		mapFile = func(*os.File, int) ([]byte, error) { return nil, errors.New("store: no map in this test") }
	}
	fd, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[bool]string{false: "pread", true: "mmap"}[mapped]; fd.Mode() != want {
		fd.Close() //nolint:errcheck
		if mapped {
			t.Skip("no mmap on this platform")
		}
		t.Fatalf("Mode() = %q, want %q", fd.Mode(), want)
	}
	return fd
}

// TestFileDiskMatchesSimulatedDisk drives the identical read sequence
// through a FileDisk and a simulated Disk and requires identical pages and
// identical I/O accounting (reads and the sequential/random split), on the
// mapping and on the pread fallback.
func TestFileDiskMatchesSimulatedDisk(t *testing.T) {
	dir := t.TempDir()
	pages := buildDataset(t, dir, 61, 6, 8)
	sim, err := NewDisk(pages)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []bool{false, true} {
		fd := openFileDisk(t, dir, mode)
		if fd.NumPages() != sim.NumPages() {
			t.Fatalf("NumPages %d vs %d", fd.NumPages(), sim.NumPages())
		}
		sim.ResetStats()
		seq := []PageID{0, 1, 2, 5, 6, 0, 7, 3, 4, 4, 5}
		for _, pid := range seq {
			fp, err := fd.Read(pid)
			if err != nil {
				t.Fatalf("mmap=%v: file read %d: %v", mode, pid, err)
			}
			sp, err := sim.Read(pid)
			if err != nil {
				t.Fatal(err)
			}
			if !samePage(sp, fp) {
				t.Fatalf("mmap=%v: page %d differs from simulated disk", mode, pid)
			}
		}
		if fd.Stats() != sim.Stats() {
			t.Errorf("mmap=%v: IOStats %+v vs simulated %+v", mode, fd.Stats(), sim.Stats())
		}
		prev := fd.Stats()
		if got := fd.ResetStats(); got != prev {
			t.Errorf("ResetStats returned %+v, want %+v", got, prev)
		}
		if (fd.Stats() != IOStats{}) {
			t.Errorf("stats not zeroed: %+v", fd.Stats())
		}
		// After a reset the next read pays the initial seek again (the
		// simulated disk counts the first read as random too).
		if _, err := fd.Read(0); err != nil {
			t.Fatal(err)
		}
		if s := fd.Stats(); s.Reads != 1 || s.RandReads != 1 {
			t.Errorf("post-reset classification: %+v", s)
		}
		st := fd.Storage()
		if st.BytesRead == 0 || st.ChecksumFailures != 0 {
			t.Errorf("storage stats: %+v", st)
		}
		if _, err := fd.Read(PageID(len(pages))); err == nil {
			t.Error("out-of-range read succeeded")
		}
		if err := fd.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileDiskDetectsOnDiskCorruption flips bytes in the published page
// file and asserts reads of the damaged page fail with ErrCorruptPage
// while other pages stay readable.
func TestFileDiskDetectsOnDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	buildDataset(t, dir, 48, 4, 16)
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.PagesFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage page 1 in the middle of its item data.
	raw[man.Pages[1].Offset+man.Pages[1].Length/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []bool{false, true} {
		fd := openFileDisk(t, dir, mode)
		if _, err := fd.Read(0); err != nil {
			t.Fatalf("mmap=%v: undamaged page unreadable: %v", mode, err)
		}
		if _, err := fd.Read(1); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("mmap=%v: damaged page: err = %v, want ErrCorruptPage", mode, err)
		}
		if _, err := fd.Read(2); err != nil {
			t.Fatalf("mmap=%v: page after damage unreadable: %v", mode, err)
		}
		if st := fd.Storage(); st.ChecksumFailures != 1 {
			t.Errorf("mmap=%v: ChecksumFailures = %d, want 1", mode, st.ChecksumFailures)
		}
		fd.Close() //nolint:errcheck
	}
	// A truncated page file is rejected at open.
	if err := os.Truncate(path, man.PagesBytes-3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(dir, FileDiskOptions{}); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("truncated page file: open err = %v, want ErrCorruptPage", err)
	}
}

// TestRebuildBumpsGenerationAndCollectsOrphans rebuilds a dataset in place
// and checks the generation advances, the new content is served, and the
// previous generation's page file is garbage-collected after publication.
func TestRebuildBumpsGenerationAndCollectsOrphans(t *testing.T) {
	dir := t.TempDir()
	buildDataset(t, dir, 32, 3, 8)
	first, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	pages2, err := Paginate(testItems(24, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDataset(dir, pages2, DatasetMeta{Dim: 3, PageCapacity: 8}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	second, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if second.Generation != first.Generation+1 {
		t.Errorf("generation %d after %d", second.Generation, first.Generation)
	}
	if second.PagesFile == first.PagesFile {
		t.Error("rebuild reused the live page file name")
	}
	if second.Items != 24 {
		t.Errorf("rebuilt manifest has %d items", second.Items)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "pages-g") && e.Name() != second.PagesFile {
			t.Errorf("orphan page file %s not collected", e.Name())
		}
	}
	fd, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close() //nolint:errcheck
	got, err := fd.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !samePage(pages2[0], got) {
		t.Error("rebuilt dataset serves stale pages")
	}
}

func TestOpenFileDiskErrors(t *testing.T) {
	if _, err := OpenFileDisk(t.TempDir(), FileDiskOptions{}); !errors.Is(err, ErrNoDataset) {
		t.Errorf("empty dir: err = %v, want ErrNoDataset", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(dir, FileDiskOptions{}); !errors.Is(err, ErrBadManifest) {
		t.Errorf("corrupt manifest: err = %v, want ErrBadManifest", err)
	}
}

// TestEmptyDataset: zero items is a legal dataset (no page file needed).
func TestEmptyDataset(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, nil, DatasetMeta{}, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	fd, err := OpenFileDisk(dir, FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close() //nolint:errcheck
	if fd.NumPages() != 0 {
		t.Errorf("NumPages = %d", fd.NumPages())
	}
	if _, err := fd.Read(0); err == nil {
		t.Error("read from empty dataset succeeded")
	}
}
