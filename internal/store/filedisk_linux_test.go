//go:build linux

package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTruncatedMappingIsCorruption: a page file truncated while the disk
// has it mapped costs the reads of what was cut, not the process. The copy
// out of the mapping faults past the file's new end; the fault is recovered
// into an error wrapping ErrCorruptPage and counted in ChecksumFailures. A
// page wholly before the cut still reads and verifies. The records span
// several memory pages, so the cut one faults inside its copy — through
// every crc32cCopy body.
func TestTruncatedMappingIsCorruption(t *testing.T) {
	const capacity, dim = 64, 64
	crcBodies(t, func(body string) {
		pages, err := Paginate(testItems(3*capacity, dim), capacity)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		writeDataset(t, dir, pages, DatasetMeta{Dim: dim, PageCapacity: capacity}, false)
		fd := openFileDisk(t, dir, true)
		defer fd.Close() //nolint:errcheck
		man := fd.Manifest()
		if err := os.Truncate(filepath.Join(dir, man.PagesFile), man.Pages[1].Offset+100); err != nil {
			t.Fatal(err)
		}
		pg, err := fd.Read(0)
		if err != nil {
			t.Fatalf("%s: page 0, before the cut: %v", body, err)
		}
		if !samePage(pg, pages[0]) {
			t.Fatalf("%s: page 0 decoded differently from what was written", body)
		}
		for _, pid := range []PageID{1, 2} {
			_, err := fd.Read(pid)
			if !errors.Is(err, ErrCorruptPage) || !strings.Contains(err.Error(), "faulted") {
				t.Fatalf("%s: page %d, past the cut: err = %v, want a fault wrapping ErrCorruptPage", body, pid, err)
			}
		}
		if st := fd.Storage(); st.ChecksumFailures != 2 {
			t.Errorf("%s: ChecksumFailures = %d, want 2", body, st.ChecksumFailures)
		}
	})
}
