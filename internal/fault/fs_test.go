package fault

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// writeTestDataset builds a small persistent dataset directory and returns
// the pages it was built from.
func writeTestDataset(t *testing.T, dir string, n, dim, capacity int) []*store.Page {
	t.Helper()
	items := make([]store.Item, n)
	for i := range items {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = float64(i)*1.25 - float64(d)*0.5
		}
		items[i] = store.Item{ID: store.ItemID(i), Vec: v, Label: i % 3}
	}
	pages, err := store.Paginate(items, capacity)
	if err != nil {
		t.Fatal(err)
	}
	meta := store.DatasetMeta{Dim: dim, PageCapacity: capacity}
	if err := store.WriteDataset(dir, pages, meta, store.WriteOptions{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	return pages
}

// TestFSDeterministicPlan: the zero-value FS only records; FailAt k fails
// exactly the k-th operation and nothing else; the operation log is
// identical run to run, which is what makes the crash sweep deterministic.
func TestFSDeterministicPlan(t *testing.T) {
	pages := []*store.Page{{ID: 0, Items: []store.Item{{ID: 1, Vec: vec.Vector{1, 2}}}}}
	meta := store.DatasetMeta{Dim: 2, PageCapacity: 4}

	record := &FS{}
	if err := store.WriteDataset(t.TempDir(), pages, meta, store.WriteOptions{Hook: record.Hook}); err != nil {
		t.Fatalf("zero-value FS failed a build: %v", err)
	}
	if record.Tripped() {
		t.Fatal("zero-value FS reports a tripped fault")
	}
	ops := record.Ops()
	if len(ops) == 0 || record.Count() != len(ops) {
		t.Fatalf("operation log inconsistent: %d ops, count %d", len(ops), record.Count())
	}

	for k := 1; k <= len(ops); k++ {
		inj := &FS{FailAt: k}
		err := store.WriteDataset(t.TempDir(), pages, meta, store.WriteOptions{Hook: inj.Hook})
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("FailAt=%d: want injected error, got %v", k, err)
		}
		if !inj.Tripped() || inj.Count() != k {
			t.Fatalf("FailAt=%d: tripped=%v count=%d", k, inj.Tripped(), inj.Count())
		}
		if got := inj.Ops(); len(got) != k || got[k-1] != ops[k-1] {
			t.Fatalf("FailAt=%d: operation log diverged: %v vs %v", k, got, ops[:k])
		}
		if !IsStorageFault(err) || IsCorruption(err) {
			t.Fatalf("FailAt=%d: taxonomy wrong for %v", k, err)
		}
	}
}

// TestFSTornWrite: with TornBytes set, the failing write carries a
// store.TornWrite so the builder leaves exactly that prefix on disk.
func TestFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	pages := []*store.Page{{ID: 0, Items: []store.Item{{ID: 1, Vec: vec.Vector{1, 2}}}}}
	meta := store.DatasetMeta{Dim: 2, PageCapacity: 4}

	// Find the first write op, then fail it torn.
	probe := &FS{}
	if err := store.WriteDataset(dir, pages, meta, store.WriteOptions{Hook: probe.Hook}); err != nil {
		t.Fatal(err)
	}
	writeAt := 0
	for i, op := range probe.Ops() {
		if strings.HasPrefix(op, string(store.OpWrite)+" pages-") {
			writeAt = i + 1
			break
		}
	}
	if writeAt == 0 {
		t.Fatalf("no page write in operation log: %v", probe.Ops())
	}

	inj := &FS{FailAt: writeAt, TornBytes: 7}
	err := store.WriteDataset(dir, pages, meta, store.WriteOptions{Hook: inj.Hook})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	var torn *store.TornWrite
	if !errors.As(err, &torn) || torn.Bytes != 7 {
		t.Fatalf("want TornWrite{7} in chain, got %v", err)
	}
	// The aborted generation's page file holds exactly the torn prefix.
	names, err := filepath.Glob(filepath.Join(dir, "pages-*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range names {
		st, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no 7-byte torn page file among %v", names)
	}
}

// TestWrapFileDiskPassThrough: a zero-config injector in front of a real
// file-backed disk is invisible — identical pages bit for bit, identical
// I/O statistics. This is what lets every existing chaos test run unchanged
// against persistent storage.
func TestWrapFileDiskPassThrough(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir, 37, 3, 5)

	bare, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close() //nolint:errcheck
	inner, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close() //nolint:errcheck
	wrapped, err := Wrap(inner, Config{})
	if err != nil {
		t.Fatal(err)
	}

	if wrapped.NumPages() != bare.NumPages() {
		t.Fatalf("NumPages %d vs %d", wrapped.NumPages(), bare.NumPages())
	}
	seq := []store.PageID{0, 1, 2, 5, 0, 7, 3, 4, 4, 6}
	for _, pid := range seq {
		pb, errB := bare.Read(pid)
		pw, errW := wrapped.Read(pid)
		if errB != nil || errW != nil {
			t.Fatalf("read %d: %v / %v", pid, errB, errW)
		}
		if pb.ID != pw.ID || len(pb.Items) != len(pw.Items) {
			t.Fatalf("page %d shape differs", pid)
		}
		for i := range pb.Items {
			if pb.Items[i].ID != pw.Items[i].ID || pb.Items[i].Label != pw.Items[i].Label {
				t.Fatalf("page %d item %d differs", pid, i)
			}
			for d := range pb.Items[i].Vec {
				if math.Float64bits(pb.Items[i].Vec[d]) != math.Float64bits(pw.Items[i].Vec[d]) {
					t.Fatalf("page %d item %d coord %d differs", pid, i, d)
				}
			}
		}
	}
	if bare.Stats() != wrapped.Stats() {
		t.Fatalf("IOStats diverged: %+v vs %+v", bare.Stats(), wrapped.Stats())
	}
	if bare.ResetStats() != wrapped.ResetStats() {
		t.Fatal("ResetStats diverged")
	}
}

// TestWrapFileDiskSurfacesCorruption: on-disk corruption read through the
// injector surfaces as a corruption fault, distinct from injected errors,
// and both land in the storage-fault taxonomy.
func TestWrapFileDiskSurfacesCorruption(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir, 20, 2, 4)

	fd, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	man := fd.Manifest()
	// Flip one byte in the middle of page 1's record.
	path := filepath.Join(dir, man.PagesFile)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[man.Pages[1].Offset+man.Pages[1].Length/2] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	fd.Close() //nolint:errcheck

	fd, err = store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close() //nolint:errcheck
	wrapped, err := Wrap(fd, Config{FailPages: []store.PageID{2}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := wrapped.Read(0); err != nil {
		t.Fatalf("undamaged page 0: %v", err)
	}
	_, corrErr := wrapped.Read(1)
	if !IsCorruption(corrErr) || !IsStorageFault(corrErr) || errors.Is(corrErr, ErrInjected) {
		t.Fatalf("corrupt page error misclassified: %v", corrErr)
	}
	_, injErr := wrapped.Read(2)
	if !errors.Is(injErr, ErrInjected) || !IsStorageFault(injErr) || IsCorruption(injErr) {
		t.Fatalf("injected error misclassified: %v", injErr)
	}
}
