package msq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"metricdb/internal/engine"
	"metricdb/internal/pivot"
	"metricdb/internal/pmtree"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vafile"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// This file extends the differential harness across the storage boundary:
// the file-backed page store (store.FileDisk) must be observationally
// indistinguishable from the simulated disk it replaces. For every
// engine × metric × avoidance mode, a run whose pages
// come from a persistent dataset directory must produce
//
//   - bit-identical answers (exact float equality),
//   - the identical Stats struct — DistCalcs, Avoided, AvoidTries,
//     PagesRead, PageVisits, MatrixDistCalcs, all of it,
//   - identical disk I/O statistics including the sequential/random
//     split, and
//   - identical buffer hit/miss counts
//
// compared to the same run on the simulated disk. Together with the crash
// suite this is the proof obligation of the persistence PR: moving a
// dataset to disk changes where bytes live and nothing else.

// persistToFileDisk returns a WrapDisk hook that dumps the freshly built
// simulated disk into a dataset directory in the on-disk format and hands
// the engine a FileDisk over it, discarding the in-memory disk. The stored
// records are version 1, or with columnar the version-2 records earlier
// builds wrote (spliceV2Dataset).
func persistToFileDisk(t testing.TB, columnar bool) func(store.PageSource) (store.PageSource, error) {
	t.Helper()
	return func(src store.PageSource) (store.PageSource, error) {
		dir := t.TempDir()
		pages := make([]*store.Page, src.NumPages())
		dim, capacity := 0, 0
		for pid := range pages {
			p, err := src.Read(store.PageID(pid))
			if err != nil {
				return nil, err
			}
			pages[pid] = p
			if len(p.Items) > capacity {
				capacity = len(p.Items)
			}
			if dim == 0 && len(p.Items) > 0 {
				dim = p.Items[0].Vec.Dim()
			}
		}
		meta := store.DatasetMeta{Dim: dim, PageCapacity: capacity}
		if err := store.WriteDataset(dir, pages, meta, store.WriteOptions{NoSync: true}); err != nil {
			return nil, err
		}
		if columnar {
			if err := spliceV2Dataset(dir); err != nil {
				return nil, err
			}
		}
		fd, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { fd.Close() }) //nolint:errcheck
		return fd, nil
	}
}

// spliceV2Dataset rewrites the version-1 dataset in dir as the version-2
// dataset an earlier build wrote for the same pages: each record gets the
// "MDP2" magic, eight zero bytes of flags and quantization bits after the
// version-1 header, and a new CRC-32C; the manifest gets version 2, the
// columnar flag, and the records' new offsets, lengths and checksums.
func spliceV2Dataset(dir string) error {
	manPath := filepath.Join(dir, store.ManifestName)
	body, err := os.ReadFile(manPath)
	if err != nil {
		return err
	}
	man, err := store.DecodeManifest(body)
	if err != nil {
		return err
	}
	pagesPath := filepath.Join(dir, man.PagesFile)
	data, err := os.ReadFile(pagesPath)
	if err != nil {
		return err
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var out []byte
	for i, e := range man.Pages {
		rec := data[e.Offset : e.Offset+e.Length]
		v2 := append([]byte("MDP2"), rec[4:16]...)
		v2 = append(v2, make([]byte, 8)...)
		v2 = append(v2, rec[16:len(rec)-4]...)
		sum := crc32.Checksum(v2, castagnoli)
		v2 = binary.LittleEndian.AppendUint32(v2, sum)
		man.Pages[i] = store.PageEntry{Offset: int64(len(out)), Length: int64(len(v2)), Items: e.Items, CRC32C: sum}
		out = append(out, v2...)
	}
	man.Version, man.Columnar, man.PagesBytes = store.FormatVersionColumnar, true, int64(len(out))
	if body, err = store.EncodeManifest(man); err != nil {
		return err
	}
	if err := os.WriteFile(pagesPath, out, 0o666); err != nil {
		return err
	}
	return os.WriteFile(manPath, body, 0o666)
}

// fileDiskMakers mirrors diffMakers but every engine runs on persistent
// storage via its WrapDisk hook.
func fileDiskMakers(columnar bool) []diffMaker {
	return []diffMaker{
		{"scan", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := scan.NewWithConfig(items, scan.Config{
				PageCapacity: 16, BufferPages: 4, WrapDisk: persistToFileDisk(t, columnar),
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"xtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := xtree.Bulk(items, dim, xtree.Config{
				LeafCapacity: 16, DirFanout: 8, BufferPages: 4, Metric: m,
				WrapDisk: persistToFileDisk(t, columnar),
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"vafile", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := vafile.New(items, vafile.Config{
				PageCapacity: 16, BufferPages: 4, Metric: m,
				WrapDisk: persistToFileDisk(t, columnar),
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pivot", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pivot.New(items, pivot.Config{
				PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m,
				WrapDisk: persistToFileDisk(t, columnar),
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"pmtree", func(t *testing.T, items []store.Item, dim int, m vec.Metric) engine.Engine {
			t.Helper()
			e, err := pmtree.New(items, pmtree.Config{
				PageCapacity: 16, BufferPages: 4, Pivots: 8, Metric: m,
				WrapDisk: persistToFileDisk(t, columnar),
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
}

// requireSameRun asserts two differential runs are observationally
// identical in every dimension the harness records: the reference (sim,
// here the run on the simulated disk) and the run under test.
func requireSameRun(t *testing.T, label string, sim, file diffRun) {
	t.Helper()
	if diag, ok := identicalAnswers(sim.answers, file.answers); !ok {
		t.Errorf("%s: answers differ: %s", label, diag)
	}
	if file.stats != sim.stats {
		t.Errorf("%s: stats differ:\n  want: %+v\n  got:  %+v", label, sim.stats, file.stats)
	}
	if file.io != sim.io {
		t.Errorf("%s: disk stats differ: want %+v, got %+v", label, sim.io, file.io)
	}
	if file.hits != sim.hits || file.misses != sim.misses {
		t.Errorf("%s: buffer hits/misses %d/%d, want %d/%d",
			label, file.hits, file.misses, sim.hits, sim.misses)
	}
}

func TestDifferentialFileDisk(t *testing.T) {
	const dim = 4
	items := testDB(41, 300, dim)
	queries := diffBatch(dim, 42)
	metrics := []struct {
		name string
		m    vec.Metric
	}{
		{"euclidean", vec.Euclidean{}},
		{"manhattan", vec.Manhattan{}},
	}
	modes := []AvoidanceMode{AvoidBoth, AvoidOff, AvoidLemma1, AvoidLemma2}
	sims := diffMakers()
	files := fileDiskMakers(false)

	for i := range sims {
		for _, mt := range metrics {
			for _, mode := range modes {
				t.Run(fmt.Sprintf("%s/%s/%s", sims[i].name, mt.name, mode), func(t *testing.T) {
					sim := runDifferential(t, sims[i], mt.m, mode, 1, items, dim, queries)
					file := runDifferential(t, files[i], mt.m, mode, 1, items, dim, queries)
					requireSameRun(t, "file vs memory", sim, file)
				})
			}
		}
	}

	// The cold batch's pages came from the page file; with a buffer that
	// covers every page, a second batch never reaches the backend.
	var fd *store.FileDisk
	persist := persistToFileDisk(t, false)
	eng, err := scan.NewWithConfig(items, scan.Config{
		PageCapacity: 16, BufferPages: (len(items) + 15) / 16,
		WrapDisk: func(src store.PageSource) (store.PageSource, error) {
			disk, err := persist(src)
			fd, _ = disk.(*store.FileDisk)
			return disk, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := New(eng, vec.Euclidean{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := proc.NewSession().MultiQueryAll(queries); err != nil {
		t.Fatal(err)
	}
	if st := fd.Storage(); st.BytesRead == 0 {
		t.Errorf("cold batch: file disk counters %+v, want bytes read", st)
	}
	cold := eng.Pager().Disk().Stats().Reads
	if _, _, err := proc.NewSession().MultiQueryAll(queries); err != nil {
		t.Fatal(err)
	}
	if warm := eng.Pager().Disk().Stats().Reads - cold; warm != 0 {
		t.Errorf("warm batch over a covering buffer read %d pages from the backend", warm)
	}
}

// TestDifferentialFileDiskMmap repeats a narrower sweep over a second
// dataset. The name is from when the mapping was an option with a sweep of
// its own; every FileDisk now reads through it (the store's own tests run
// the pread fallback).
func TestDifferentialFileDiskMmap(t *testing.T) {
	const dim = 4
	items := testDB(51, 300, dim)
	queries := diffBatch(dim, 52)
	m := vec.Euclidean{}
	sims := diffMakers()
	files := fileDiskMakers(false)

	for i := range sims {
		for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
			t.Run(fmt.Sprintf("%s/%s", sims[i].name, mode), func(t *testing.T) {
				sim := runDifferential(t, sims[i], m, mode, 1, items, dim, queries)
				file := runDifferential(t, files[i], m, mode, 1, items, dim, queries)
				requireSameRun(t, "file vs memory", sim, file)
			})
		}
	}
}
