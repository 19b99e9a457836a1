package metricdb

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"metricdb/internal/dataset"
	"metricdb/internal/engine"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/pivot"
	"metricdb/internal/scan"
	"metricdb/internal/store"
)

// OpenStored opens a database over a persistent dataset directory — the
// on-disk format written by dataset.SaveDir and cmd/msqgen. Unlike Open,
// which paginates in-memory items onto a simulated disk, the returned DB
// reads its data pages from the file system (pread, or mmap when
// Options.Mmap is set), verifying each page's checksum on the way; I/O
// statistics count real reads.
//
// Engine mapping:
//
//   - EngineScan serves the dataset's own page layout directly, so opening
//     is free of page reads (sizes come from the manifest) and the scan's
//     sequential-I/O property holds on the physical file.
//   - EnginePivot also serves the dataset's own pages; its pivot table is
//     loaded from the dataset directory (pivots.dat) when one matching the
//     manifest's generation, metric, and shape is present, and otherwise
//     rebuilt from the items and persisted crash-safely for the next open.
//   - EngineXTree, EngineVAFile and EnginePMTree build their structure
//     from the loaded items, then persist their private page layout into a
//     "layout-<engine>" subdirectory (rebuilt, crash-safely, on every
//     open) and read data pages from it.
//
// The caller owns the returned DB and must Close it to release the
// underlying file handles and mappings.
func OpenStored(dir string, opts Options) (*DB, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	items, err := dataset.LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("metricdb: opening stored database: %w", err)
	}
	dim, err := validateItems(items)
	if err != nil {
		return nil, fmt.Errorf("metricdb: stored dataset %s: %w", dir, err)
	}
	opts, bufferPages := opts.withDefaults(dim, len(items))

	var db *DB
	switch opts.Engine {
	case EngineScan, EnginePivot:
		db, err = openStoredDirect(dir, items, dim, opts, bufferPages)
	default:
		db, err = openStoredDerived(dir, items, dim, opts, bufferPages)
	}
	if err != nil {
		return nil, err
	}
	return db, nil
}

// openStoredDirect serves the dataset's own pages through a FileDisk — the
// stored layout is the engine's layout. The scan uses it as-is; the pivot
// engine additionally loads (or rebuilds and persists) its pivot table.
func openStoredDirect(dir string, items []Item, dim int, opts Options, bufferPages int) (*DB, error) {
	fd, err := store.OpenFileDisk(dir, store.FileDiskOptions{Mmap: opts.Mmap})
	if err != nil {
		return nil, fmt.Errorf("metricdb: %w", err)
	}
	man := fd.Manifest()
	var buf *store.Buffer
	if bufferPages > 0 {
		if buf, err = store.NewBuffer(bufferPages); err != nil {
			fd.Close() //nolint:errcheck
			return nil, fmt.Errorf("metricdb: %w", err)
		}
	}
	pager, err := store.NewPager(fd, buf)
	if err != nil {
		fd.Close() //nolint:errcheck
		return nil, fmt.Errorf("metricdb: %w", err)
	}
	lens := make([]int, len(man.Pages))
	for i, e := range man.Pages {
		lens[i] = e.Items
	}

	var eng engine.Engine
	switch opts.Engine {
	case EnginePivot:
		table, err := storedPivotTable(dir, items, man, lens, opts)
		if err != nil {
			fd.Close() //nolint:errcheck
			return nil, err
		}
		eng, err = pivot.NewStored(pager, table, opts.Metric, man.Items, lens, man.PageCapacity)
		if err != nil {
			fd.Close() //nolint:errcheck
			return nil, fmt.Errorf("metricdb: %w", err)
		}
	default:
		eng, err = scan.NewStored(pager, man.Items, lens)
		if err != nil {
			fd.Close() //nolint:errcheck
			return nil, fmt.Errorf("metricdb: %w", err)
		}
	}
	// The stored layout dictates the page capacity; reflect it in the
	// options so DB introspection reports the truth.
	opts.PageCapacity = man.PageCapacity
	proc, err := msq.New(eng, opts.Metric, msq.Options{Avoidance: opts.Avoidance})
	if err != nil {
		fd.Close() //nolint:errcheck
		return nil, err
	}
	return &DB{items: items, dim: dim, eng: eng, proc: proc, opts: opts, closers: []io.Closer{fd}}, nil
}

// storedPivotTable returns the dataset's pivot table: the persisted one
// when its provenance (generation, metric, shape, pivot count) matches the
// live manifest, and otherwise a fresh deterministic rebuild, persisted
// crash-safely so the next open skips the distance matrix. A missing or
// corrupt table file is not an error — the table is a pure cache. The
// pivot count is pivot.DefaultPivots, capped at the item count; a persisted
// table with another count is rebuilt.
func storedPivotTable(dir string, items []Item, man *store.Manifest, lens []int, opts Options) (*pivot.Table, error) {
	want := min(pivot.DefaultPivots, len(items))
	if t, err := pivot.LoadTableFile(dir); err == nil {
		if t.Generation == man.Generation && t.NumPivots() == want &&
			t.CheckShape(opts.Metric.Name(), man.Items, len(man.Pages)) == nil {
			return t, nil
		}
	}
	t, err := pivot.BuildTable(items, lens, want, opts.Metric)
	if err != nil {
		return nil, fmt.Errorf("metricdb: %w", err)
	}
	t.Generation = man.Generation
	if err := pivot.WriteTableFile(dir, t); err != nil {
		return nil, fmt.Errorf("metricdb: persisting pivot table: %w", err)
	}
	return t, nil
}

// openStoredDerived builds an index engine from the loaded items and
// persists the engine's page layout next to the dataset, serving data
// pages from the file system through the engine's WrapDisk hook.
func openStoredDerived(dir string, items []Item, dim int, opts Options, bufferPages int) (*DB, error) {
	layoutDir := filepath.Join(dir, "layout-"+string(opts.Engine))
	var fd *store.FileDisk
	wrap := func(src store.PageSource) (store.PageSource, error) {
		pages := make([]*store.Page, src.NumPages())
		capacity := 0
		for pid := range pages {
			p, err := src.Read(store.PageID(pid))
			if err != nil {
				return nil, err
			}
			pages[pid] = p
			if len(p.Items) > capacity {
				capacity = len(p.Items)
			}
		}
		meta := store.DatasetMeta{Dim: dim, PageCapacity: capacity,
			Attrs: map[string]string{"layout": string(opts.Engine)}}
		if err := store.WriteDataset(layoutDir, pages, meta, store.WriteOptions{}); err != nil {
			return nil, err
		}
		var err error
		if fd, err = store.OpenFileDisk(layoutDir, store.FileDiskOptions{Mmap: opts.Mmap}); err != nil {
			return nil, err
		}
		return fd, nil
	}

	eng, err := engines.Build(opts.engineSpec(items, dim, bufferPages, wrap))
	if err != nil {
		if fd != nil {
			fd.Close() //nolint:errcheck
		}
		return nil, err
	}
	proc, err := msq.New(eng, opts.Metric, msq.Options{Avoidance: opts.Avoidance})
	if err != nil {
		if fd != nil {
			fd.Close() //nolint:errcheck
		}
		return nil, err
	}
	return &DB{items: items, dim: dim, eng: eng, proc: proc, opts: opts, closers: []io.Closer{fd}}, nil
}

// Close releases the file handles and memory mappings of a stored database.
// On a DB built by Open it is a no-op. Queries must not be in flight or
// issued after Close.
func (db *DB) Close() error {
	var errs []error
	for _, c := range db.closers {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	db.closers = nil
	return errors.Join(errs...)
}

// Stored reports whether the database serves its data pages from
// persistent storage, and if so in which mode ("pread" or "mmap").
func (db *DB) Stored() (mode string, ok bool) {
	if fd, isFile := store.UnwrapSource(db.eng.Pager().Disk()).(*store.FileDisk); isFile {
		return fd.Mode(), true
	}
	return "", false
}

// StorageStats returns the real-I/O counters of a stored database's
// file-backed disk (preads issued, bytes read, checksum failures). ok is
// false for in-memory databases.
func (db *DB) StorageStats() (stats store.StorageStats, ok bool) {
	if fd, isFile := store.UnwrapSource(db.eng.Pager().Disk()).(*store.FileDisk); isFile {
		return fd.Storage(), true
	}
	return store.StorageStats{}, false
}
