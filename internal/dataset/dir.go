package dataset

import (
	"fmt"

	"metricdb/internal/store"
)

// SaveOptions parameterizes SaveDir.
type SaveOptions struct {
	// PageCapacity is the pagination capacity; 0 derives it from 32 KB
	// blocks at the data's dimensionality (the paper's block size).
	PageCapacity int
	// Attrs is recorded in the manifest for provenance (generator kind,
	// seed, …).
	Attrs map[string]string
	// Hook is the crash-fault seam forwarded to store.WriteDataset
	// (tests interrupt a build at individual filesystem operations
	// through it).
	Hook func(op store.FileOp, name string) error
	// NoSync skips fsyncs; only for tests that build many throwaway
	// datasets.
	NoSync bool
}

// SaveDir persists items as a dataset directory in the on-disk format
// (superblock manifest + checksummed page file), paginating them in order
// with consecutive page IDs. The build is crash-safe: it becomes visible
// only through the atomic manifest rename, and an interrupted build leaves
// any previously published dataset intact (see store.WriteDataset).
func SaveDir(dir string, items []store.Item, opts SaveOptions) error {
	dim := 0
	if len(items) > 0 {
		dim = items[0].Vec.Dim()
	}
	for i := range items {
		if items[i].Vec.Dim() != dim {
			return fmt.Errorf("dataset: item %d has dimension %d, item 0 has %d", i, items[i].Vec.Dim(), dim)
		}
	}
	capacity := opts.PageCapacity
	if capacity == 0 {
		capacity = store.PageCapacityForBlockSize(32768, dim)
	}
	pages, err := store.Paginate(items, capacity)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	meta := store.DatasetMeta{Dim: dim, PageCapacity: capacity, Attrs: opts.Attrs}
	if err := store.WriteDataset(dir, pages, meta, store.WriteOptions{Hook: opts.Hook, NoSync: opts.NoSync}); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// LoadDir loads every item of a dataset directory, verifying each page's
// checksum on the way. Items come back in storage order (the order SaveDir
// received them), their vectors rows of one coordinate slab: a read page's
// vectors point into its record, identifiers and labels included, which
// the loaded items would otherwise keep alive.
func LoadDir(dir string) ([]store.Item, error) {
	fd, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer fd.Close() //nolint:errcheck
	man := fd.Manifest()
	items := make([]store.Item, 0, man.Items)
	coords := make([]float64, 0, man.Items*man.Dim)
	for pid := 0; pid < fd.NumPages(); pid++ {
		p, err := fd.Read(store.PageID(pid))
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		for _, it := range p.Items {
			start := len(coords)
			coords = append(coords, it.Vec...)
			it.Vec = coords[start:len(coords):len(coords)]
			items = append(items, it)
		}
	}
	if len(items) != man.Items {
		return nil, fmt.Errorf("dataset: manifest promises %d items, pages hold %d", man.Items, len(items))
	}
	return items, nil
}
