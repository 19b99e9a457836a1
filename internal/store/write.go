package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"metricdb/internal/vec"
)

// FileOp names one filesystem mutation of the dataset writer. The write
// hook (WriteOptions.Hook) sees every operation in order, which is how the
// crash-safety tests (internal/fault + internal/dataset) interrupt a build
// at each individual fault point.
type FileOp string

// The writer's fault points, in the order a build performs them.
const (
	// OpCreate creates (or truncates) a file.
	OpCreate FileOp = "create"
	// OpWrite appends one blob — one page record, or the manifest body.
	OpWrite FileOp = "write"
	// OpSync fsyncs a file's contents.
	OpSync FileOp = "fsync"
	// OpRename atomically publishes the staged manifest.
	OpRename FileOp = "rename"
	// OpSyncDir fsyncs the dataset directory, making the rename durable.
	OpSyncDir FileOp = "fsync-dir"
	// OpRemove deletes an orphaned page file of a previous generation
	// (after publication; failure here cannot un-publish the dataset).
	OpRemove FileOp = "remove"
)

// TornWrite, returned from a write hook, makes the writer emit only the
// first Bytes bytes of the pending blob before aborting the build — the
// moral equivalent of power loss mid-write. The abort error wraps the
// TornWrite so tests can assert the injection was honored.
type TornWrite struct {
	// Bytes is how much of the blob reaches the file before the "crash".
	Bytes int
}

func (e *TornWrite) Error() string {
	return fmt.Sprintf("store: torn write after %d bytes", e.Bytes)
}

// WriteOptions parameterizes WriteDataset.
type WriteOptions struct {
	// Hook, when non-nil, is consulted before every filesystem mutation
	// with the operation kind and the target's base name. A non-nil
	// return aborts the build at exactly that point with no cleanup —
	// simulating a crash — except that a *TornWrite error on an OpWrite
	// first writes the requested prefix of the blob.
	Hook func(op FileOp, name string) error
	// NoSync skips the fsync calls (and their fault points). Only for
	// tests and benchmarks that build many throwaway datasets; a real
	// build must sync, or the atomic-rename protocol guarantees nothing
	// across power loss.
	NoSync bool
}

// DatasetMeta carries the dataset-wide manifest fields of a build.
type DatasetMeta struct {
	// Dim is the vector dimensionality; 0 derives it from the first
	// non-empty page.
	Dim int
	// PageCapacity records the pagination capacity (informational; 0
	// derives the largest page's item count).
	PageCapacity int
	// Attrs is copied into the manifest verbatim.
	Attrs map[string]string
	// Columnar requests version-2 columnar page records (a dataset that
	// opens straight into SoA pages). Pages that already carry a columnar
	// block force this on.
	Columnar bool
}

// WriteDataset builds (or atomically replaces) the persistent dataset in
// dir from pages, which must have consecutive IDs starting at 0 (the
// NewDisk contract). The protocol makes the build crash-safe:
//
//  1. the new page file is written under a generation-tagged name no
//     previous manifest references, then fsynced;
//  2. the new manifest is written to a staging name and fsynced;
//  3. the staged manifest is renamed over ManifestName — the atomic
//     publication point — and the directory is fsynced;
//  4. page files of previous generations are removed (best effort).
//
// A crash (or injected fault) before step 3 leaves the old manifest and
// its page file untouched; after step 3 the new dataset is live. There is
// no intermediate state: a reopened directory always yields the old or the
// new dataset in full, which the crash-safety suite in internal/dataset
// asserts for every fault point.
func WriteDataset(dir string, pages []*Page, meta DatasetMeta, opts WriteOptions) error {
	for i, p := range pages {
		if p == nil || p.ID != PageID(i) {
			return fmt.Errorf("store: page at slot %d is missing or misnumbered", i)
		}
	}
	dim := meta.Dim
	capacity := meta.PageCapacity
	items := 0
	for _, p := range pages {
		items += len(p.Items)
		if len(p.Items) > capacity {
			capacity = len(p.Items)
		}
		if dim == 0 && len(p.Items) > 0 {
			dim = p.Items[0].Vec.Dim()
		}
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	// Resolve the columnar shape of the build: what the meta requests,
	// widened by whatever the pages already carry (a page that arrives
	// with a block is encoded as a version-2 record, so the manifest must
	// say so). Missing blocks are materialized here, before any byte is
	// written.
	spec := ColumnSpec{Columnar: meta.Columnar}
	for _, p := range pages {
		if p.Cols != nil {
			spec.Columnar = true
		}
	}
	if spec.Columnar {
		for _, p := range pages {
			if err := ColumnizePage(p, spec); err != nil {
				return err
			}
			if len(p.Items) == 0 && p.Cols == nil {
				p.Cols = vec.NewBlock(dim, 0) // itemless pages still need v2 records
			}
		}
	}

	// The new generation is one past the published one, so the new page
	// file's name cannot collide with the file the live manifest needs.
	gen := int64(1)
	if old, err := readManifest(dir); err == nil {
		gen = old.Generation + 1
	} else if !errors.Is(err, ErrNoDataset) && !errors.Is(err, ErrBadManifest) {
		return err
	}

	w := &buildWriter{dir: dir, opts: opts}
	pagesName := fmt.Sprintf("pages-g%08d.dat", gen)
	version := FormatVersion
	if spec.Columnar {
		version = FormatVersionColumnar
	}
	man := &Manifest{
		Magic:        ManifestMagic,
		Version:      version,
		Generation:   gen,
		Items:        items,
		Dim:          dim,
		PageCapacity: capacity,
		PagesFile:    pagesName,
		Attrs:        meta.Attrs,
		Columnar:     spec.Columnar,
		Pages:        make([]PageEntry, 0, len(pages)),
	}

	// Step 1: page file.
	pf, err := w.create(pagesName)
	if err != nil {
		return err
	}
	defer pf.Close() //nolint:errcheck // double close of *os.File is harmless
	var off int64
	for _, p := range pages {
		rec, err := EncodePage(p, dim)
		if err != nil {
			return err
		}
		if err := w.write(pf, pagesName, rec); err != nil {
			return err
		}
		man.Pages = append(man.Pages, PageEntry{
			Offset: off,
			Length: int64(len(rec)),
			Items:  len(p.Items),
			CRC32C: crcOf(rec),
		})
		off += int64(len(rec))
	}
	man.PagesBytes = off
	if err := w.sync(pf, pagesName); err != nil {
		return err
	}
	if err := pf.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", pagesName, err)
	}

	// Step 2: staged manifest.
	body, err := EncodeManifest(man)
	if err != nil {
		return err
	}
	mf, err := w.create(manifestTmpName)
	if err != nil {
		return err
	}
	defer mf.Close() //nolint:errcheck
	if err := w.write(mf, manifestTmpName, body); err != nil {
		return err
	}
	if err := w.sync(mf, manifestTmpName); err != nil {
		return err
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", manifestTmpName, err)
	}

	// Step 3: atomic publication.
	if err := w.hook(OpRename, ManifestName); err != nil {
		return err
	}
	if err := os.Rename(filepath.Join(dir, manifestTmpName), filepath.Join(dir, ManifestName)); err != nil {
		return fmt.Errorf("store: publish manifest: %w", err)
	}
	if err := w.syncDir(); err != nil {
		return err
	}

	// Step 4: garbage-collect page files the live manifest no longer
	// references. The dataset is already published; a failure here is
	// reported but cannot produce a torn dataset.
	return removeOrphanPageFiles(dir, pagesName, w)
}

// crcOf extracts the record's trailing checksum (EncodePage wrote it last).
func crcOf(rec []byte) uint32 {
	return uint32(rec[len(rec)-4]) | uint32(rec[len(rec)-3])<<8 |
		uint32(rec[len(rec)-2])<<16 | uint32(rec[len(rec)-1])<<24
}

// removeOrphanPageFiles deletes generation-tagged page files other than
// keep. Remove errors on individual files are ignored (the next build will
// retry); only an injected fault aborts, so the crash suite can cover the
// post-publication window too.
func removeOrphanPageFiles(dir, keep string, w *buildWriter) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == keep || !strings.HasPrefix(name, "pages-g") || !strings.HasSuffix(name, ".dat") {
			continue
		}
		if err := w.hook(OpRemove, name); err != nil {
			return err
		}
		os.Remove(filepath.Join(dir, name)) //nolint:errcheck // best effort
	}
	return nil
}

// buildWriter funnels every filesystem mutation of a build through the
// fault hook.
type buildWriter struct {
	dir  string
	opts WriteOptions
}

func (w *buildWriter) hook(op FileOp, name string) error {
	if w.opts.Hook == nil {
		return nil
	}
	return w.opts.Hook(op, name)
}

func (w *buildWriter) create(name string) (*os.File, error) {
	if err := w.hook(OpCreate, name); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", name, err)
	}
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return f, nil
}

func (w *buildWriter) write(f *os.File, name string, blob []byte) error {
	if err := w.hook(OpWrite, name); err != nil {
		var torn *TornWrite
		if errors.As(err, &torn) {
			n := torn.Bytes
			if n > len(blob) {
				n = len(blob)
			}
			if n > 0 {
				f.Write(blob[:n]) //nolint:errcheck // we are simulating a crash
			}
		}
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if _, err := f.Write(blob); err != nil {
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	return nil
}

func (w *buildWriter) sync(f *os.File, name string) error {
	if w.opts.NoSync {
		return nil
	}
	if err := w.hook(OpSync, name); err != nil {
		return fmt.Errorf("store: fsync %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", name, err)
	}
	return nil
}

func (w *buildWriter) syncDir() error {
	if w.opts.NoSync {
		return nil
	}
	if err := w.hook(OpSyncDir, "."); err != nil {
		return fmt.Errorf("store: fsync %s: %w", w.dir, err)
	}
	d, err := os.Open(w.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close() //nolint:errcheck
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", w.dir, err)
	}
	return nil
}

// readManifest loads and validates the published manifest of dir.
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if st, serr := os.Stat(dir); serr == nil && !st.IsDir() {
			return nil, fmt.Errorf("%w: %s is a file, not a dataset directory (single-file datasets are no longer read: regenerate it with msqgen)", ErrNoDataset, dir)
		}
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w in %s", ErrNoDataset, dir)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return m, nil
}
