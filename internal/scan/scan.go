// Package scan implements the sequential-scan engine: every data page is
// relevant for every query and pages are processed in physical order, so
// all disk I/O is sequential. In high-dimensional spaces this is often the
// most efficient single-query strategy, and it profits maximally from
// multiple similarity queries because relevant_pages(Q1) = ... =
// relevant_pages(Qm) = all pages (§5.1 of the paper: the I/O speed-up
// factor is exactly m).
//
// A scan is immutable after construction, so all query-path methods are
// safe for concurrent readers.
package scan

import (
	"fmt"

	"metricdb/internal/engine"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Engine is a sequential-scan engine over a paged database.
type Engine struct {
	pager    *store.Pager
	numItems int
	// plan is every page in physical order at lower bound 0: the plan of
	// every query, built once and shared (callers only read a plan).
	plan []engine.PageRef
}

var _ engine.Engine = (*Engine)(nil)

// Config parameterizes a scan engine.
type Config struct {
	// PageCapacity is the number of items per data page. Required.
	PageCapacity int
	// BufferPages sizes the LRU buffer; 0 disables buffering.
	BufferPages int
	// WrapDisk, when non-nil, interposes on the freshly built disk before
	// the pager is attached — the hook used to run the engine on
	// fault-injected storage.
	WrapDisk func(store.PageSource) (store.PageSource, error)
}

// New builds a scan engine over items, paginating them into pages of
// pageCapacity items on a fresh simulated disk with an LRU buffer of
// bufferPages pages (0 disables buffering).
func New(items []store.Item, pageCapacity, bufferPages int) (*Engine, error) {
	return NewWithConfig(items, Config{PageCapacity: pageCapacity, BufferPages: bufferPages})
}

// NewWithConfig builds a scan engine over items according to cfg.
func NewWithConfig(items []store.Item, cfg Config) (*Engine, error) {
	if cfg.BufferPages < 0 {
		return nil, fmt.Errorf("scan: bufferPages must be >= 0, got %d", cfg.BufferPages)
	}
	pages, err := store.Paginate(items, cfg.PageCapacity)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	disk, err := store.NewDisk(pages)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	var src store.PageSource = disk
	if cfg.WrapDisk != nil {
		if src, err = cfg.WrapDisk(disk); err != nil {
			return nil, fmt.Errorf("scan: %w", err)
		}
	}
	var buf *store.Buffer
	if cfg.BufferPages > 0 {
		if buf, err = store.NewBuffer(cfg.BufferPages); err != nil {
			return nil, fmt.Errorf("scan: %w", err)
		}
	}
	pager, err := store.NewPager(src, buf)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	return newEngine(pager, len(items)), nil
}

// NewStored builds a scan engine over an existing pager whose page sizes
// are already known — typically from the manifest of a persistent dataset
// directory (store.FileDisk). It performs no warm-up reads, so opening a
// stored database touches the disk only when the first query runs.
func NewStored(pager *store.Pager, numItems int, pageLens []int) (*Engine, error) {
	if pager == nil {
		return nil, fmt.Errorf("scan: nil pager")
	}
	if len(pageLens) != pager.NumPages() {
		return nil, fmt.Errorf("scan: %d page lengths for %d pages", len(pageLens), pager.NumPages())
	}
	total := 0
	for i, n := range pageLens {
		if n < 0 {
			return nil, fmt.Errorf("scan: page %d has negative length %d", i, n)
		}
		total += n
	}
	if total != numItems {
		return nil, fmt.Errorf("scan: page lengths sum to %d items, expected %d", total, numItems)
	}
	return newEngine(pager, numItems), nil
}

func newEngine(pager *store.Pager, numItems int) *Engine {
	plan := make([]engine.PageRef, pager.NumPages())
	for i := range plan {
		plan[i] = engine.PageRef{ID: store.PageID(i)}
	}
	return &Engine{pager: pager, numItems: numItems, plan: plan}
}

// Name returns "scan".
func (e *Engine) Name() string { return "scan" }

// Prepare returns the per-query handle. A scan has no per-query state, so
// the handle is a stateless view of the engine.
func (e *Engine) Prepare(vec.Vector) engine.PreparedQuery { return prepared{e} }

// prepared is the scan's PreparedQuery: geometry-free, so every probe is
// answered from the engine alone.
type prepared struct{ e *Engine }

// Plan returns every data page in physical order with lower bound 0: a scan
// can exclude nothing, so all pages are relevant regardless of queryDist —
// one plan for every query, the engine's own.
func (p prepared) Plan(_ float64) []engine.PageRef { return p.e.plan }

// MinDist returns 0: the scan has no geometric knowledge of page contents.
func (prepared) MinDist(store.PageID) float64 { return 0 }

// ReadPage reads a data page through the pager.
func (e *Engine) ReadPage(pid store.PageID) (*store.Page, error) {
	return e.pager.ReadPage(pid)
}

// NumPages returns the number of data pages.
func (e *Engine) NumPages() int { return e.pager.NumPages() }

// NumItems returns the number of stored items.
func (e *Engine) NumItems() int { return e.numItems }

// Pager returns the underlying pager.
func (e *Engine) Pager() *store.Pager { return e.pager }
