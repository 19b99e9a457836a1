// Package engines is the registry of physical data organizations: the one
// place that knows how to turn items plus tuning into a built
// engine.Engine. The public API (metricdb.Open, OpenStored, OpenCluster)
// and the parallel cluster all construct engines through Build, so adding
// an engine means adding one builder here — not editing construction
// switches scattered over entry points.
package engines

import (
	"fmt"
	"sort"

	"metricdb/internal/engine"
	"metricdb/internal/pivot"
	"metricdb/internal/pmtree"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vafile"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// Kind names a physical organization. The values are the public API's
// engine names and the wire protocol's engine strings.
type Kind string

// Registered kinds.
const (
	// Scan is the sequential scan: always applicable, sequential I/O
	// only, and the maximal beneficiary of multiple similarity queries.
	Scan Kind = "scan"
	// XTree is the X-tree index: selective in low and moderate
	// dimensions, with supernodes avoiding high-overlap directory splits.
	XTree Kind = "xtree"
	// VAFile is the vector-approximation file: a scan over in-memory
	// bit-quantized approximations that reads only the pages its distance
	// bounds cannot exclude.
	VAFile Kind = "vafile"
	// Pivot is the LAESA-style pivot table: precomputed pivot-to-item
	// distances aggregated per page, pruning by the triangle inequality
	// alone — sound in any metric space, where MBR geometry is not.
	Pivot Kind = "pivot"
	// PMTree is the PM-tree: a paged metric tree whose nodes carry both
	// covering balls and pivot hyper-rings.
	PMTree Kind = "pmtree"
)

// XTreeTuning is the X-tree's advanced knobs (zero values select the
// derived defaults).
type XTreeTuning struct {
	DirFanout        int
	MaxOverlap       float64
	MinFillRatio     float64
	STRBulkLoad      bool
	ReinsertFraction float64
}

// Spec is a fully resolved engine request: every field is concrete (the
// callers' sentinel defaulting has already happened) except the per-engine
// tuning values, whose zero values select the engine's own defaults.
type Spec struct {
	Kind  Kind
	Items []store.Item
	// Dim is the vector dimensionality (the X-tree needs it for its
	// geometry; others derive it from the items).
	Dim int
	// Metric is the distance function; nil selects Euclidean.
	Metric vec.Metric
	// PageCapacity is items per data page. Required.
	PageCapacity int
	// BufferPages is the concrete LRU buffer size; 0 disables buffering.
	BufferPages int
	// Columns is ignored.
	//
	// Deprecated: removed by ROADMAP item 1a (item 8); see compat.go.
	Columns columnSpec
	// WrapDisk interposes on the freshly built disk (fault injection,
	// persisted layouts); nil serves the engine's own disk.
	WrapDisk func(store.PageSource) (store.PageSource, error)

	// XTree tuning; nil uses defaults derived from Dim and PageCapacity.
	XTree *XTreeTuning
	// VAFileBits is the VA-file's bits per dimension (0 selects 6).
	VAFileBits int
	// Pivots is the pivot count of the pivot table and the PM-tree's
	// hyper-rings (0 selects each engine's default).
	Pivots int
	// PMTreeFanout is the PM-tree's directory fanout (0 selects its
	// default).
	PMTreeFanout int
}

// builder constructs one engine kind from a resolved spec.
type builder func(Spec) (engine.Engine, error)

// registry maps each kind to its builder. It is populated at init and
// read-only afterwards, so lookups need no locking.
var registry = map[Kind]builder{
	Scan:   buildScan,
	XTree:  buildXTree,
	VAFile: buildVAFile,
	Pivot:  buildPivot,
	PMTree: buildPMTree,
}

// Known reports whether kind names a registered engine.
func Known(kind Kind) bool {
	_, ok := registry[kind]
	return ok
}

// Kinds returns the registered kinds in lexical order.
func Kinds() []Kind {
	ks := make([]Kind, 0, len(registry))
	for k := range registry {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Build constructs the engine the spec asks for. This is the module's
// single engine-construction site, and where every kind refuses an item
// with a NaN or infinite coordinate.
func Build(s Spec) (engine.Engine, error) {
	b, ok := registry[s.Kind]
	if !ok {
		return nil, fmt.Errorf("engines: unknown engine %q (have %v)", s.Kind, Kinds())
	}
	if err := store.CheckFinite(s.Items); err != nil {
		return nil, fmt.Errorf("engines: %w", err)
	}
	return b(s)
}

func buildScan(s Spec) (engine.Engine, error) {
	return scan.NewWithConfig(s.Items, scan.Config{
		PageCapacity: s.PageCapacity,
		BufferPages:  s.BufferPages,
		WrapDisk:     s.WrapDisk,
	})
}

func buildVAFile(s Spec) (engine.Engine, error) {
	return vafile.New(s.Items, vafile.Config{
		Bits:         s.VAFileBits,
		PageCapacity: s.PageCapacity,
		BufferPages:  s.BufferPages,
		Metric:       s.Metric,
		WrapDisk:     s.WrapDisk,
	})
}

func buildXTree(s Spec) (engine.Engine, error) {
	cfg := xtree.DefaultConfig(s.Dim)
	cfg.LeafCapacity = s.PageCapacity
	cfg.BufferPages = s.BufferPages
	cfg.Metric = s.Metric
	cfg.WrapDisk = s.WrapDisk
	str := false
	if x := s.XTree; x != nil {
		if x.DirFanout != 0 {
			cfg.DirFanout = x.DirFanout
		}
		cfg.MaxOverlap = x.MaxOverlap
		cfg.MinFillRatio = x.MinFillRatio
		cfg.ReinsertFraction = x.ReinsertFraction
		str = x.STRBulkLoad
	}
	if str {
		return xtree.BulkSTR(s.Items, s.Dim, cfg)
	}
	return xtree.Bulk(s.Items, s.Dim, cfg)
}

func buildPivot(s Spec) (engine.Engine, error) {
	return pivot.New(s.Items, pivot.Config{
		Pivots:       s.Pivots,
		PageCapacity: s.PageCapacity,
		BufferPages:  s.BufferPages,
		Metric:       s.Metric,
		WrapDisk:     s.WrapDisk,
	})
}

func buildPMTree(s Spec) (engine.Engine, error) {
	return pmtree.New(s.Items, pmtree.Config{
		PageCapacity: s.PageCapacity,
		Fanout:       s.PMTreeFanout,
		Pivots:       s.Pivots,
		BufferPages:  s.BufferPages,
		Metric:       s.Metric,
		WrapDisk:     s.WrapDisk,
	})
}
