package main

import (
	"fmt"
	"time"

	"metricdb/internal/engine"
	"metricdb/internal/engines"
	"metricdb/internal/msq"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// stackSpec names what to serve and how. The zero knobs are the library
// defaults: 32 KB pages, a buffer of 10 % of the pages, both avoidance
// lemmas, the AoS layout and pipeline width 1.
type stackSpec struct {
	kind  engines.Kind
	items []store.Item
	// dir, when set, serves a dataset written by store.WriteDataset from
	// a FileDisk (pread) instead of paginating items onto the in-memory
	// disk. Only the scan is served this way.
	dir  string
	soa  bool // materialize columnar pages for the blocked kernels
	opts msq.Options
}

// stack is one composed serving stack: page source → buffer → engine →
// multi-query processor.
type stack struct {
	eng    engine.Engine
	proc   *msq.Processor
	disk   *store.FileDisk // nil for the in-memory disk
	buildS float64         // engine build or open time
}

// compose builds a stack. It is the one composition function of the
// benchmark: the traced and the untraced run differ only in tr, whose
// wrappers are not installed when it is nil.
func compose(spec stackSpec, tr *tracer) (*stack, error) {
	dim := spec.items[0].Vec.Dim()
	var wrap func(store.PageSource) (store.PageSource, error)
	if tr != nil {
		wrap = tr.wrapDisk
	}
	st := &stack{}
	begin := time.Now()
	if spec.dir != "" {
		fd, err := store.OpenFileDisk(spec.dir, store.FileDiskOptions{})
		if err != nil {
			return nil, err
		}
		st.disk = fd
		if st.eng, err = storedScan(fd, wrap); err != nil {
			fd.Close() //nolint:errcheck // the open error is reported
			return nil, err
		}
	} else {
		capacity := store.PageCapacityForBlockSize(32768, dim)
		pages := (len(spec.items) + capacity - 1) / capacity
		eng, err := engines.Build(engines.Spec{
			Kind:         spec.kind,
			Items:        spec.items,
			Dim:          dim,
			Metric:       vec.Euclidean{},
			PageCapacity: capacity,
			BufferPages:  store.DefaultBufferPages(pages),
			Columns:      store.ColumnSpec{Columnar: spec.soa},
			WrapDisk:     wrap,
		})
		if err != nil {
			return nil, err
		}
		st.eng = eng
	}
	st.buildS = time.Since(begin).Seconds()
	if tr != nil {
		st.eng = tr.wrapEngine(st.eng)
	}
	proc, err := msq.New(st.eng, vec.Euclidean{}, spec.opts)
	if err != nil {
		st.close() //nolint:errcheck // the construction error is reported
		return nil, err
	}
	st.proc = proc
	return st, nil
}

// storedScan serves a stored dataset's own page layout: the scan over a
// pager over the FileDisk, page sizes taken from the manifest (no reads).
func storedScan(fd *store.FileDisk, wrap func(store.PageSource) (store.PageSource, error)) (engine.Engine, error) {
	man := fd.Manifest()
	var src store.PageSource = fd
	if wrap != nil {
		var err error
		if src, err = wrap(fd); err != nil {
			return nil, err
		}
	}
	buf, err := store.NewBuffer(store.DefaultBufferPages(len(man.Pages)))
	if err != nil {
		return nil, err
	}
	pager, err := store.NewPager(src, buf)
	if err != nil {
		return nil, err
	}
	lens := make([]int, len(man.Pages))
	for i, e := range man.Pages {
		lens[i] = e.Items
	}
	eng, err := scan.NewStored(pager, man.Items, lens)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return eng, nil
}

func (st *stack) close() error {
	if st.disk == nil {
		return nil
	}
	return st.disk.Close()
}
