package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The storage experiment measures the file-backed page store against the
// simulated disk it replaced, on the scan engine (whose I/O pattern —
// every page, in physical order — makes backends directly comparable).
// Each backend runs the same m-query batch twice over one page layout:
// cold (fresh engine, empty buffer, every page fetched from the backend)
// and warm (same engine again, with a buffer sized to hold the entire
// dataset, so the second batch is memory-resident). The cold/warm gap is
// the real price of persistence; the equivalence verdicts are what the
// benchcompare gate judges, because wall clocks are machine-dependent.

// StorageRun is one backend's measurement.
type StorageRun struct {
	Workload string `json:"workload"`
	// Backend is "sim" (the in-memory simulated disk), "pread"
	// (store.FileDisk issuing positional reads) or "mmap" (store.FileDisk
	// over a memory-mapped page file).
	Backend string `json:"backend"`
	// ColdSeconds and WarmSeconds are wall clocks of the two batch runs;
	// machine-dependent, not judged by benchcompare.
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	// PagesRead and DistCalcs are the cold batch's deterministic work
	// counters, identical across backends when the store is equivalent.
	PagesRead int64 `json:"pages_read"`
	DistCalcs int64 `json:"dist_calcs"`
	// WarmDiskReads counts reads that reached the backend during the warm
	// batch; 0 proves the buffer made the run memory-resident.
	WarmDiskReads int64 `json:"warm_disk_reads"`
	// Preads and BytesRead are the file backends' real-I/O counters over
	// both runs (0 for sim; near 0 for warm-covered mmap fetches).
	Preads    int64 `json:"preads"`
	BytesRead int64 `json:"bytes_read"`
	// Identical reports whether answers, query statistics and disk I/O
	// statistics matched the sim reference bit for bit, cold and warm.
	Identical bool `json:"identical"`
}

// StorageResult is the whole experiment for one workload.
type StorageResult struct {
	Workload     string       `json:"workload"`
	M            int          `json:"m"`
	Pages        int          `json:"pages"`
	PageCapacity int          `json:"page_capacity"`
	Runs         []StorageRun `json:"runs"`
}

// storageObservation captures everything one batch run must agree on.
type storageObservation struct {
	answers []query.Answer
	stats   msq.Stats
	io      store.IOStats
}

// RunStorage builds one persistent dataset directory for w and measures
// the m-query batch on every backend. The sim backend runs first and is
// the reference for the equivalence verdicts.
func RunStorage(w Workload, m int) (*StorageResult, error) {
	queries, err := w.Queries(w.querySeed()+41, m)
	if err != nil {
		return nil, err
	}
	capacity := store.PageCapacityForBlockSize(32768, w.Dim)
	pages, err := store.Paginate(w.Items, capacity)
	if err != nil {
		return nil, err
	}
	lens := make([]int, len(pages))
	for i, p := range pages {
		lens[i] = len(p.Items)
	}

	dir, err := os.MkdirTemp("", "msq-storage-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	meta := store.DatasetMeta{Dim: w.Dim, PageCapacity: capacity,
		Attrs: map[string]string{"workload": w.Name}}
	if err := store.WriteDataset(dir, pages, meta, store.WriteOptions{NoSync: true}); err != nil {
		return nil, err
	}

	result := &StorageResult{Workload: w.Name, M: m, Pages: len(pages), PageCapacity: capacity}
	haveRef := false
	var refCold, refWarm storageObservation
	for _, backend := range []string{"sim", "pread", "mmap"} {
		var (
			src store.PageSource
			fd  *store.FileDisk
		)
		switch backend {
		case "sim":
			if src, err = store.NewDisk(pages); err != nil {
				return nil, err
			}
		default:
			if fd, err = store.OpenFileDisk(dir, store.FileDiskOptions{Mmap: backend == "mmap"}); err != nil {
				return nil, err
			}
			src = fd
		}
		// The buffer covers the whole dataset so the warm batch runs
		// memory-resident regardless of backend.
		buf, err := store.NewBuffer(len(pages))
		if err != nil {
			return nil, err
		}
		pager, err := store.NewPager(src, buf)
		if err != nil {
			return nil, err
		}
		eng, err := scan.NewStored(pager, len(w.Items), lens)
		if err != nil {
			return nil, err
		}
		proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidBoth})
		if err != nil {
			return nil, err
		}

		run := StorageRun{Workload: w.Name, Backend: backend, Identical: true}
		measure := func() (storageObservation, float64, error) {
			before := src.Stats()
			start := time.Now()
			lists, stats, err := proc.NewSession().MultiQueryAll(queries)
			if err != nil {
				return storageObservation{}, 0, err
			}
			elapsed := time.Since(start).Seconds()
			obs := storageObservation{stats: stats, io: diffIO(src.Stats(), before)}
			for _, l := range lists {
				obs.answers = append(obs.answers, l.Answers()...)
			}
			return obs, elapsed, nil
		}
		cold, coldSec, err := measure()
		if err != nil {
			return nil, fmt.Errorf("storage: %s cold: %w", backend, err)
		}
		warm, warmSec, err := measure()
		if err != nil {
			return nil, fmt.Errorf("storage: %s warm: %w", backend, err)
		}
		run.ColdSeconds, run.WarmSeconds = coldSec, warmSec
		run.PagesRead = cold.stats.PagesRead
		run.DistCalcs = cold.stats.DistCalcs
		run.WarmDiskReads = warm.io.Reads
		if fd != nil {
			st := fd.Storage()
			run.Preads, run.BytesRead = st.Preads, st.BytesRead
			if err := fd.Close(); err != nil {
				return nil, err
			}
		}
		if !haveRef {
			haveRef, refCold, refWarm = true, cold, warm
		} else {
			run.Identical = sameObservation(cold, refCold) && sameObservation(warm, refWarm)
		}
		result.Runs = append(result.Runs, run)
	}
	return result, nil
}

func sameObservation(a, b storageObservation) bool {
	return a.stats == b.stats && a.io == b.io && slices.Equal(a.answers, b.answers)
}

// Figure renders cold and warm wall clocks per backend.
func (r *StorageResult) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Persistent page store: cold vs warm batch (%s database, m=%d, %d pages)", r.Workload, r.M, r.Pages),
		XLabel: "backend (0=sim, 1=pread, 2=mmap)",
		YLabel: "batch wall clock (ms)",
	}
	var cold, warm []float64
	for i, run := range r.Runs {
		fig.XVals = append(fig.XVals, float64(i))
		cold = append(cold, run.ColdSeconds*1000)
		warm = append(warm, run.WarmSeconds*1000)
	}
	fig.AddSeries("cold", cold) //nolint:errcheck // lengths match by construction
	fig.AddSeries("warm", warm) //nolint:errcheck // lengths match by construction
	return fig
}

// WriteStorageJSON writes the results as an indented JSON document (the
// BENCH_storage.json artifact).
func WriteStorageJSON(w io.Writer, results []*StorageResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// WriteStorageJSONFile writes the artifact to path.
func WriteStorageJSONFile(path string, results []*StorageResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteStorageJSON(f, results); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
