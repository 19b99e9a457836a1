package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"metricdb/internal/obs"
)

// FileDiskOptions parameterizes OpenFileDisk. It has nothing left to set.
//
// Deprecated: ROADMAP item 1a drops it with OpenFileDisk's second parameter.
type FileDiskOptions struct{}

// StorageStats is a snapshot of a FileDisk's real-I/O activity — distinct
// from IOStats, which carries the paper's cost-model accounting shared
// with the simulated disk.
type StorageStats struct {
	// BytesRead is the total page-record bytes fetched (on either read
	// path).
	BytesRead int64
	// ChecksumFailures counts reads rejected because the page record
	// failed validation — torn writes, bit rot, misdirected I/O.
	ChecksumFailures int64
	// PagesReused counts reads decoded into a recycled page instead of a
	// fresh allocation. Far below the read count, it says some reader of
	// ReadPage is not calling Release.
	PagesReused int64
}

// FileDisk is a file-backed PageSource: it serves the pages of a persistent
// dataset directory (see WriteDataset) out of a read-only mapping of the
// page file — by positional reads where nothing is mapped — verifying every
// record against the manifest checksum before decoding. It implements
// exactly the simulated Disk's I/O accounting — reads serialize on a mutex
// and are classified sequential/random by physical adjacency — so the two
// backends are interchangeable under the differential harness, the fault
// injector, and the buffer pool.
type FileDisk struct {
	dir  string
	man  *Manifest
	f    *os.File
	data []byte // the mapped page file; nil where nothing is mapped
	mode string // "mmap", or "pread" where nothing is mapped

	mu        sync.Mutex
	lastRead  PageID
	reads     atomic.Int64
	seqReads  atomic.Int64
	randReads atomic.Int64

	bytesRead   atomic.Int64
	checksumErr atomic.Int64
	reused      atomic.Int64

	// free holds the pages whose last holder let go (see Page.unpin), each
	// to be read into again. A fixed small bound: what does not fit is the
	// garbage collector's.
	free chan *Page

	// tracer, when set, times each read (copy + verify + decode) as a
	// storage_read span. Atomic so SetTracer is safe mid-flight.
	tracer atomic.Pointer[obs.Tracer]
}

var _ PageSource = (*FileDisk)(nil)

// freePages bounds a FileDisk's free list.
const freePages = 64

// mapFile is mmapFile; the tests make it fail to run the pread fallback.
var mapFile = mmapFile

// OpenFileDisk opens the persistent dataset in dir: it loads and validates
// the published manifest, opens the page file it references, checks the
// file is at least as long as the manifest requires, and maps it read-only.
// Where the platform cannot map it, or the map fails, reads fall back to
// pread, and Mode says which path is live. Page contents are not read (and
// so not verified) until first access. The options have nothing to set.
func OpenFileDisk(dir string, _ FileDiskOptions) (*FileDisk, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	d := &FileDisk{dir: dir, man: man, mode: "pread", lastRead: InvalidPage - 1, free: make(chan *Page, freePages)}
	if len(man.Pages) > 0 {
		f, err := os.Open(filepath.Join(dir, man.PagesFile))
		if err != nil {
			return nil, fmt.Errorf("store: open page file: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close() //nolint:errcheck
			return nil, fmt.Errorf("store: stat page file: %w", err)
		}
		if st.Size() < man.PagesBytes {
			f.Close() //nolint:errcheck
			return nil, fmt.Errorf("%w: page file %s is %d bytes, manifest requires %d",
				ErrCorruptPage, man.PagesFile, st.Size(), man.PagesBytes)
		}
		d.f = f
		if data, err := mapFile(f, int(man.PagesBytes)); err == nil {
			d.data, d.mode = data, "mmap"
		}
	}
	return d, nil
}

// Close releases the page file (and mapping). The disk must not be used
// afterwards.
func (d *FileDisk) Close() error {
	var err error
	if d.data != nil {
		err = munmapFile(d.data)
		d.data = nil
	}
	if d.f != nil {
		if cerr := d.f.Close(); err == nil {
			err = cerr
		}
		d.f = nil
	}
	return err
}

// Manifest returns the dataset manifest. Callers must treat it as
// read-only.
func (d *FileDisk) Manifest() *Manifest { return d.man }

// Dir returns the dataset directory the disk was opened from.
func (d *FileDisk) Dir() string { return d.dir }

// Mode reports the live read path: "mmap", or "pread" where nothing is
// mapped.
func (d *FileDisk) Mode() string { return d.mode }

// NumPages returns the number of pages in the dataset.
func (d *FileDisk) NumPages() int { return len(d.man.Pages) }

// Dim returns the dimensionality of the stored vectors, from the manifest.
func (d *FileDisk) Dim() int { return d.man.Dim }

// Read fetches and decodes the page at pid, verifying its checksum against
// the manifest. I/O statistics follow the simulated disk's model: the read
// is counted and classified sequential (physically next) or random.
// Corruption — torn record, checksum mismatch, metadata disagreement — is
// returned as an error wrapping ErrCorruptPage and counted in
// StorageStats.ChecksumFailures; it is never silently served.
func (d *FileDisk) Read(pid PageID) (*Page, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pid < 0 || int(pid) >= len(d.man.Pages) {
		return nil, fmt.Errorf("store: read of page %d outside dataset of %d pages", pid, len(d.man.Pages))
	}
	tr := d.tracer.Load()
	traced := tr.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}
	page, err := d.fetch(pid)
	if traced {
		tr.ObserveSince(obs.PhaseStorageRead, start)
	}
	if err != nil {
		return nil, err
	}
	d.reads.Add(1)
	if pid == d.lastRead+1 {
		d.seqReads.Add(1)
	} else {
		d.randReads.Add(1)
	}
	d.lastRead = pid
	return page, nil
}

// fetch reads, verifies and decodes one page record into a page from the
// free list, or a fresh one. The record lands in the page's own record
// buffer — copied out of the mapping (mapped offsets are not 8-aligned, and
// the page must outlive Close) with its CRC-32C folded over the bytes as
// they are stored, or by pread and then summed — and is verified and
// decoded where it lies, so the bytes served are the bytes checked even if
// the file changes under the mapping. The CRC-32C is computed once and held
// against both the record's trailer and the manifest, and the items are
// bound only after every check has passed. A page that fails any check —
// its read of the mapping faulting included — is dropped: not served, not
// returned to the free list.
func (d *FileDisk) fetch(pid PageID) (*Page, error) {
	e := d.man.Pages[pid]
	var page *Page
	select {
	case page = <-d.free:
	default:
		page = new(Page)
	}
	recycled := page.home != nil
	rec := page.record(int(e.Length))
	var sum uint32
	if d.data != nil {
		var err error
		if sum, err = copyMapped(rec, d.data[e.Offset:e.Offset+e.Length]); err != nil {
			d.checksumErr.Add(1)
			return nil, fmt.Errorf("store: page %d: %w", pid, err)
		}
	} else {
		if _, err := d.f.ReadAt(rec, e.Offset); err != nil {
			return nil, fmt.Errorf("store: pread page %d: %w", pid, err)
		}
		sum = crc32c(0, recordBody(rec))
	}
	d.bytesRead.Add(e.Length)
	r, err := checkSummed(rec, sum)
	if err != nil {
		d.checksumErr.Add(1)
		return nil, fmt.Errorf("store: page %d: %w", pid, err)
	}
	if r.id != pid || r.n != e.Items || r.sum != e.CRC32C {
		d.checksumErr.Add(1)
		return nil, fmt.Errorf("store: page %d: %w: record disagrees with manifest entry", pid, ErrCorruptPage)
	}
	if r.columnar != d.man.Columnar {
		d.checksumErr.Add(1)
		return nil, fmt.Errorf("store: page %d: %w: record layout disagrees with manifest", pid, ErrCorruptPage)
	}
	page.bind(rec, r, bigEndian)
	if recycled {
		d.reused.Add(1)
	}
	page.home = d
	page.pins.Store(1) // the reader's
	return page, nil
}

// copyMapped copies a record out of the mapping, src, into rec and returns
// the CRC-32C of its body as stored (crc32cCopy). A fault in the mapping —
// the file truncated under it — is an error wrapping ErrCorruptPage, not a
// SIGBUS that kills the process.
func copyMapped(rec, src []byte) (sum uint32, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if p := recover(); p != nil {
			if _, fault := p.(interface{ Addr() uintptr }); !fault {
				panic(p)
			}
			err = fmt.Errorf("%w: the mapped page file faulted: %v", ErrCorruptPage, p)
		}
	}()
	n := len(recordBody(rec))
	sum = crc32cCopy(0, rec[:n], src[:n])
	copy(rec[n:], src[n:])
	return sum, nil
}

// Stats returns the cost-model I/O statistics (lock-free).
func (d *FileDisk) Stats() IOStats {
	return IOStats{
		Reads:     d.reads.Load(),
		SeqReads:  d.seqReads.Load(),
		RandReads: d.randReads.Load(),
	}
}

// ResetStats zeroes the cost-model statistics (sequential tracking
// included) and returns the previous snapshot. Storage counters are left
// alone; they are lifetime totals.
func (d *FileDisk) ResetStats() IOStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := IOStats{
		Reads:     d.reads.Swap(0),
		SeqReads:  d.seqReads.Swap(0),
		RandReads: d.randReads.Swap(0),
	}
	d.lastRead = InvalidPage - 1
	return s
}

// Storage returns a snapshot of the real-I/O counters.
func (d *FileDisk) Storage() StorageStats {
	return StorageStats{
		BytesRead:        d.bytesRead.Load(),
		ChecksumFailures: d.checksumErr.Load(),
		PagesReused:      d.reused.Load(),
	}
}

// SetTracer installs (or with nil removes) the tracer that times reads as
// storage_read spans. The store pager forwards its tracer here
// automatically when a FileDisk sits directly beneath it.
func (d *FileDisk) SetTracer(tr *obs.Tracer) { d.tracer.Store(tr) }
