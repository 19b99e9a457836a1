package fault

import (
	"errors"
	"fmt"
	"sync"

	"metricdb/internal/store"
)

// FS is a deterministic fault plan for the persistent dataset builder: it
// plugs into store.WriteOptions.Hook and fails the build at exactly one
// chosen filesystem operation, optionally as a torn write that leaves a
// prefix of the blob on disk. Because store.WriteDataset performs its
// operations in a fixed order, sweeping FailAt from 1 upward interrupts a
// build at every individual fault point — the crash-safety suite in
// internal/dataset drives exactly that sweep and asserts a reopened
// directory always yields the old or the new dataset, never a torn one.
//
// The zero value injects nothing and just records the operation log.
type FS struct {
	// FailAt is the 1-based index of the operation that fails; 0 never
	// fails.
	FailAt int
	// TornBytes, when positive and the failing operation is a write,
	// lets that many bytes of the blob reach the file before the abort
	// (store.TornWrite semantics). Zero aborts before any byte.
	TornBytes int

	mu  sync.Mutex
	n   int
	ops []string
	hit bool
}

// Hook is the store.WriteOptions.Hook adapter.
func (f *FS) Hook(op store.FileOp, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	f.ops = append(f.ops, fmt.Sprintf("%s %s", op, name))
	if f.FailAt == 0 || f.n != f.FailAt {
		return nil
	}
	f.hit = true
	if op == store.OpWrite && f.TornBytes > 0 {
		return fmt.Errorf("fault: op %d (%s %s): %w: %w",
			f.n, op, name, ErrInjected, &store.TornWrite{Bytes: f.TornBytes})
	}
	return fmt.Errorf("fault: op %d (%s %s): %w", f.n, op, name, ErrInjected)
}

// Ops returns the recorded operation log ("write pages-g00000001.dat", …).
func (f *FS) Ops() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ops...)
}

// Count returns how many operations the hook has seen.
func (f *FS) Count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Tripped reports whether the planned fault point was reached.
func (f *FS) Tripped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hit
}

// IsCorruption reports whether err is a storage-corruption failure — a
// page record that failed checksum or structural validation on a
// file-backed disk. It extends the package's fault taxonomy beyond
// injected read errors (ErrInjected): both classes are storage faults (the
// page's contents are unavailable), but corruption is never transient, so
// a caller that retries should give up on the page instead of re-reading
// it.
func IsCorruption(err error) bool {
	return errors.Is(err, store.ErrCorruptPage)
}

// IsStorageFault reports whether err is any fault of the storage layer:
// an injected read error or detected corruption.
func IsStorageFault(err error) bool {
	return errors.Is(err, ErrInjected) || IsCorruption(err)
}
