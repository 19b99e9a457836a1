package fault

import (
	"errors"
	"testing"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

func testDisk(t *testing.T, n int) *store.Disk {
	t.Helper()
	pages := make([]*store.Page, n)
	for i := range pages {
		pages[i] = &store.Page{ID: store.PageID(i), Items: []store.Item{
			{ID: store.ItemID(i), Vec: vec.Vector{float64(i)}},
		}}
	}
	d, err := store.NewDisk(pages)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestZeroConfigIsPassThrough is the acceptance bar: with no faults
// configured the wrapper returns the same pages and charges the same
// statistics as the bare disk, read for read.
func TestZeroConfigIsPassThrough(t *testing.T) {
	bare := testDisk(t, 8)
	inner := testDisk(t, 8)
	wrapped, err := Wrap(inner, Config{})
	if err != nil {
		t.Fatal(err)
	}

	seq := []store.PageID{0, 1, 2, 5, 6, 3, 0, 7}
	for _, pid := range seq {
		pb, errB := bare.Read(pid)
		pw, errW := wrapped.Read(pid)
		if errB != nil || errW != nil {
			t.Fatalf("page %d: bare err %v, wrapped err %v", pid, errB, errW)
		}
		if pb.ID != pw.ID || len(pb.Items) != len(pw.Items) {
			t.Fatalf("page %d differs through the wrapper", pid)
		}
	}
	if bare.Stats() != wrapped.Stats() {
		t.Errorf("stats diverged: bare %+v, wrapped %+v", bare.Stats(), wrapped.Stats())
	}
	if wrapped.NumPages() != bare.NumPages() {
		t.Errorf("NumPages: %d vs %d", wrapped.NumPages(), bare.NumPages())
	}
	fs := wrapped.FaultStats()
	if fs.Injected != 0 || fs.Ticks != 0 || fs.Reads != int64(len(seq)) {
		t.Errorf("fault stats = %+v", fs)
	}
	// ResetStats delegates to the wrapped disk.
	if prev := wrapped.ResetStats(); prev.Reads != int64(len(seq)) {
		t.Errorf("ResetStats returned %+v", prev)
	}
	if inner.Stats().Reads != 0 {
		t.Error("inner disk stats not reset through wrapper")
	}
}

func TestProbabilisticInjectionIsDeterministic(t *testing.T) {
	run := func() []bool {
		d, err := Wrap(testDisk(t, 4), Config{Seed: 7, ErrProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		var pattern []bool
		for i := 0; i < 64; i++ {
			_, err := d.Read(store.PageID(i % 4))
			pattern = append(pattern, err != nil)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("read %d: %v is not ErrInjected", i, err)
			}
		}
		return pattern
	}
	a, b := run(), run()
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at read %d", i)
		}
		if a[i] {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Errorf("ErrProb 0.5 injected %d/%d faults", injected, len(a))
	}
}

func TestFailAfter(t *testing.T) {
	d, err := Wrap(testDisk(t, 4), Config{FailAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Read(store.PageID(i % 4)); err != nil {
			t.Fatalf("read %d failed before FailAfter: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Read(0); !errors.Is(err, ErrInjected) {
			t.Fatalf("read after FailAfter succeeded (err=%v)", err)
		}
	}
}

func TestFailPages(t *testing.T) {
	d, err := Wrap(testDisk(t, 6), Config{FailPages: []store.PageID{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for pid := store.PageID(0); pid < 6; pid++ {
		_, err := d.Read(pid)
		wantFail := pid == 2 || pid == 4
		if wantFail != (err != nil) {
			t.Errorf("page %d: err=%v, want fail=%v", pid, err, wantFail)
		}
	}
}

// TestMaxFaultsExhaustion: a bounded fault budget clears, after which the
// disk behaves perfectly, so a test can show recovery after a fault.
func TestMaxFaultsExhaustion(t *testing.T) {
	d, err := Wrap(testDisk(t, 4), Config{ErrProb: 1, Seed: 3, MaxFaults: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if d.Exhausted() {
			t.Fatalf("exhausted after %d faults", i)
		}
		if _, err := d.Read(0); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: want injected fault, got %v", i, err)
		}
	}
	if !d.Exhausted() {
		t.Error("not exhausted after MaxFaults injections")
	}
	for i := 0; i < 8; i++ {
		if _, err := d.Read(store.PageID(i % 4)); err != nil {
			t.Fatalf("read after exhaustion failed: %v", err)
		}
	}
	fs := d.FaultStats()
	if fs.Injected != 3 || fs.Reads != 11 {
		t.Errorf("fault stats = %+v", fs)
	}
	// ResetFaultStats replays the same fault sequence.
	if prev := d.ResetFaultStats(); prev.Injected != 3 {
		t.Errorf("reset returned %+v", prev)
	}
	if _, err := d.Read(0); !errors.Is(err, ErrInjected) {
		t.Errorf("after reset the budget did not replay: %v", err)
	}
}

func TestLatencyTicks(t *testing.T) {
	d, err := Wrap(testDisk(t, 2), Config{LatencyTicks: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.Read(store.PageID(i % 2)); err != nil {
			t.Fatal(err)
		}
	}
	if fs := d.FaultStats(); fs.Ticks != 20 {
		t.Errorf("Ticks = %d, want 20", fs.Ticks)
	}
}

func TestSetEnabled(t *testing.T) {
	d, err := Wrap(testDisk(t, 2), Config{ErrProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.SetEnabled(false)
	if _, err := d.Read(0); err != nil {
		t.Fatalf("disarmed injector failed a read: %v", err)
	}
	if fs := d.FaultStats(); fs.Reads != 0 {
		t.Errorf("disarmed reads were counted: %+v", fs)
	}
	d.SetEnabled(true)
	if _, err := d.Read(0); !errors.Is(err, ErrInjected) {
		t.Errorf("armed injector passed a read: %v", err)
	}
}

func TestWrapValidation(t *testing.T) {
	if _, err := Wrap(nil, Config{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Wrap(testDisk(t, 1), Config{ErrProb: 1.5}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if _, err := Wrap(testDisk(t, 1), Config{ErrProb: -0.1}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := Wrap(testDisk(t, 1), Config{LatencyTicks: -1}); err == nil {
		t.Error("negative latency accepted")
	}
}
