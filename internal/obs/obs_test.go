package obs

import (
	"strings"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{histBase, 0},
		{histBase + 1, 1},
		{2 * histBase, 1},
		{2*histBase + 1, 2},
		{4 * histBase, 2},
		{histBase << histBuckets, histBuckets},
		{time.Hour, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every observation must land in the bucket whose bound covers it.
	for i := 0; i < histBuckets; i++ {
		b := BucketBound(i)
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(bound %d = %v) = %d", i, b, got)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond) // bucket covering 1us
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if got := s.Quantile(0.5); got < time.Microsecond || got > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1us bucket bound", got)
	}
	if got := s.Quantile(0.99); got < time.Millisecond || got > 2*time.Millisecond {
		t.Errorf("p99 = %v, want ~1ms bucket bound", got)
	}
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestNilTracer pins the nil-hook contract: every method of a nil tracer
// must be a safe no-op, because instrumented code calls them
// unconditionally.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports Enabled")
	}
	tr.Observe(PhaseKernel, time.Millisecond)
	tr.ObserveSince(PhaseKernel, time.Now())
	tr.Start(PhaseKernel).End()
	tr.RecordQuery("single", 1, time.Second, 1, 2, 3)
	if got := tr.Queries(); got != 0 {
		t.Errorf("nil Queries() = %d", got)
	}
	if got := tr.SlowQueries(); got != nil {
		t.Errorf("nil SlowQueries() = %v", got)
	}
	if got := tr.SlowQueriesTotal(); got != 0 {
		t.Errorf("nil SlowQueriesTotal() = %d", got)
	}
	if n, err := tr.WriteTraces(&strings.Builder{}); n != 0 || err != nil {
		t.Errorf("nil WriteTraces = %d, %v", n, err)
	}
	if s := tr.Snapshot(PhaseKernel); s.Count != 0 {
		t.Errorf("nil Snapshot count = %d", s.Count)
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	tr := New(Config{SlowQueryThreshold: 10 * time.Millisecond})
	tr.slow = newSlowLog(10*time.Millisecond, 3)
	tr.RecordQuery("single", 1, time.Millisecond, 0, 0, 0) // below threshold
	for i := 0; i < 5; i++ {
		tr.RecordQuery("multi_all", i, time.Duration(i+10)*time.Millisecond, int64(i), 0, 0)
	}
	got := tr.SlowQueries()
	if len(got) != 3 {
		t.Fatalf("retained %d records, want 3", len(got))
	}
	// Oldest-first: the ring of size 3 after 5 slow records holds 2,3,4.
	for i, rec := range got {
		if rec.Queries != i+2 {
			t.Errorf("record %d has Queries=%d, want %d (oldest-first ring)", i, rec.Queries, i+2)
		}
	}
	if tr.SlowQueriesTotal() != 5 {
		t.Errorf("SlowQueriesTotal = %d, want 5", tr.SlowQueriesTotal())
	}
	if tr.Queries() != 6 {
		t.Errorf("Queries = %d, want 6", tr.Queries())
	}

	off := New(Config{SlowQueryThreshold: -1})
	off.RecordQuery("single", 1, time.Hour, 0, 0, 0)
	if off.SlowQueries() != nil {
		t.Error("negative threshold did not disable the slow log")
	}
}

func TestTraceExportJSONL(t *testing.T) {
	tr := New(Config{})
	tr.spans = newSpanRing(4)
	tr.Observe(PhaseKernel, 5*time.Microsecond)
	tr.Observe(PhasePageWait, time.Microsecond)
	var sb strings.Builder
	n, err := tr.WriteTraces(&sb)
	if err != nil || n != 2 {
		t.Fatalf("WriteTraces = %d, %v", n, err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), sb.String())
	}
	if !strings.Contains(lines[0], `"phase":"kernel"`) || !strings.Contains(lines[0], `"dur_ns":5000`) {
		t.Errorf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"phase":"page_wait"`) {
		t.Errorf("line 1 = %s", lines[1])
	}
	// Overflow: the ring keeps the newest spans.
	for i := 0; i < 10; i++ {
		tr.Observe(PhasePlan, time.Duration(i)*time.Microsecond)
	}
	sb.Reset()
	if n, _ := tr.WriteTraces(&sb); n != 4 {
		t.Errorf("after overflow retained %d spans, want 4", n)
	}
	if got := tr.Snapshot(PhasePlan).Count; got != 10 {
		t.Errorf("plan histogram count = %d, want 10: the ring drops spans, not observations", got)
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := 0; p < NumPhases; p++ {
		name := Phase(p).String()
		if name == "" || name == "unknown" {
			t.Errorf("phase %d has no name", p)
		}
		if seen[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase did not stringify as unknown")
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	tr := New(Config{})
	tr.Observe(PhaseKernel, 3*time.Microsecond)
	tr.RecordQuery("single", 1, time.Second, 1, 2, 3)
	reg := NewRegistry(tr)
	reg.Gauge("metricdb_buffer_pages", `engine="scan"`, "Buffered pages.", func() float64 { return 7 })
	reg.Counter("metricdb_disk_reads_total", "", "Disk page reads.", func() float64 { return 42 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE metricdb_phase_duration_seconds histogram",
		`metricdb_phase_duration_seconds_bucket{phase="kernel",le="+Inf"} 1`,
		`metricdb_phase_duration_seconds_count{phase="kernel"} 1`,
		`metricdb_phase_duration_seconds_count{phase="page_fetch"} 0`,
		"# TYPE metricdb_buffer_pages gauge",
		`metricdb_buffer_pages{engine="scan"} 7`,
		"# TYPE metricdb_disk_reads_total counter",
		"metricdb_disk_reads_total 42",
		"metricdb_slow_queries_total 1",
		"metricdb_traced_queries_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(out, `_bucket{phase="kernel",le="+Inf"} 1`) {
		t.Error("+Inf bucket not cumulative")
	}
	// A nil-tracer registry omits histograms but still serves callbacks.
	sb.Reset()
	if err := NewRegistry(nil).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "phase_duration") {
		t.Error("nil-tracer registry exported histograms")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	tr := New(Config{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				tr.Observe(PhaseKernel, time.Duration(i)*time.Nanosecond)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := tr.Snapshot(PhaseKernel).Count; got != 4000 {
		t.Errorf("concurrent count = %d, want 4000", got)
	}
}
