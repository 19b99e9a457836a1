package wire

import (
	"math"
	"net"
	"strings"
	"testing"

	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/vec"
	"metricdb/internal/xtree"
)

// startServer runs a server over a fresh database and returns its address
// plus the backing processor for cross-checking.
func startServer(t *testing.T, n, dim int) (addr string, proc *msq.Processor) {
	t.Helper()
	items := dataset.Uniform(1, n, dim)
	tr, err := xtree.Bulk(items, dim, xtree.Config{LeafCapacity: 16, DirFanout: 8, BufferPages: 0})
	if err != nil {
		t.Fatal(err)
	}
	proc, err = msq.New(tr, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, addr = serveProc(t, proc, ServerConfig{})
	return addr, proc
}

// serveProc serves proc with cfg on a loopback listener until the test
// ends.
func serveProc(tb testing.TB, proc *msq.Processor, cfg ServerConfig) (*Server, string) {
	tb.Helper()
	srv, err := NewServerWithConfig(proc, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck // ends with net.ErrClosed on shutdown
	tb.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil processor accepted")
	}
}

func TestQueryOverWire(t *testing.T) {
	addr, proc := startServer(t, 400, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := QuerySpec{Vector: []float64{0.5, 0.5, 0.5, 0.5}, Kind: "knn", K: 5}
	got, stats, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := proc.Single(vec.Vector(q.Vector), query.NewKNN(5))
	if err != nil {
		t.Fatal(err)
	}
	wa := want.Answers()
	if len(got) != len(wa) {
		t.Fatalf("got %d answers, want %d", len(got), len(wa))
	}
	for i := range wa {
		if got[i].ID != uint64(wa[i].ID) || math.Abs(got[i].Dist-wa[i].Dist) > 1e-12 {
			t.Fatalf("answer %d: %+v vs %+v", i, got[i], wa[i])
		}
	}
	if stats.PagesRead == 0 || stats.DistCalcs == 0 {
		t.Errorf("stats empty: %+v", stats)
	}
}

func TestRangeAndBoundedKindsOverWire(t *testing.T) {
	addr, proc := startServer(t, 300, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		spec QuerySpec
		typ  query.Type
	}{
		{QuerySpec{Vector: []float64{0.2, 0.2, 0.2}, Kind: "range", Range: 0.3}, query.NewRange(0.3)},
		{QuerySpec{Vector: []float64{0.8, 0.1, 0.5}, Kind: "bounded-knn", K: 3, Range: 0.5}, query.NewBoundedKNN(3, 0.5)},
	}
	for _, cse := range cases {
		got, _, err := c.Query(cse.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := proc.Single(vec.Vector(cse.spec.Vector), cse.typ)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Answers()) {
			t.Errorf("%s: %d answers, want %d", cse.spec.Kind, len(got), len(want.Answers()))
		}
	}
}

// TestIncrementalSessionOverWire: the connection-scoped session buffers
// partial answers — completing the second query later is nearly free.
func TestIncrementalSessionOverWire(t *testing.T) {
	addr, _ := startServer(t, 600, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs := []QuerySpec{
		{ID: 1, Vector: []float64{0.1, 0.2, 0.3, 0.4}, Kind: "knn", K: 4},
		{ID: 2, Vector: []float64{0.15, 0.25, 0.35, 0.45}, Kind: "knn", K: 4},
	}
	first, _, err := c.Multi(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || len(first[0]) != 4 {
		t.Fatalf("first response shape: %d lists, first has %d", len(first), len(first[0]))
	}
	// Complete query 2; the queries are adjacent so most pages are done.
	second, stats2, err := c.Multi(qs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(second[0]) != 4 {
		t.Fatalf("second query returned %d answers", len(second[0]))
	}
	if stats2.PagesRead > 4 {
		t.Errorf("completing the buffered query read %d pages", stats2.PagesRead)
	}

	total, err := c.SessionStats()
	if err != nil {
		t.Fatal(err)
	}
	if total.Queries != 2 || total.PagesRead == 0 {
		t.Errorf("session stats: %+v", total)
	}
}

func TestMultiAllOverWire(t *testing.T) {
	addr, proc := startServer(t, 500, 5)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs := []QuerySpec{
		{ID: 10, Vector: []float64{0.1, 0.9, 0.4, 0.6, 0.2}, Kind: "knn", K: 6},
		{ID: 11, Vector: []float64{0.7, 0.3, 0.8, 0.2, 0.5}, Kind: "range", Range: 0.45},
		{ID: 12, Vector: []float64{0.5, 0.5, 0.5, 0.5, 0.5}, Kind: "knn", K: 2},
	}
	res, _, err := c.MultiAll(qs)
	if err != nil {
		t.Fatal(err)
	}
	types := []query.Type{query.NewKNN(6), query.NewRange(0.45), query.NewKNN(2)}
	for i := range qs {
		want, _, err := proc.Single(vec.Vector(qs[i].Vector), types[i])
		if err != nil {
			t.Fatal(err)
		}
		wa := want.Answers()
		if len(res[i]) != len(wa) {
			t.Fatalf("query %d: %d answers, want %d", i, len(res[i]), len(wa))
		}
		for j := range wa {
			if res[i][j].ID != uint64(wa[j].ID) {
				t.Fatalf("query %d answer %d: %+v vs %+v", i, j, res[i][j], wa[j])
			}
		}
	}
}

func TestWireErrors(t *testing.T) {
	addr, _ := startServer(t, 100, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.Query(QuerySpec{Vector: []float64{0, 0}, Kind: "weird"}); err == nil || !strings.Contains(err.Error(), "unknown query kind") {
		t.Errorf("unknown kind: %v", err)
	}
	// The connection survives an error response.
	if _, _, err := c.Query(QuerySpec{Vector: []float64{0, 0}, Kind: "knn", K: 3}); err != nil {
		t.Errorf("connection did not survive the error: %v", err)
	}
	// Invalid query type from the processor.
	if _, _, err := c.Query(QuerySpec{Vector: []float64{0, 0}, Kind: "knn", K: 0}); err == nil {
		t.Error("k=0 accepted over the wire")
	}
	// Multi with duplicate IDs.
	dupe := []QuerySpec{
		{ID: 5, Vector: []float64{0, 0}, Kind: "knn", K: 1},
		{ID: 5, Vector: []float64{1, 1}, Kind: "knn", K: 1},
	}
	if _, _, err := c.Multi(dupe); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := c.roundTrip(Request{Op: "dance"}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t, 800, 4)
	done := make(chan error, 6)
	for g := 0; g < 6; g++ {
		go func(g int) {
			c, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				v := []float64{float64(g) / 6, float64(i) / 20, 0.5, 0.5}
				if _, _, err := c.Query(QuerySpec{Vector: v, Kind: "knn", K: 3}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 6; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanBackedServer(t *testing.T) {
	items := dataset.Uniform(2, 200, 3)
	e, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(e, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(proc)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck
	defer srv.Close()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := c.Query(QuerySpec{Vector: []float64{0.3, 0.3, 0.3}, Kind: "knn", K: 1})
	if err != nil || len(got) != 1 {
		t.Fatalf("scan-backed query: %v, %v", got, err)
	}

	// Double Close is safe; Serve after Close refuses.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
