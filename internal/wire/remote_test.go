package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metricdb/internal/dataset"
	"metricdb/internal/fault"
	"metricdb/internal/msq"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The coordinator of these tests is a parallel.Cluster over Remote servers;
// the failure scenarios both transports share are parallel's TestFanOut.
// These cover what only the wire can do: reach no server at all, hang on a
// connection, refuse with a taxonomy code, and send a malformed reply.

// startPartitionedServers declusters one dataset round-robin over n wire
// servers and returns their addresses plus the full item set for reference
// answers. wrap, when non-nil, interposes on each partition's storage.
func startPartitionedServers(t *testing.T, n int, wrap func(server int, src store.PageSource) (store.PageSource, error)) (addrs []string, items []store.Item) {
	t.Helper()
	const dim = 3
	items = dataset.Uniform(17, 360, dim)
	parts, err := parallel.Decluster(items, n, parallel.RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range parts {
		cfg := scan.Config{PageCapacity: 16}
		if wrap != nil {
			si := i
			cfg.WrapDisk = func(src store.PageSource) (store.PageSource, error) { return wrap(si, src) }
		}
		eng, err := scan.NewWithConfig(part, cfg)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, addr := serveProc(t, proc, ServerConfig{})
		addrs = append(addrs, addr)
	}
	return addrs, items
}

// coordinator builds a cluster over Remote servers at addrs.
func coordinator(t *testing.T, addrs []string, cfg parallel.FanOut) *parallel.Cluster {
	t.Helper()
	servers := make([]parallel.Server, len(addrs))
	for i, addr := range addrs {
		servers[i] = Remote(addr)
	}
	c, err := parallel.NewCluster(servers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// coordQueries is a mixed range/k-NN batch over the partitioned dataset.
func coordQueries(items []store.Item) []msq.Query {
	return []msq.Query{
		{ID: 1, Vec: items[5].Vec, Type: query.NewKNN(4)},
		{ID: 2, Vec: items[23].Vec, Type: query.NewRange(0.35)},
		{ID: 3, Vec: items[77].Vec, Type: query.NewKNN(6)},
	}
}

// refAnswers computes the fault-free single-node answers for the batch.
func refAnswers(t *testing.T, items []store.Item, queries []msq.Query) []*query.AnswerList {
	t.Helper()
	eng, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lists, _, err := proc.MultiQuery(queries)
	if err != nil {
		t.Fatal(err)
	}
	return lists
}

func sameCoordAnswers(a, b []*query.AnswerList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i].Answers(), b[i].Answers()
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if x[j].ID != y[j].ID || math.Abs(x[j].Dist-y[j].Dist) > 1e-12 {
				return false
			}
		}
	}
	return true
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := parallel.NewCluster(nil, parallel.FanOut{}); err == nil {
		t.Error("empty server list accepted")
	}
	if _, err := parallel.NewCluster([]parallel.Server{Remote("a")}, parallel.FanOut{Retries: -1}); err == nil {
		t.Error("negative retries accepted")
	}
}

// TestCoordinatorUnionMerge: the merged answers over a partitioned cluster
// equal the single-node answers, and the report carries per-server health
// with measured latency.
func TestCoordinatorUnionMerge(t *testing.T) {
	addrs, items := startPartitionedServers(t, 3, nil)
	queries := coordQueries(items)
	c := coordinator(t, addrs, parallel.FanOut{Timeout: 30 * time.Second})
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCoordAnswers(got, refAnswers(t, items, queries)) {
		t.Errorf("merged answers differ from single-node reference")
	}
	if rep.Degraded || rep.Coverage() != 1 || len(rep.PerServer) != len(addrs) {
		t.Fatalf("healthy cluster reported %+v", rep)
	}
	for i, s := range rep.PerServer {
		if h := s.Health; !h.OK || h.Attempts != 1 || h.Latency <= 0 {
			t.Errorf("server %d health = %+v", i, h)
		}
		if s.Query.PagesRead == 0 || s.Query.Queries != int64(len(queries)) {
			t.Errorf("server %d stats = %+v", i, s.Query)
		}
	}
}

// TestCoordinatorDegradedDeadServer: with Degrade set, a server nothing
// listens for is dropped from the merge after its retries; the result is
// exactly the surviving partitions' and the report says so. Without
// Degrade the operation fails.
func TestCoordinatorDegradedDeadServer(t *testing.T) {
	addrs, items := startPartitionedServers(t, 3, nil)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = dead.Addr().String()
	dead.Close() // nothing listens here any more

	queries := coordQueries(items)
	c := coordinator(t, addrs, parallel.FanOut{Timeout: 5 * time.Second, Retries: 1, Degrade: true})
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.Covered != 2 {
		t.Errorf("dead server not reflected in the report: %+v", rep)
	}
	if h := rep.PerServer[1].Health; h.OK || h.Attempts != 2 || h.Err == "" {
		t.Errorf("dead server health = %+v, want 2 failed attempts", h)
	}
	parts, err := parallel.Decluster(items, 3, parallel.RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	surviving := append(append([]store.Item(nil), parts[0]...), parts[2]...)
	if !sameCoordAnswers(got, refAnswers(t, surviving, queries)) {
		t.Error("degraded answers differ from the surviving-partition reference")
	}

	strict := coordinator(t, addrs, parallel.FanOut{Timeout: 5 * time.Second})
	if _, _, err := strict.MultiQueryAll(queries); err == nil {
		t.Error("strict coordinator succeeded with a dead server")
	}
}

// TestCoordinatorServerTimeout: a server that accepts but never answers
// trips the per-attempt timeout on every attempt, and the operation
// degrades around the server.
func TestCoordinatorServerTimeout(t *testing.T) {
	addrs, items := startPartitionedServers(t, 2, nil)
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hung.Close() })
	go func() { // accept and hold connections open without responding
		for {
			conn, err := hung.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	addrs = append(addrs, hung.Addr().String())

	c := coordinator(t, addrs, parallel.FanOut{Timeout: 100 * time.Millisecond, Retries: 1, Degrade: true})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, rep, err := c.MultiQueryAllContext(ctx, coordQueries(items))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Errorf("hung server not degraded: %+v", rep)
	}
	if h := rep.PerServer[2].Health; h.OK || h.Attempts != 2 || !strings.Contains(h.Err, "timed out") {
		t.Errorf("hung server health = %+v, want 2 timed-out attempts", h)
	}
}

// TestClassify pins the retry policy each taxonomy code states.
func TestClassify(t *testing.T) {
	cases := []struct {
		name       string
		err        *ServerError
		retryable  bool
		retryAfter time.Duration
		trips      bool
	}{
		{"bad_request", &ServerError{Code: CodeBadRequest, Msg: "no"}, false, 0, false},
		{"shutting_down", &ServerError{Code: CodeShutdown, Msg: "bye"}, false, 0, true},
		{"overload", &ServerError{Code: CodeOverload, Msg: "busy", RetryAfter: 42 * time.Millisecond}, true, 42 * time.Millisecond, true},
		{"engine_error", &ServerError{Code: CodeEngine, Msg: "boom"}, true, 0, true},
	}
	for _, c := range cases {
		retryable, after, trips := c.err.Classify()
		if retryable != c.retryable || after != c.retryAfter || trips != c.trips {
			t.Errorf("%s: Classify = (%v, %v, %v), want (%v, %v, %v)",
				c.name, retryable, after, trips, c.retryable, c.retryAfter, c.trips)
		}
	}
}

// fakeServer speaks just enough of the line protocol to return a canned
// response for every request, counting the requests it saw.
func fakeServer(t *testing.T, resp Response) (addr string, calls *atomic.Int64) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	calls = new(atomic.Int64)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := br.ReadBytes('\n'); err != nil {
						return
					}
					calls.Add(1)
					if err := json.NewEncoder(conn).Encode(resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String(), calls
}

// dummyQueries is a minimal valid batch for servers that never answer it.
func dummyQueries() []msq.Query {
	return []msq.Query{{ID: 1, Vec: vec.Vector{0.5, 0.5, 0.5}, Type: query.NewKNN(2)}}
}

// TestCoordinatorFailsFastOnBadRequest: a bad_request response is not
// retried — the server already proved the request itself is the problem —
// and does not count toward the breaker: every later operation still
// reaches the server.
func TestCoordinatorFailsFastOnBadRequest(t *testing.T) {
	addr, calls := fakeServer(t, Response{Err: "nope", Code: CodeBadRequest})
	c := coordinator(t, []string{addr}, parallel.FanOut{Timeout: 5 * time.Second, Retries: 3})
	const ops = 8 // more than the breaker's threshold
	for i := 0; i < ops; i++ {
		_, rep, err := c.MultiQueryAll(dummyQueries())
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Fatalf("operation %d: got %v, want bad_request ServerError", i, err)
		}
		if rep.PerServer[0].Health.Attempts != 1 {
			t.Fatalf("operation %d: %d attempts, want 1 (fail fast)", i, rep.PerServer[0].Health.Attempts)
		}
	}
	if got := calls.Load(); got != ops {
		t.Fatalf("server saw %d requests for %d operations", got, ops)
	}
}

// TestCoordinatorHonorsRetryAfter: retries after an overload response wait
// at least the server's hint, and the hint surfaces on ServerError.
func TestCoordinatorHonorsRetryAfter(t *testing.T) {
	const hint = 60 * time.Millisecond
	addr, calls := fakeServer(t, Response{
		Err: "overloaded", Code: CodeOverload, RetryAfterMs: hint.Milliseconds(),
	})
	c := coordinator(t, []string{addr}, parallel.FanOut{Timeout: 5 * time.Second, Retries: 1})
	start := time.Now()
	_, _, err := c.MultiQueryAll(dummyQueries())
	elapsed := time.Since(start)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeOverload {
		t.Fatalf("got %v, want overload ServerError", err)
	}
	if se.RetryAfter != hint {
		t.Fatalf("ServerError.RetryAfter = %v, want %v", se.RetryAfter, hint)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
	if elapsed < hint {
		t.Fatalf("retried after %v, before the server's %v retry-after hint", elapsed, hint)
	}
}

// breakerCooldown outlasts the breaker's cooldown, which package parallel
// fixes at one second.
const breakerCooldown = time.Second + 100*time.Millisecond

// TestCoordinatorBreakerTripsAndProbes: consecutive failed attempts against
// a dead server open its breaker (the next operation fails fast with
// ErrCircuitOpen, zero attempts), and after the cooldown one probe is
// admitted; its failure keeps the breaker open.
func TestCoordinatorBreakerTripsAndProbes(t *testing.T) {
	t.Parallel()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // nothing listens: every dial fails fast

	// One try and four retries reach the breaker's threshold of five.
	c := coordinator(t, []string{addr}, parallel.FanOut{Timeout: time.Second, Retries: 4})
	queries := dummyQueries()
	if _, rep, err := c.MultiQueryAll(queries); err == nil {
		t.Fatal("dead server: want error")
	} else if h := rep.PerServer[0].Health; h.Attempts != 5 {
		t.Fatalf("attempts = %d, want 5", h.Attempts)
	}
	// Open breaker: the next operation fails fast without dialing.
	_, rep, err := c.MultiQueryAll(queries)
	if !errors.Is(err, parallel.ErrCircuitOpen) {
		t.Fatalf("got %v, want ErrCircuitOpen", err)
	}
	if h := rep.PerServer[0].Health; h.Attempts != 0 {
		t.Fatalf("attempts = %d while open, want 0", h.Attempts)
	}
	// After the cooldown one probe is admitted; it fails, and the breaker
	// stays open for the retries and the next operation.
	time.Sleep(breakerCooldown)
	_, rep, err = c.MultiQueryAll(queries)
	if !errors.Is(err, parallel.ErrCircuitOpen) {
		t.Fatalf("after the failed probe: got %v, want ErrCircuitOpen", err)
	}
	if h := rep.PerServer[0].Health; h.Attempts != 1 {
		t.Fatalf("cooldown elapsed: %d attempts, want the one probe", h.Attempts)
	}
	if _, rep, err := c.MultiQueryAll(queries); !errors.Is(err, parallel.ErrCircuitOpen) || rep.PerServer[0].Health.Attempts != 0 {
		t.Fatalf("after a failed probe: %v with %d attempts, want ErrCircuitOpen with 0",
			err, rep.PerServer[0].Health.Attempts)
	}
}

// TestCoordinatorBreakerRecovers: a breaker opened by a failing server
// closes again once the server recovers and the probe succeeds. The server's
// storage fails its first five reads, one per attempt, then heals.
func TestCoordinatorBreakerRecovers(t *testing.T) {
	t.Parallel()
	wrap := func(_ int, src store.PageSource) (store.PageSource, error) {
		return fault.Wrap(src, fault.Config{ErrProb: 1, MaxFaults: 5})
	}
	addrs, items := startPartitionedServers(t, 1, wrap)
	queries := coordQueries(items)
	want := refAnswers(t, items, queries)

	c := coordinator(t, addrs, parallel.FanOut{Timeout: 5 * time.Second, Retries: 4})
	if _, rep, err := c.MultiQueryAll(queries); err == nil {
		t.Fatal("faulted server: want error")
	} else if h := rep.PerServer[0].Health; h.Attempts != 5 {
		t.Fatalf("attempts = %d, want 5", h.Attempts)
	}
	if _, _, err := c.MultiQueryAll(queries); !errors.Is(err, parallel.ErrCircuitOpen) {
		t.Fatalf("got %v, want ErrCircuitOpen while open", err)
	}
	time.Sleep(breakerCooldown)
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatalf("probe against a recovered server: %v", err)
	}
	if !sameCoordAnswers(got, want) {
		t.Fatal("answers after breaker recovery differ from reference")
	}
	if rep.Degraded || rep.PerServer[0].Health.Attempts != 1 {
		t.Fatalf("recovered server report %+v, want one healthy attempt", rep)
	}
	// The probe closed the breaker: the next operation is served at once.
	if _, _, err := c.MultiQueryAll(queries); err != nil {
		t.Fatalf("after a successful probe: %v, want a closed breaker", err)
	}
}

// TestRemoteMalformedReply: a server that answers with the wrong number of
// answer lists fails its own attempts — retried, then degraded around
// (coverage 3/4) or, strict, named in the operation's error — instead of
// failing a batch the other servers answered.
func TestRemoteMalformedReply(t *testing.T) {
	addrs, items := startPartitionedServers(t, 3, nil)
	bad, calls := fakeServer(t, Response{Answers: [][]Answer{{{ID: 1, Dist: 0}}}})
	addrs = append(addrs, bad)
	queries := coordQueries(items)

	c := coordinator(t, addrs, parallel.FanOut{Timeout: 5 * time.Second, Retries: 1, Degrade: true})
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatalf("degraded coordinator errored: %v", err)
	}
	if rep.Coverage() != 0.75 {
		t.Errorf("coverage = %v, want 3/4", rep.Coverage())
	}
	if h := rep.PerServer[3].Health; h.OK || h.Attempts != 2 || !strings.Contains(h.Err, "malformed") {
		t.Errorf("malformed server health = %+v, want 2 failed attempts", h)
	}
	if calls.Load() != 2 {
		t.Errorf("malformed server saw %d attempts, want 2", calls.Load())
	}
	if !sameCoordAnswers(got, refAnswers(t, items, queries)) {
		t.Error("answers of the three real partitions differ from the reference")
	}

	strict := coordinator(t, addrs, parallel.FanOut{Timeout: 5 * time.Second})
	_, _, err = strict.MultiQueryAll(queries)
	if !errors.Is(err, ErrMalformedResponse) || !strings.Contains(err.Error(), "server 3") {
		t.Fatalf("strict coordinator returned %v, want a malformed reply from server 3", err)
	}
}

// TestDialContextBoundsTheConnect: a dial under an expired context returns
// the context's error without connecting — the first connection the
// listener accepts is a later, live dial.
func TestDialContextBoundsTheConnect(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, lis.Addr().String()); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial under a cancelled context: %v, want context.Canceled", err)
	}
	live, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	first, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if first.RemoteAddr().String() != live.conn.LocalAddr().String() {
		t.Fatalf("the listener accepted %v before the live dial from %v", first.RemoteAddr(), live.conn.LocalAddr())
	}
}
