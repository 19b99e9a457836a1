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
	"metricdb/internal/msq"
	"metricdb/internal/parallel"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The coordinator of these tests is a parallel.Cluster over Remote servers;
// the scenarios both transports share are parallel's TestFanOut. These cover
// what only the wire can do: reach no server at all, refuse with a taxonomy
// code, and send a malformed reply.

// startPartitionedServers declusters one dataset round-robin over n wire
// servers and returns their addresses plus the full item set for reference
// answers.
func startPartitionedServers(t *testing.T, n int) (addrs []string, items []store.Item) {
	t.Helper()
	const dim = 3
	items = dataset.Uniform(17, 360, dim)
	parts, err := parallel.Decluster(items, n, parallel.RoundRobin, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range parts {
		eng, err := scan.NewWithConfig(part, scan.Config{PageCapacity: 16})
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
func coordinator(t *testing.T, addrs []string) *parallel.Cluster {
	t.Helper()
	servers := make([]parallel.Server, len(addrs))
	for i, addr := range addrs {
		servers[i] = Remote(addr)
	}
	c, err := parallel.NewCluster(servers)
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
	if _, err := parallel.NewCluster(nil); err == nil {
		t.Error("empty server list accepted")
	}
}

// TestCoordinatorUnionMerge: the merged answers over a partitioned cluster
// equal the single-node answers, and the report carries each server's work.
func TestCoordinatorUnionMerge(t *testing.T) {
	addrs, items := startPartitionedServers(t, 3)
	queries := coordQueries(items)
	c := coordinator(t, addrs)
	got, rep, err := c.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCoordAnswers(got, refAnswers(t, items, queries)) {
		t.Errorf("merged answers differ from single-node reference")
	}
	if len(rep.PerServer) != len(addrs) {
		t.Fatalf("healthy cluster reported %+v", rep)
	}
	for i, s := range rep.PerServer {
		if s.Query.PagesRead == 0 || s.Query.Queries != int64(len(queries)) {
			t.Errorf("server %d stats = %+v", i, s.Query)
		}
	}
}

// TestCoordinatorDegradedDeadServer: a server nothing listens for fails
// the operation, and the error names it.
func TestCoordinatorDegradedDeadServer(t *testing.T) {
	addrs, items := startPartitionedServers(t, 3)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = dead.Addr().String()
	dead.Close() // nothing listens here any more

	c := coordinator(t, addrs)
	if _, _, err := c.MultiQueryAll(coordQueries(items)); err == nil || !strings.Contains(err.Error(), "server 1") {
		t.Fatalf("coordinator with a dead server returned %v, want an error naming server 1", err)
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

// TestCoordinatorFailsFastOnBadRequest: a server's refusal fails the
// operation with the server's error as it sent it, after one request per
// operation: bad_request, which the caller's batch earns every time, and
// overload, whose retry-after hint reaches the caller.
func TestCoordinatorFailsFastOnBadRequest(t *testing.T) {
	const hint = 60 * time.Millisecond
	for _, resp := range []Response{
		{Err: "nope", Code: CodeBadRequest},
		{Err: "overloaded", Code: CodeOverload, RetryAfterMs: hint.Milliseconds()},
	} {
		addr, calls := fakeServer(t, resp)
		c := coordinator(t, []string{addr})
		const ops = 3
		for i := 0; i < ops; i++ {
			_, _, err := c.MultiQueryAll(dummyQueries())
			var se *ServerError
			if !errors.As(err, &se) || se.Code != resp.Code {
				t.Fatalf("operation %d: got %v, want a %s ServerError", i, err, resp.Code)
			}
			if want := time.Duration(resp.RetryAfterMs) * time.Millisecond; se.RetryAfter != want {
				t.Fatalf("ServerError.RetryAfter = %v, want %v", se.RetryAfter, want)
			}
		}
		if got := calls.Load(); got != ops {
			t.Fatalf("%s: server saw %d requests for %d operations", resp.Code, got, ops)
		}
	}
}

// TestRemoteMalformedReply: a server that answers with the wrong number of
// answer lists fails the operation, and the error names it.
func TestRemoteMalformedReply(t *testing.T) {
	addrs, items := startPartitionedServers(t, 3)
	bad, _ := fakeServer(t, Response{Answers: [][]Answer{{{ID: 1, Dist: 0}}}})
	addrs = append(addrs, bad)

	c := coordinator(t, addrs)
	_, _, err := c.MultiQueryAll(coordQueries(items))
	if !errors.Is(err, ErrMalformedResponse) || !strings.Contains(err.Error(), "server 3") {
		t.Fatalf("coordinator returned %v, want a malformed reply from server 3", err)
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
