package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/dataset"
	"metricdb/internal/fault"
	"metricdb/internal/leakcheck"
	"metricdb/internal/msq"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// startServerCfg runs a scan-backed server with explicit robustness knobs,
// optionally on fault-injected storage.
func startServerCfg(t *testing.T, cfg ServerConfig, wrap func(store.PageSource) (store.PageSource, error)) (*Server, string) {
	t.Helper()
	items := dataset.Uniform(9, 300, 3)
	eng, err := scan.NewWithConfig(items, scan.Config{PageCapacity: 16, WrapDisk: wrap})
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return serveProc(t, proc, cfg)
}

func TestServerConfigValidation(t *testing.T) {
	proc := newTestProc(t)
	if _, err := NewServerWithConfig(proc, ServerConfig{MaxConns: -1}); err == nil {
		t.Error("negative MaxConns accepted")
	}
	if _, err := NewServerWithConfig(proc, ServerConfig{MaxRequestBytes: -1}); err == nil {
		t.Error("negative MaxRequestBytes accepted")
	}
}

func newTestProc(t *testing.T) *msq.Processor {
	t.Helper()
	eng, err := scan.New(dataset.Uniform(8, 50, 2), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func TestPing(t *testing.T) {
	_, addr := startServerCfg(t, ServerConfig{}, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	// The session survives a ping.
	if _, _, err := c.Query(QuerySpec{Vector: []float64{0.1, 0.2, 0.3}, Kind: "knn", K: 2}); err != nil {
		t.Fatalf("query after ping: %v", err)
	}
}

// TestErrorTaxonomy checks that client mistakes and server trouble come
// back with the right code on the typed ServerError.
func TestErrorTaxonomy(t *testing.T) {
	_, addr := startServerCfg(t, ServerConfig{}, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wantCode := func(err error, code string) {
		t.Helper()
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("error %v is not a ServerError", err)
		}
		if se.Code != code {
			t.Errorf("code = %q, want %q (msg %q)", se.Code, code, se.Msg)
		}
	}
	_, _, err = c.Query(QuerySpec{Vector: []float64{0, 0, 0}, Kind: "weird"})
	wantCode(err, CodeBadRequest)
	_, _, err = c.Query(QuerySpec{Vector: []float64{0, 0, 0}, Kind: "knn", K: 0})
	wantCode(err, CodeBadRequest)
	_, err = c.roundTrip(Request{Op: "dance"})
	wantCode(err, CodeBadRequest)
}

// TestEngineErrorCode: a storage fault surfaces as engine_error, and the
// session survives to serve the next request once the fault clears.
func TestEngineErrorCode(t *testing.T) {
	var injector *fault.Disk
	_, addr := startServerCfg(t, ServerConfig{}, func(src store.PageSource) (store.PageSource, error) {
		var err error
		injector, err = fault.Wrap(src, fault.Config{Seed: 4, ErrProb: 1, MaxFaults: 1})
		return injector, err
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, err = c.Query(QuerySpec{Vector: []float64{0.5, 0.5, 0.5}, Kind: "knn", K: 3})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeEngine {
		t.Fatalf("injected fault returned %v, want engine_error", err)
	}
	if !injector.Exhausted() {
		t.Fatal("fault budget not spent")
	}
	if _, _, err := c.Query(QuerySpec{Vector: []float64{0.5, 0.5, 0.5}, Kind: "knn", K: 3}); err != nil {
		t.Fatalf("session did not survive the engine error: %v", err)
	}
}

// TestMalformedRequestResponse: garbage on the wire yields a JSON
// bad_request response before the connection closes — not a silent drop.
func TestMalformedRequestResponse(t *testing.T) {
	_, addr := startServerCfg(t, ServerConfig{}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not json at all\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no error response before close: %v", err)
	}
	if resp.Code != CodeBadRequest || !strings.Contains(resp.Err, "malformed") {
		t.Errorf("response = %+v", resp)
	}
	// The connection is closed after the final error response.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(conn).ReadByte(); err == nil {
		t.Error("connection still open after malformed request")
	}
}

// TestRequestTooLarge: a request line beyond MaxRequestBytes is answered
// with bad_request instead of being buffered without bound.
func TestRequestTooLarge(t *testing.T) {
	_, addr := startServerCfg(t, ServerConfig{MaxRequestBytes: 256}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := fmt.Sprintf(`{"op":"query","queries":[{"kind":"%s"}]}`+"\n", strings.Repeat("x", 1024))
	if _, err := conn.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no error response: %v", err)
	}
	if resp.Code != CodeBadRequest || !strings.Contains(resp.Err, "limit") {
		t.Errorf("response = %+v", resp)
	}
}

// TestOverload: beyond MaxConns, new connections get an overload error
// response, and a slot freed by a disconnect is reusable.
func TestOverload(t *testing.T) {
	_, addr := startServerCfg(t, ServerConfig{MaxConns: 1}, nil)
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Ping(); err != nil { // ensure the server admitted c1
		t.Fatal(err)
	}

	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	err = c2.Ping()
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeOverload {
		t.Fatalf("second connection got %v, want overload", err)
	}
	c2.Close()

	// Free the slot and retry until the server reaps the old connection.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		err = c3.Ping()
		c3.Close()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientGuardsEmptyAnswers: a structurally invalid success response
// (no answer lists) yields ErrMalformedResponse, not a panic.
func TestClientGuardsEmptyAnswers(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.ReadBytes('\n'); err != nil {
			return
		}
		fmt.Fprintln(conn, `{"answers":[]}`)
	}()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Query(QuerySpec{Vector: []float64{0.1, 0.1, 0.1}, Kind: "knn", K: 1})
	if !errors.Is(err, ErrMalformedResponse) {
		t.Fatalf("empty answers returned %v, want ErrMalformedResponse", err)
	}
}

// TestShutdownWithConcurrentClients is the -race acceptance scenario:
// clients hammer the server while Shutdown drains it. Every client must
// end cleanly — either all queries succeeded or the connection was
// drained/refused — and Shutdown must return without force-closing a
// request mid-response.
func TestShutdownWithConcurrentClients(t *testing.T) {
	srv, addr := startServerCfg(t, ServerConfig{}, nil)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	started := make(chan struct{}, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			started <- struct{}{}
			for i := 0; i < 200; i++ {
				v := []float64{float64(g) / clients, float64(i%20) / 20, 0.5}
				if _, _, err := c.Query(QuerySpec{Vector: v, Kind: "knn", K: 3}); err != nil {
					// Acceptable ends: drained connection (EOF/reset) or an
					// explicit shutdown refusal. Anything else is a bug.
					var se *ServerError
					if errors.As(err, &se) && se.Code != CodeShutdown {
						errs <- err
					}
					return
				}
			}
		}(g)
	}
	for g := 0; g < clients; g++ {
		<-started
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error: %v", err)
	}

	// Post-shutdown connections are refused outright.
	if c, err := Dial(addr); err == nil {
		if err := c.Ping(); err == nil {
			t.Error("server still answering after Shutdown")
		}
		c.Close()
	}
}

// TestShutdownLeaks: a server with admission on, drained by Shutdown while
// its clients have requests queued and in flight, leaves no goroutine
// behind — no connection handler, batch former, accept loop or drain
// waiter outlives it.
func TestShutdownLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	items := dataset.Uniform(12, 64, 3)
	eng, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(eng, slowWireMetric{delay: 20 * time.Microsecond}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithConfig(proc, ServerConfig{Admit: &admit.Config{
		MaxQueue: 8, MaxWidth: 4, MaxWait: 5 * time.Millisecond, DefaultSLO: 30 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		srv.Serve(lis) //nolint:errcheck // ends with net.ErrClosed on shutdown
		close(served)
	}()

	const clients = 6 // fewer than MaxQueue: nothing is shed before Shutdown
	var wg sync.WaitGroup
	answered := make(chan struct{}, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var once sync.Once
			defer once.Do(func() { answered <- struct{}{} }) // a client that failed early
			c, err := Dial(lis.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				v := []float64{float64(g) / clients, float64(i%20) / 20, 0.5}
				if _, _, err := c.Query(QuerySpec{Vector: v, Kind: "knn", K: 3}); err != nil {
					var se *ServerError
					if errors.As(err, &se) && se.Code != CodeShutdown && se.Code != CodeOverload {
						t.Errorf("client %d: %v", g, err)
					}
					return
				}
				once.Do(func() { answered <- struct{}{} })
			}
		}(g)
	}
	for g := 0; g < clients; g++ {
		<-answered // every client is past its first answer and sending again
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	<-served
	leakcheck.Settle(t, base)
}

// TestWrongDimensionQuery: a query whose dimension differs from the data's
// is the client's mistake — bad_request on every op that carries a query,
// with and without admission control — and costs nobody else anything: the
// same connection then answers a valid request and the server still serves
// a second client. (The distance kernels panic on a dimension mismatch, so
// before the check one such request killed the server process.)
func TestWrongDimensionQuery(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ServerConfig
	}{
		{"direct", ServerConfig{}},
		{"admitted", ServerConfig{Admit: &admit.Config{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServerCfg(t, tc.cfg, nil) // 3-d data
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			wantBadRequest := func(op string, err error) {
				t.Helper()
				var se *ServerError
				if !errors.As(err, &se) {
					t.Fatalf("%s: error %v is not a ServerError", op, err)
				}
				if se.Code != CodeBadRequest {
					t.Errorf("%s: code = %q, want %q (msg %q)", op, se.Code, CodeBadRequest, se.Msg)
				}
			}
			short := QuerySpec{ID: 1, Vector: []float64{1, 2}, Kind: "knn", K: 3}
			long := QuerySpec{ID: 2, Vector: []float64{0, 0, 0, 0}, Kind: "range", Range: 0.5}
			good := QuerySpec{ID: 3, Vector: []float64{0.5, 0.5, 0.5}, Kind: "knn", K: 3}

			_, _, err = c.Query(short)
			wantBadRequest("query", err)
			_, _, err = c.Multi([]QuerySpec{good, long})
			wantBadRequest("multi", err)
			_, _, err = c.MultiAll([]QuerySpec{short, good})
			wantBadRequest("multi_all", err)
			_, _, err = c.ExplainContext(context.Background(), []QuerySpec{good, short})
			wantBadRequest("explain", err)

			answers, _, err := c.Query(good)
			if err != nil || len(answers) != 3 {
				t.Fatalf("valid query after the rejected ones: %d answers, err %v", len(answers), err)
			}
			c2, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if answers, _, err := c2.Query(good); err != nil || len(answers) != 3 {
				t.Fatalf("second client: %d answers, err %v", len(answers), err)
			}
		})
	}
}
