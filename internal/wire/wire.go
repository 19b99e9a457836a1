// Package wire provides the paper's closing recommendation — "multiple
// similarity queries should be provided as a basic DBMS operation" — as an
// actual database operation: a line-delimited JSON protocol over TCP with a
// server wrapping a metric database and a matching client.
//
// Each connection owns one multi-query session, so partial answers and the
// query-distance matrix are buffered across requests exactly like a local
// Batch: a client can stream an ExploreNeighborhoods workload and get the
// incremental first-query-complete semantics of Definition 4 over the wire.
//
// Remote makes a server one partition of a parallel.Cluster: the §5.3
// cross-process cluster is package parallel's fan-out over servers that
// answer over TCP, and the transport's own concerns — dialing and the retry
// policy of each error code — stay here.
package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// Op names a request operation.
type Op string

// Supported operations.
const (
	// OpQuery evaluates one similarity query completely.
	OpQuery Op = "query"
	// OpMulti evaluates a multiple similarity query incrementally: the
	// first query's answers are complete, the rest partial (Definition 4).
	OpMulti Op = "multi"
	// OpMultiAll evaluates a batch to completion.
	OpMultiAll Op = "multi_all"
	// OpStats returns the session's accumulated statistics.
	OpStats Op = "stats"
	// OpPing is a liveness probe; the server answers with an empty
	// success response.
	OpPing Op = "ping"
	// OpExplain evaluates a batch to completion like OpMultiAll and
	// returns per-query EXPLAIN profiles (pages visited, lemma breakdown,
	// kernel abandons, buffer hit ratio, per-phase wall time) instead of
	// the answers. The answers land in the session's buffers as usual.
	OpExplain Op = "explain"
)

// Error taxonomy: every error response carries one of these codes so
// clients can tell their own mistakes from server trouble.
const (
	// CodeBadRequest marks client errors: malformed JSON, unknown ops,
	// invalid query specifications, oversized requests.
	CodeBadRequest = "bad_request"
	// CodeEngine marks server-side query-processing failures (e.g. the
	// storage layer returned an error).
	CodeEngine = "engine_error"
	// CodeOverload marks requests refused because the server is at its
	// connection limit, or shed by the admission controller before any
	// I/O was spent on them. Overload responses carry a retry-after hint
	// (Response.RetryAfterMs) when the server can estimate one; clients
	// must not retry before it elapses.
	CodeOverload = "overload"
	// CodeShutdown marks responses sent while the server is draining.
	// Not retryable against the same server.
	CodeShutdown = "shutting_down"
)

// QuerySpec is one query in wire form.
type QuerySpec struct {
	ID     uint64    `json:"id"`
	Vector []float64 `json:"vector"`
	// Kind is "range", "knn" or "bounded-knn".
	Kind string `json:"kind"`
	// Range is ε for range and bounded-knn kinds.
	Range float64 `json:"range,omitempty"`
	// K is the cardinality for knn kinds.
	K int `json:"k,omitempty"`
}

// toType converts the wire kind to a query type.
func (q QuerySpec) toType() (query.Type, error) {
	switch q.Kind {
	case "range":
		return query.NewRange(q.Range), nil
	case "knn":
		return query.NewKNN(q.K), nil
	case "bounded-knn":
		return query.NewBoundedKNN(q.K, q.Range), nil
	default:
		return query.Type{}, fmt.Errorf("wire: unknown query kind %q", q.Kind)
	}
}

// Request is one client message.
type Request struct {
	Op      Op          `json:"op"`
	Queries []QuerySpec `json:"queries,omitempty"`
	// DeadlineMs is the caller's latency budget for this request in
	// milliseconds. On servers with admission control a single query
	// ("query" op) that cannot be admitted within the budget is shed
	// early with an overload error; zero applies the server's default
	// SLO. Other ops currently ignore it.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// Answer is one result in wire form.
type Answer struct {
	ID   uint64  `json:"id"`
	Dist float64 `json:"dist"`
}

// Stats mirrors the processing statistics over the wire.
type Stats struct {
	Queries         int64 `json:"queries"`
	PagesRead       int64 `json:"pages_read"`
	DistCalcs       int64 `json:"dist_calcs"`
	MatrixDistCalcs int64 `json:"matrix_dist_calcs"`
	AvoidTries      int64 `json:"avoid_tries"`
	Avoided         int64 `json:"avoided"`
	// PartialAbandoned counts bounded-kernel distance calculations that
	// stopped mid-vector because the partial result already exceeded the
	// query's pruning bound (a subset of DistCalcs).
	PartialAbandoned int64 `json:"partial_abandoned"`
	// PivotDistCalcs counts query-to-pivot setup distances of the
	// pivot-filtering engines — the rest of the distance-work partition
	// next to DistCalcs. Zero for engines without a pivot phase.
	PivotDistCalcs int64 `json:"pivot_dist_calcs,omitempty"`
	// Degraded and Coverage expose the degraded-result contract when the
	// backing processor runs over a partitioned execution; a single-node
	// server always reports Degraded=false, Coverage=1.
	Degraded bool    `json:"degraded,omitempty"`
	Coverage float64 `json:"coverage"`
	// BatchWidth is the number of single queries the admission
	// controller's batch former executed together with this one (1 = the
	// request ran alone). Zero on paths that do not batch across callers.
	// The other counters of an admitted response describe the *block*,
	// amortized evidence of the sharing, not per-query attribution.
	BatchWidth int `json:"batch_width,omitempty"`
	// ServiceUs is the server-measured in-system time of an admitted
	// request in microseconds: submission to answer ready, covering the
	// admission queue wait, batch linger and block execution. This is the
	// latency the admission controller's SLO governs — unlike the
	// client-observed round trip it excludes network transit and
	// scheduling delay on either side. Zero on paths without admission
	// control.
	ServiceUs int64 `json:"service_us,omitempty"`
}

func fromStats(s msq.Stats) Stats {
	return Stats{
		Queries:          s.Queries,
		PagesRead:        s.PagesRead,
		DistCalcs:        s.DistCalcs,
		MatrixDistCalcs:  s.MatrixDistCalcs,
		AvoidTries:       s.AvoidTries,
		Avoided:          s.Avoided,
		PartialAbandoned: s.PartialAbandoned,
		PivotDistCalcs:   s.PivotDistCalcs,
		Degraded:         s.Degraded,
		Coverage:         s.Coverage(),
	}
}

// Response is one server message.
type Response struct {
	// Answers holds one result list per request query (a single list for
	// OpQuery).
	Answers [][]Answer `json:"answers,omitempty"`
	Stats   Stats      `json:"stats"`
	// Explain holds the per-query profiles for OpExplain responses.
	Explain *msq.Explain `json:"explain,omitempty"`
	Err     string       `json:"err,omitempty"`
	// Code classifies a non-empty Err (CodeBadRequest, CodeEngine,
	// CodeOverload, CodeShutdown).
	Code string `json:"code,omitempty"`
	// RetryAfterMs hints, on overload errors, how long the caller should
	// wait before retrying (an estimate of the backlog drain time).
	// Absent when the server has no estimate or the error is final.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// DefaultMaxRequestBytes caps one request line when ServerConfig leaves
// MaxRequestBytes zero.
const DefaultMaxRequestBytes = 1 << 20

// ServerConfig tunes the server's robustness knobs. The zero value gives
// a server with the default request-size cap and everything else
// unlimited.
type ServerConfig struct {
	// ReadTimeout bounds how long the server waits for the next request
	// on an idle connection; zero means forever.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response; zero means forever.
	WriteTimeout time.Duration
	// MaxRequestBytes caps the length of one request line; a longer line
	// is answered with a bad_request error and the connection is closed.
	// Zero selects DefaultMaxRequestBytes.
	MaxRequestBytes int
	// MaxConns caps concurrently served connections; further connections
	// are sent an overload error and closed. Zero means unlimited.
	MaxConns int
	// Logf, when non-nil, receives per-connection lifecycle lines
	// (session statistics at disconnect, rejected connections).
	Logf func(format string, args ...any)
	// Admit, when non-nil, routes single-query ("query" op) requests
	// through an admission controller that forms cross-caller batches and
	// sheds early under overload (see internal/admit). Batched ops
	// ("multi", "multi_all", "explain") keep their per-connection session
	// path — they already are batches.
	Admit *admit.Config
}

// Server serves similarity queries over a metric database. Each accepted
// connection gets its own multi-query session; connections are handled
// concurrently (the processor's engine and counting metric are safe for
// concurrent readers). When the processor has a tracer
// (msq.Processor.WithTracer), the server records every request's
// wire_decode and every response's wire_encode in it.
type Server struct {
	proc  *msq.Processor
	cfg   ServerConfig
	admit *admit.Controller

	mu       sync.Mutex
	closed   bool
	draining bool
	lis      net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// Lifetime counters for metrics exposition: requests handled, error
	// responses sent (by the taxonomy: client mistakes vs server trouble),
	// connections refused before admission (overload / shutdown), and
	// requests shed by the admission controller.
	requests    atomic.Int64
	badRequests atomic.Int64
	engineErrs  atomic.Int64
	refused     atomic.Int64
	sheds       atomic.Int64
}

// ConnCount returns the number of currently served connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// RequestCount returns the number of requests handled since start.
func (s *Server) RequestCount() int64 { return s.requests.Load() }

// BadRequestCount returns the number of bad_request error responses sent.
func (s *Server) BadRequestCount() int64 { return s.badRequests.Load() }

// EngineErrorCount returns the number of engine_error responses sent.
func (s *Server) EngineErrorCount() int64 { return s.engineErrs.Load() }

// RefusedCount returns the number of connections refused before admission
// (overload or shutdown).
func (s *Server) RefusedCount() int64 { return s.refused.Load() }

// ShedCount returns the number of requests shed by the admission
// controller (always zero when ServerConfig.Admit is nil).
func (s *Server) ShedCount() int64 { return s.sheds.Load() }

// Admitter returns the server's admission controller, or nil when
// admission control is not configured. Intended for metrics exposition
// (queue depth, shed counts, achieved batch width) and tests.
func (s *Server) Admitter() *admit.Controller { return s.admit }

// NewServer wraps a processor with the default configuration.
func NewServer(proc *msq.Processor) (*Server, error) {
	return NewServerWithConfig(proc, ServerConfig{})
}

// NewServerWithConfig wraps a processor with explicit robustness knobs.
func NewServerWithConfig(proc *msq.Processor, cfg ServerConfig) (*Server, error) {
	if proc == nil {
		return nil, fmt.Errorf("wire: nil processor")
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if cfg.MaxRequestBytes < 0 || cfg.MaxConns < 0 {
		return nil, fmt.Errorf("wire: negative limit in config")
	}
	s := &Server{proc: proc, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if cfg.Admit != nil {
		adm, err := admit.New(proc, *cfg.Admit)
		if err != nil {
			return nil, err
		}
		s.admit = adm
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on lis until Close is called. It always
// returns a non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		// Shutdown/Close ran before the listener was registered and so
		// could not close it; close it here, or the open socket would keep
		// accepting TCP handshakes into the backlog with no one serving.
		s.mu.Unlock()
		lis.Close() //nolint:errcheck
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		if s.draining {
			s.mu.Unlock()
			s.refuse(conn, CodeShutdown, "server is shutting down")
			continue
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.refuse(conn, CodeOverload, fmt.Sprintf("connection limit %d reached", s.cfg.MaxConns))
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// refuse sends a final error response and closes the connection without
// admitting it to the served set.
func (s *Server) refuse(conn net.Conn, code, msg string) {
	s.refused.Add(1)
	s.logf("wire: refusing %s: %s", conn.RemoteAddr(), msg)
	if s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck
	}
	json.NewEncoder(conn).Encode(Response{Err: msg, Code: code}) //nolint:errcheck
	conn.Close()
}

// Shutdown drains the server gracefully: it stops accepting, lets every
// connection finish its in-flight request (idle connections are released
// immediately), and after the grace period force-closes whatever is left.
// It is the SIGINT/SIGTERM path of cmd/msqserver.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var lisErr error
	if lis != nil {
		lisErr = lis.Close()
	}
	// Wake handlers blocked waiting for the next request; handlers busy
	// processing keep running and close after responding (handle checks
	// draining after every response).
	now := time.Now()
	for _, c := range conns {
		c.SetReadDeadline(now) //nolint:errcheck
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		select {
		case <-done:
		case <-time.After(grace):
			s.logf("wire: drain grace %v elapsed, force-closing", grace)
		}
	}
	if err := s.Close(); err != nil && lisErr == nil && !errors.Is(err, net.ErrClosed) {
		lisErr = err
	}
	if errors.Is(lisErr, net.ErrClosed) {
		lisErr = nil
	}
	return lisErr
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	// Close the admission controller first: handlers blocked in Submit are
	// released (shed with shutting_down) so wg.Wait cannot deadlock on them.
	if s.admit != nil {
		s.admit.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// errRequestTooLarge is returned by readLine for lines beyond the cap.
var errRequestTooLarge = errors.New("wire: request exceeds size limit")

// readLine reads one newline-terminated line of at most max bytes. A line
// that fits bufio's buffer is returned in place, valid until the next read;
// a longer one is gathered into a fresh slice. A final unterminated line
// before EOF is returned as a line; EOF with no pending bytes is returned as
// io.EOF (the clean-close signal).
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		line = bytes.Clone(line)
		for errors.Is(err, bufio.ErrBufferFull) && len(line) <= max {
			var frag []byte
			frag, err = br.ReadSlice('\n')
			line = append(line, frag...)
		}
	}
	switch {
	case len(line) > max:
		return nil, errRequestTooLarge
	case err == nil:
		return line, nil
	case errors.Is(err, io.EOF) && len(bytes.TrimSpace(line)) > 0:
		return line, nil
	case len(line) == 0 && errors.Is(err, io.EOF):
		return nil, io.EOF
	default:
		return nil, err
	}
}

// handle runs the per-connection request loop with a dedicated session.
//
// Error handling distinguishes a clean close (io.EOF after a complete
// request: the session simply ends) from client mistakes: malformed JSON
// and oversized lines get a final bad_request response before the
// connection is closed, instead of the silent drop they used to cause.
func (s *Server) handle(conn net.Conn) {
	session := s.proc.NewSession()
	var total msq.Stats
	requests := 0
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.logf("wire: %s disconnected: requests=%d queries=%d pages_read=%d dist_calcs=%d avoided=%d",
			conn.RemoteAddr(), requests, total.Queries, total.PagesRead, total.DistCalcs, total.Avoided)
		s.wg.Done()
	}()

	br := bufio.NewReader(conn)
	var cd codec
	tr := s.proc.Tracer()
	traced := tr.Enabled()
	send := func(resp Response) error {
		switch resp.Code {
		case CodeBadRequest:
			s.badRequests.Add(1)
		case CodeEngine:
			s.engineErrs.Add(1)
		}
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck
		}
		var encStart time.Time
		if traced {
			encStart = time.Now()
		}
		line, err := cd.encodeResponse(&resp)
		if err == nil {
			_, err = conn.Write(line)
		}
		if traced {
			tr.ObserveSince(obs.PhaseWireEncode, encStart)
		}
		return err
	}

	for {
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)) //nolint:errcheck
		}
		line, err := readLine(br, s.cfg.MaxRequestBytes)
		switch {
		case err == nil:
		case errors.Is(err, errRequestTooLarge):
			send(Response{ //nolint:errcheck // closing anyway
				Err:   fmt.Sprintf("request exceeds %d-byte limit", s.cfg.MaxRequestBytes),
				Code:  CodeBadRequest,
				Stats: fromStats(total),
			})
			return
		default:
			// io.EOF (clean close), a read deadline during drain, or a
			// broken connection: drop the session.
			return
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		requests++
		s.requests.Add(1)
		var decStart time.Time
		if traced {
			decStart = time.Now()
		}
		req, err := cd.decodeRequest(line)
		if traced {
			tr.ObserveSince(obs.PhaseWireDecode, decStart)
		}
		if err != nil {
			send(Response{ //nolint:errcheck // closing anyway
				Err:   fmt.Sprintf("malformed request: %v", err),
				Code:  CodeBadRequest,
				Stats: fromStats(total),
			})
			return
		}
		if err := send(s.dispatch(session, &total, req)); err != nil {
			return
		}
		if s.isDraining() {
			return // in-flight request finished; drain the connection
		}
	}
}

// dispatch executes one request against the connection's session. Errors
// are classified: invalid specifications are bad_request, failures from
// the query processor (e.g. injected storage faults) are engine_error.
func (s *Server) dispatch(session *msq.Session, total *msq.Stats, req Request) Response {
	fail := func(code string, err error) Response {
		return Response{Err: err.Error(), Code: code, Stats: fromStats(*total)}
	}
	switch req.Op {
	case OpPing:
		return Response{Stats: fromStats(*total)}
	case OpQuery:
		if len(req.Queries) != 1 {
			return fail(CodeBadRequest, fmt.Errorf("wire: op %q needs exactly one query, got %d", req.Op, len(req.Queries)))
		}
		t, err := req.Queries[0].toType()
		if err != nil {
			return fail(CodeBadRequest, err)
		}
		q := msq.Query{Vec: vec.Vector(req.Queries[0].Vector), Type: t}
		if err := s.proc.CheckQuery(q); err != nil {
			return fail(CodeBadRequest, err)
		}
		if s.admit != nil {
			return s.admitQuery(total, req, q)
		}
		answers, st, err := s.proc.Single(q.Vec, t)
		if err != nil {
			return fail(CodeEngine, err)
		}
		*total = total.Add(st)
		return Response{Answers: [][]Answer{toWireAnswers(answers.Answers())}, Stats: fromStats(st)}
	case OpMulti, OpMultiAll, OpExplain:
		batch, err := s.buildBatch(req.Queries)
		if err != nil {
			return fail(CodeBadRequest, err)
		}
		if req.Op == OpExplain {
			ex, err := session.ExplainAllContext(context.Background(), batch)
			if err != nil {
				return fail(CodeEngine, err)
			}
			*total = total.Add(ex.Stats)
			return Response{Explain: ex, Stats: fromStats(ex.Stats)}
		}
		run := session.MultiQuery
		if req.Op == OpMultiAll {
			run = session.MultiQueryAll
		}
		lists, st, err := run(batch)
		if err != nil {
			return fail(CodeEngine, err)
		}
		*total = total.Add(st)
		out := make([][]Answer, len(lists))
		for i, l := range lists {
			out[i] = toWireAnswers(l.Answers())
		}
		return Response{Answers: out, Stats: fromStats(st)}
	case OpStats:
		return Response{Stats: fromStats(*total)}
	default:
		return fail(CodeBadRequest, fmt.Errorf("wire: unknown op %q", req.Op))
	}
}

// admitQuery routes one single-query request through the admission
// controller: the request's deadline_ms bounds its time in the queue, a
// shed comes back as a structured overload (or shutting_down) response
// with a retry-after hint, and an admitted request returns the answers its
// cross-caller batch produced — bit-identical to the unbatched path.
func (s *Server) admitQuery(total *msq.Stats, req Request, q msq.Query) Response {
	ctx := context.Background()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	answers, st, width, service, err := s.admit.Submit(ctx, q)
	if err != nil {
		var ov *admit.Overload
		if errors.As(err, &ov) {
			s.sheds.Add(1)
			code := CodeOverload
			if ov.Reason == admit.ReasonShutdown {
				code = CodeShutdown
			}
			return Response{
				Err:          err.Error(),
				Code:         code,
				RetryAfterMs: int64((ov.RetryAfter + time.Millisecond - 1) / time.Millisecond),
				Stats:        fromStats(*total),
			}
		}
		return Response{Err: err.Error(), Code: CodeEngine, Stats: fromStats(*total)}
	}
	*total = total.Add(st)
	stats := fromStats(st)
	stats.BatchWidth = width
	stats.ServiceUs = service.Microseconds()
	return Response{Answers: [][]Answer{toWireAnswers(answers)}, Stats: stats}
}

func toWireAnswers(as []query.Answer) []Answer {
	out := make([]Answer, len(as))
	for i, a := range as {
		out[i] = Answer{ID: uint64(a.ID), Dist: a.Dist}
	}
	return out
}

// Client talks to a Server over one connection (= one server-side session).
// Not safe for concurrent use; open one client per goroutine.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	cd   codec
	// aborted is signalled once a cancelled round trip has expired the
	// connection (see roundTripContext).
	aborted chan struct{}
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a server within ctx: a cancelled or expired ctx
// abandons the connect, which against a black-holed address would
// otherwise wait for the operating system's connect timeout.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), aborted: make(chan struct{}, 1)}, nil
}

// Close closes the connection, ending the server-side session.
func (c *Client) Close() error { return c.conn.Close() }

// ServerError is an error response from the server, carrying the taxonomy
// code so callers can distinguish their own mistakes (CodeBadRequest) from
// server trouble (CodeEngine, CodeOverload, CodeShutdown). Overload
// responses also carry the server's retry-after hint.
type ServerError struct {
	Code string
	Msg  string
	// RetryAfter is the server's suggested backoff before retrying
	// (CodeOverload responses; zero otherwise).
	RetryAfter time.Duration
}

// Error renders the server error.
func (e *ServerError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("wire: server: %s", e.Msg)
	}
	return fmt.Sprintf("wire: server [%s]: %s", e.Code, e.Msg)
}

// Classify states the refusal's retry policy to a parallel.Cluster, which
// reads it from any failed attempt's error: bad_request is the caller's own
// mistake — never retried, never counted against the server's circuit
// breaker, since the server answered; shutting_down is deliberate and final
// for this server; overload is retryable, but no sooner than the server's
// retry-after hint; anything else is retryable server trouble.
func (e *ServerError) Classify() (retryable bool, retryAfter time.Duration, trips bool) {
	switch e.Code {
	case CodeBadRequest:
		return false, 0, false
	case CodeShutdown:
		return false, 0, true
	case CodeOverload:
		return true, e.RetryAfter, true
	default:
		return true, 0, true
	}
}

// ErrMalformedResponse marks a structurally invalid server response (e.g.
// a success response missing the expected answer lists, as a buggy or
// degraded server might produce).
var ErrMalformedResponse = errors.New("wire: malformed server response")

// roundTrip sends one request and reads one response line.
func (c *Client) roundTrip(req Request) (Response, error) {
	line, err := c.cd.encodeRequest(&req)
	if err == nil {
		_, err = c.conn.Write(line)
	}
	if err != nil {
		return Response{}, fmt.Errorf("wire: send: %w", err)
	}
	line, err = readLine(c.br, math.MaxInt)
	if err != nil {
		return Response{}, fmt.Errorf("wire: receive: %w", err)
	}
	resp, err := c.cd.decodeResponse(line)
	if err != nil {
		return Response{}, fmt.Errorf("wire: receive: %w", err)
	}
	if resp.Err != "" {
		return resp, &ServerError{
			Code:       resp.Code,
			Msg:        resp.Err,
			RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond,
		}
	}
	return resp, nil
}

// roundTripContext is roundTrip bounded by ctx: a context deadline becomes
// the connection deadline, and a cancellation interrupts the blocked read
// or write by expiring the connection immediately. The line protocol has no
// way to retract a request already on the wire, so after a context abort
// the connection is out of sync with the server and unusable — the caller
// should Close it and dial a fresh client (which also discards the
// server-side session, exactly as the paper's incremental semantics
// require: buffered partial answers live and die with the connection).
func (c *Client) roundTripContext(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, fmt.Errorf("wire: %w", err)
	}
	if ctx.Done() == nil { // never cancelled, so no deadline either
		return c.roundTrip(req)
	}
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d) //nolint:errcheck
	}
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Now()) //nolint:errcheck // unblock I/O now
		c.aborted <- struct{}{}
	})
	resp, err := c.roundTrip(req)
	if !stop() {
		<-c.aborted // the expiry lands before the deadline is cleared below
	}
	if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
		return Response{}, fmt.Errorf("wire: %w", ctxErr)
	}
	c.conn.SetDeadline(time.Time{}) //nolint:errcheck
	return resp, err
}

// Query evaluates a single similarity query.
func (c *Client) Query(q QuerySpec) ([]Answer, Stats, error) {
	return c.QueryContext(context.Background(), q)
}

// QueryContext is Query bounded by ctx (see roundTripContext for the
// connection-poisoning caveat on aborts). A ctx deadline is also forwarded
// to the server as the request's deadline_ms, so an admission-controlled
// server can shed the request early instead of answering past its budget.
func (c *Client) QueryContext(ctx context.Context, q QuerySpec) ([]Answer, Stats, error) {
	req := Request{Op: OpQuery, Queries: []QuerySpec{q}}
	if d, ok := ctx.Deadline(); ok {
		if ms := time.Until(d).Milliseconds(); ms > 0 {
			req.DeadlineMs = ms
		}
	}
	resp, err := c.roundTripContext(ctx, req)
	if err != nil {
		return nil, resp.Stats, err
	}
	if len(resp.Answers) != 1 {
		return nil, resp.Stats, fmt.Errorf("%w: %d answer lists for one query", ErrMalformedResponse, len(resp.Answers))
	}
	return resp.Answers[0], resp.Stats, nil
}

// Ping probes the server for liveness over the session connection.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext is Ping bounded by ctx.
func (c *Client) PingContext(ctx context.Context) error {
	_, err := c.roundTripContext(ctx, Request{Op: OpPing})
	return err
}

// Multi evaluates a multiple similarity query incrementally (Definition 4).
func (c *Client) Multi(qs []QuerySpec) ([][]Answer, Stats, error) {
	return c.MultiContext(context.Background(), qs)
}

// MultiContext is Multi bounded by ctx.
func (c *Client) MultiContext(ctx context.Context, qs []QuerySpec) ([][]Answer, Stats, error) {
	resp, err := c.roundTripContext(ctx, Request{Op: OpMulti, Queries: qs})
	return resp.Answers, resp.Stats, err
}

// MultiAll evaluates a batch to completion.
func (c *Client) MultiAll(qs []QuerySpec) ([][]Answer, Stats, error) {
	return c.MultiAllContext(context.Background(), qs)
}

// MultiAllContext is MultiAll bounded by ctx.
func (c *Client) MultiAllContext(ctx context.Context, qs []QuerySpec) ([][]Answer, Stats, error) {
	resp, err := c.roundTripContext(ctx, Request{Op: OpMultiAll, Queries: qs})
	return resp.Answers, resp.Stats, err
}

// ExplainContext evaluates the batch to completion and returns the
// server's per-query EXPLAIN profiles instead of the answers.
func (c *Client) ExplainContext(ctx context.Context, qs []QuerySpec) (*msq.Explain, Stats, error) {
	resp, err := c.roundTripContext(ctx, Request{Op: OpExplain, Queries: qs})
	if err != nil {
		return nil, resp.Stats, err
	}
	if resp.Explain == nil {
		return nil, resp.Stats, fmt.Errorf("%w: explain response without profiles", ErrMalformedResponse)
	}
	return resp.Explain, resp.Stats, nil
}

// DoContext sends one raw request and returns the raw response; most
// callers want the typed helpers instead.
func (c *Client) DoContext(ctx context.Context, req Request) (Response, error) {
	return c.roundTripContext(ctx, req)
}

// SessionStats returns the connection's accumulated statistics.
func (c *Client) SessionStats() (Stats, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	return resp.Stats, err
}
