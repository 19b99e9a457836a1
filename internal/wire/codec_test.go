package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"

	"metricdb/internal/admit"
	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/scan"
	"metricdb/internal/vec"
)

// sameMessage fails t unless got and want are the same message: equal
// fields, and equal encodings, which also tells -0 from 0 and a nil list
// from an empty one.
func sameMessage(t *testing.T, got, want any) {
	t.Helper()
	g, gerr := json.Marshal(got)
	w, werr := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(g, w) || gerr != nil || werr != nil {
		t.Fatalf("hand decoder gave %s (%v), json.Unmarshal %s (%v)", g, gerr, w, werr)
	}
}

// sameEncoding fails t unless the codec writes msg, a Request or a
// Response, as json.Encoder does: the same bytes, or the same error.
func sameEncoding(t *testing.T, cd *codec, msg any) {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(msg)
	var got []byte
	var gerr error
	switch m := msg.(type) {
	case Request:
		got, gerr = cd.encodeRequest(&m)
	case Response:
		got, gerr = cd.encodeResponse(&m)
	}
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("codec error %v, json.Encoder %v", gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("codec wrote\n%s json.Encoder\n%s", got, want.Bytes())
	}
}

// goldenFloats are the values with a rule of their own in encoding/json's
// float format: zero and -0, the 'e' thresholds on both sides, a one- and a
// two-digit negative exponent, and the extremes.
var goldenFloats = []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99999e-7, 1e-9, 1.5e-10, 1e-100,
	1e21, 9.99999e20, 1e20, 1.5e300, math.MaxFloat64, -math.MaxFloat64, 1, -2.5, 0.1, 1.0 / 3, 123456789.125}

// goldenCorpus returns seeded requests and responses in the hand-coded
// shape (every omitempty field present and absent, empty answer lists, IDs
// up to MaxUint64, goldenFloats and random bit patterns) and, after them,
// messages outside it.
func goldenCorpus() (shaped, other []any) {
	rng := rand.New(rand.NewSource(41))
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return goldenFloats[rng.Intn(len(goldenFloats))]
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
				return f
			}
		}
	}
	id := func() uint64 {
		return []uint64{0, 1, math.MaxUint64, rng.Uint64(), uint64(rng.Intn(1000))}[rng.Intn(5)]
	}
	pick := func(v int64) int64 { return v * int64(rng.Intn(2)) }
	ops := []Op{OpQuery, OpMulti, OpMultiAll, OpExplain, OpPing, OpStats}
	kinds := []string{"knn", "range", "bounded-knn"}
	for i := 0; i < 200; i++ {
		req := Request{Op: ops[i%len(ops)], DeadlineMs: pick(rng.Int63n(1<<40) - 1<<39)}
		for j := rng.Intn(4); j > 0; j-- {
			q := QuerySpec{ID: id(), Vector: make([]float64, rng.Intn(20)), Kind: kinds[rng.Intn(3)],
				K: int(pick(int64(rng.Intn(1<<20))) - pick(1<<62))}
			for k := range q.Vector {
				q.Vector[k] = float()
			}
			if rng.Intn(2) == 0 {
				q.Range = float()
			}
			req.Queries = append(req.Queries, q)
		}
		resp := Response{Stats: Stats{Queries: rng.Int63(), PagesRead: pick(rng.Int63()), DistCalcs: pick(math.MaxInt64),
			MatrixDistCalcs: pick(math.MinInt64), AvoidTries: rng.Int63(), Avoided: -rng.Int63n(5),
			PartialAbandoned: pick(7), PivotDistCalcs: pick(rng.Int63()), Degraded: rng.Intn(2) == 0,
			Coverage: float(), BatchWidth: int(pick(int64(rng.Intn(64)))), ServiceUs: pick(rng.Int63())}}
		for j := rng.Intn(4); j > 0; j-- {
			l := make([]Answer, rng.Intn(12))
			for k := range l {
				l[k] = Answer{ID: id(), Dist: float()}
			}
			resp.Answers = append(resp.Answers, l)
		}
		shaped = append(shaped, req, resp)
	}
	shaped = append(shaped, Response{Answers: [][]Answer{{}}, Stats: Stats{Coverage: 1}}, Request{Op: OpPing})
	spec := QuerySpec{ID: 1, Vector: []float64{0.5}, Kind: "knn", K: 2}
	other = []any{
		Request{Op: "a<b", Queries: []QuerySpec{spec}},
		Request{Op: OpQuery, Queries: []QuerySpec{{Kind: `k"n\n`}}},
		Request{Op: OpQuery, Queries: []QuerySpec{{Kind: "kné", Vector: []float64{}}}},
		Request{Op: OpQuery, Queries: []QuerySpec{{Kind: "knn"}}}, // a nil vector: null
		Request{Op: OpQuery, Queries: []QuerySpec{{Kind: "range", Vector: []float64{math.NaN()}}}},
		Request{Op: OpQuery, Queries: []QuerySpec{{Kind: "range", Range: math.Inf(1)}}},
		Response{Err: "wire: unknown op \"x\"", Code: CodeBadRequest},
		Response{Err: "queue full", Code: CodeOverload, RetryAfterMs: 12, Stats: Stats{Coverage: 1}},
		Response{Explain: &msq.Explain{}, Stats: Stats{Coverage: 1}},
		Response{Answers: [][]Answer{nil, {}}, Stats: Stats{Coverage: 1}},
		Response{Answers: [][]Answer{{{ID: 1, Dist: math.Inf(1)}}}},
		Response{Stats: Stats{Coverage: math.NaN()}},
	}
	return shaped, other
}

// handRequest and handResponse run the hand decoders alone; false means
// the line is not of the hand-coded shape.
func handRequest(cd *codec, line []byte) (req Request, ok bool) {
	cd.dec, cd.b, cd.i = true, line, 0
	ok = cd.request(&req)
	return req, ok
}

func handResponse(cd *codec, line []byte) (resp Response, ok bool) {
	cd.dec, cd.b, cd.i = true, line, 0
	ok = cd.response(&resp)
	return resp, ok
}

// handDecode decodes line, msg's encoding, by hand and by json.Unmarshal.
func handDecode(cd *codec, msg any, line []byte) (got, want any, hand bool, err error) {
	switch msg.(type) {
	case Request:
		var w Request
		err = json.Unmarshal(line, &w)
		got, hand = handRequest(cd, line)
		return got, w, hand, err
	default:
		var w Response
		err = json.Unmarshal(line, &w)
		got, hand = handResponse(cd, line)
		return got, w, hand, err
	}
}

// TestCodecGolden: the hand encoders write json.Encoder's bytes for every
// message of the corpus; the hand decoders take every message of the
// hand-coded shape and read back what json.Unmarshal reads, and leave every
// other message to json.Unmarshal.
func TestCodecGolden(t *testing.T) {
	shaped, other := goldenCorpus()
	var cd codec
	for i, msg := range append(shaped, other...) {
		sameEncoding(t, &cd, msg)
		line, err := json.Marshal(msg)
		if err != nil {
			continue // a non-finite value: json.Encoder's error, checked above
		}
		line = append(line, '\n')
		got, want, hand, err := handDecode(&cd, msg, line)
		if err != nil {
			t.Fatal(err)
		}
		if hand != (i < len(shaped)) {
			t.Fatalf("hand decoder accepted %v on %s", hand, line)
		}
		if hand {
			sameMessage(t, got, want)
		}
	}
}

// lineServer answers the n-th request line on any connection with
// lines[n % len(lines)], counting n per connection.
func lineServer(t *testing.T, lines ...[]byte) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for n := 0; ; n++ {
					if _, err := readLine(br, math.MaxInt); err != nil {
						return
					}
					if _, err := conn.Write(lines[n%len(lines)]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return lis.Addr().String()
}

// TestClientReadsLongResponse: a multi_all response many times bufio's
// buffer reads the same through the hand decoder and, spaced out of the
// canonical shape, through json.Unmarshal.
func TestClientReadsLongResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	resp := Response{Stats: Stats{Queries: 16, Coverage: 1}}
	for range 16 {
		l := make([]Answer, 400)
		for k := range l {
			l[k] = Answer{ID: rng.Uint64(), Dist: rng.ExpFloat64()}
		}
		resp.Answers = append(resp.Answers, l)
	}
	line, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	spaced := bytes.Replace(line, []byte(`{"answers":`), []byte(`{ "answers": `), 1)
	var cd codec
	if _, ok := handResponse(&cd, line); !ok || len(line) < 64<<10 {
		t.Fatalf("the %d-byte line is not a long line of the hand-coded shape", len(line))
	}
	if _, ok := handResponse(&cd, spaced); ok {
		t.Fatal("the spaced line took the hand decoder")
	}
	c, err := Dial(lineServer(t, line, spaced))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, path := range []string{"hand", "encoding/json"} {
		got, st, err := c.MultiAll([]QuerySpec{{Vector: []float64{1}, Kind: "knn", K: 1}})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		sameMessage(t, Response{Answers: got, Stats: st}, resp)
	}
}

// TestClientQueryAllocations: a steady Client.Query under a context that is
// never cancelled starts no watcher goroutine and makes no channel; it
// allocates only the request's query list and the reply's two answer
// lists. The server answers from a canned line without allocating.
func TestClientQueryAllocations(t *testing.T) {
	c, err := Dial(lineServer(t, []byte(`{"answers":[[{"id":4,"dist":0.5},{"id":9,"dist":1.25}]],"stats":{"queries":1,"pages_read":3,"dist_calcs":12,"matrix_dist_calcs":0,"avoid_tries":0,"avoided":0,"partial_abandoned":2,"coverage":1,"batch_width":2,"service_us":310}}`+"\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := QuerySpec{ID: 3, Vector: []float64{0.25, 0.5, 0.75}, Kind: "knn", K: 2}
	query := func() {
		if as, _, err := c.Query(spec); err != nil || len(as) != 2 {
			t.Fatalf("Query = %v, %v", as, err)
		}
	}
	query()
	if got := testing.AllocsPerRun(200, query); got != 3 {
		t.Errorf("Client.Query allocates %v times, want 3", got)
	}
}

// FuzzDecodeResponse holds the client's hand decoder to json.Unmarshal:
// whenever it accepts a line, json.Unmarshal accepts it too and yields the
// same Response; and a response json.Unmarshal yields encodes by hand to
// json.Marshal's bytes.
func FuzzDecodeResponse(f *testing.F) {
	shaped, other := goldenCorpus()
	for _, msg := range append(shaped[:40], other...) {
		if _, ok := msg.(Response); ok {
			if line, err := json.Marshal(msg); err == nil {
				f.Add(append(line, '\n'))
			}
		}
	}
	for _, seed := range []string{
		`{"answers":[[]],"stats":{"coverage":1}}`,
		`{"answers":[[{"id":1,"dist":1e-7}]],"stats":{"coverage":-0,"degraded":false}}`,
		`{"answers":[[{"id":18446744073709551616,"dist":1}]],"stats":{}}`, // id past MaxUint64
		`{"answers":[[{"id":1,"dist":1e999}]],"stats":{}}`,
		`{"answers":[[{"id":1,"dist":1,"id":2}]],"stats":{}}`,
		`{"stats":{"queries":1.5}}`,
		`{"Stats":{"queries":1}}`,
		`{"stats":{"batch_width":-0,"service_us":01}}`,
		`{"answers":null,"stats":{"degraded":true}}`,
		`{"answers":[],"stats":{"coverage":.5}}` + "\n\n",
	} {
		f.Add([]byte(seed))
	}
	// Numbers strconv parses and JSON's grammar forbids, and an unknown key,
	// in an otherwise canonical line; and text after one.
	for _, n := range []string{"01", "-01", "1.", ".5", "-.5", "+1", "1.e5", "1e", "-", "Inf", "NaN", "0x1p3", "1}]],\"x\":[[{"} {
		f.Add([]byte(`{"answers":[[{"id":1,"dist":` + n + `}]],"stats":{"queries":1,"pages_read":0,"dist_calcs":0,` +
			`"matrix_dist_calcs":0,"avoid_tries":0,"avoided":0,"partial_abandoned":0,"coverage":1}}` + "\n"))
	}
	f.Add([]byte(`{"stats":{"queries":1,"pages_read":0,"dist_calcs":0,"matrix_dist_calcs":0,"avoid_tries":0,` +
		`"avoided":0,"partial_abandoned":0,"coverage":1}}` + "\n}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		var cd codec
		if got, ok := handResponse(&cd, line); ok {
			var want Response
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("hand decoder accepted %q, json.Unmarshal: %v", line, err)
			}
			sameMessage(t, got, want)
		}
		if resp := (Response{}); json.Unmarshal(line, &resp) == nil {
			sameEncoding(t, &cd, resp)
		}
	})
}

// codecMessages is one request of the serve_stored shape, a 10-NN query over
// 16 coordinates, and its admitted response: ten answers and the stats.
func codecMessages() (Request, Response) {
	rng := rand.New(rand.NewSource(1))
	q := QuerySpec{ID: 1234, Vector: make([]float64, 16), Kind: "knn", K: 10}
	for i := range q.Vector {
		q.Vector[i] = rng.Float64()
	}
	resp := Response{Answers: [][]Answer{make([]Answer, 10)}, Stats: Stats{Queries: 6, PagesRead: 42,
		DistCalcs: 31337, MatrixDistCalcs: 15, AvoidTries: 2024, Avoided: 911, PartialAbandoned: 17000,
		Coverage: 1, BatchWidth: 6, ServiceUs: 2350}}
	for i := range resp.Answers[0] {
		resp.Answers[0][i] = Answer{ID: uint64(rng.Intn(10000)), Dist: 0.4 + rng.Float64()/10}
	}
	return Request{Op: OpQuery, Queries: []QuerySpec{q}}, resp
}

// BenchmarkCodec times the four message operations of one request and its
// response — the client's request encode, the server's request decode, the
// server's response encode and the client's response decode — by the hand
// codec and by encoding/json as the protocol used it: an Encoder for both
// encodes, json.Unmarshal on the server, a Decoder reading the client's
// stream.
func BenchmarkCodec(b *testing.B) {
	req, resp := codecMessages()
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		var client, server codec
		for b.Loop() {
			line, _ := client.encodeRequest(&req)
			r, err := server.decodeRequest(line)
			if err != nil || len(r.Queries) != 1 {
				b.Fatal(err)
			}
			line, _ = server.encodeResponse(&resp)
			if p, err := client.decodeResponse(line); err != nil || len(p.Answers) != 1 {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var buf, stream bytes.Buffer
		enc, dec := json.NewEncoder(&buf), json.NewDecoder(&stream)
		for b.Loop() {
			buf.Reset()
			enc.Encode(req) //nolint:errcheck // finite values
			var r Request
			if err := json.Unmarshal(buf.Bytes(), &r); err != nil || len(r.Queries) != 1 {
				b.Fatal(err)
			}
			buf.Reset()
			enc.Encode(resp) //nolint:errcheck // finite values
			stream.Write(buf.Bytes())
			var p Response
			if err := dec.Decode(&p); err != nil || len(p.Answers) != 1 {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeQuery is the served path end to end: one client sends
// single 10-NN queries over 16 coordinates to a loopback server with
// admission on (a pressure of zero, so a lone caller's query runs without
// lingering for company) over a stored scan whose buffer holds two of its
// thirteen pages. Allocations count both ends.
func BenchmarkServeQuery(b *testing.B) {
	_, addr := startStoredServer(b, 16, admit.Config{Pressure: func() float64 { return 0 }})
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(1))
	specs := make([]QuerySpec, 64)
	for i := range specs {
		specs[i] = QuerySpec{ID: uint64(i), Vector: make([]float64, 16), Kind: "knn", K: 10}
		for j := range specs[i].Vector {
			specs[i].Vector[j] = rng.Float64()
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, _, err := c.Query(specs[i%len(specs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// TestRetiredTraceKey: a request line that still carries a "trace" key — the
// span context coordinators used to send, or a value of any other type — is
// answered as the same line without it, and the reply carries no trace key.
// Each line runs on a fresh connection of a fresh unbuffered server, so both
// replies start from the same state.
func TestRetiredTraceKey(t *testing.T) {
	knn := `{"id":1,"vector":[0.2,0.4,0.6],"kind":"knn","k":3}`
	rng := `{"id":2,"vector":[0.5,0.5,0.5],"kind":"range","range":0.3}`
	cases := []struct {
		name  string
		admit bool
		line  string
	}{
		{"query", false, `{"op":"query","queries":[` + knn + `]}`},
		{"query admitted", true, `{"op":"query","queries":[` + knn + `]}`},
		{"multi_all", false, `{"op":"multi_all","queries":[` + knn + `,` + rng + `]}`},
	}
	exchange := func(t *testing.T, admitted bool, line string) (Response, []byte) {
		t.Helper()
		eng, err := scan.New(dataset.Uniform(9, 300, 3), 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var cfg ServerConfig
		if admitted {
			cfg.Admit = &admit.Config{Pressure: func() float64 { return 0 }}
		}
		_, addr := serveProc(t, proc, cfg)
		conn := dialFuzz(t, addr)
		defer conn.Close()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := bufio.NewReader(conn).ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(reply, &resp); err != nil || resp.Err != "" || len(resp.Answers) == 0 {
			t.Fatalf("%s: %q, %v", line, reply, err)
		}
		if admitted && resp.Stats.BatchWidth != 1 {
			t.Fatalf("%s: batch width %d, want 1 through admission", line, resp.Stats.BatchWidth)
		}
		resp.Stats.ServiceUs = 0 // a measured time
		return resp, reply
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _ := exchange(t, c.admit, c.line)
			for _, trace := range []string{`{"trace":"0a1b2c3d4e5f6071","span":"8192a3b4c5d6e7f8"}`, `5`, `null`} {
				line := strings.TrimSuffix(c.line, "}") + `,"trace":` + trace + `}`
				got, reply := exchange(t, c.admit, line)
				if bytes.Contains(reply, []byte(`"trace"`)) {
					t.Errorf("reply to %s carries a trace key: %s", line, reply)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: got %+v, want %+v", line, got, want)
				}
			}
		})
	}
}
