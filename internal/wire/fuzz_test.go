package wire

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/scan"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// fuzzMaxRequestBytes is the fuzzed server's request-line cap.
const fuzzMaxRequestBytes = 4096

// startStoredServer serves a small stored dataset — 200 items of dimension
// dim written with WriteDataset, read back by the scan through a FileDisk
// behind a two-page buffer — with admission control adm on, over loopback
// TCP.
func startStoredServer(tb testing.TB, dim int, adm admit.Config) ([]store.Item, string) {
	items := dataset.Uniform(21, 200, dim)
	pages, err := store.Paginate(items, 16)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := store.WriteDataset(dir, pages, store.DatasetMeta{Dim: dim, PageCapacity: 16}, store.WriteOptions{NoSync: true}); err != nil {
		tb.Fatal(err)
	}
	fd, err := store.OpenFileDisk(dir, store.FileDiskOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fd.Close() }) //nolint:errcheck
	buf, err := store.NewBuffer(2)
	if err != nil {
		tb.Fatal(err)
	}
	pager, err := store.NewPager(fd, buf)
	if err != nil {
		tb.Fatal(err)
	}
	lens := make([]int, len(pages))
	for i, p := range pages {
		lens[i] = len(p.Items)
	}
	eng, err := scan.NewStored(pager, len(items), lens)
	if err != nil {
		tb.Fatal(err)
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	_, addr := serveProc(tb, proc, ServerConfig{MaxRequestBytes: fuzzMaxRequestBytes, Admit: &adm})
	return items, addr
}

// FuzzServeRequest throws arbitrary bytes, as one request line, at the
// request path a stranger can reach: the line-delimited JSON decoder, the
// dispatcher and the admission controller in front of a stored scan. The
// server must never panic; every non-empty line gets exactly one JSON reply,
// and a reply that is an error carries a code of the taxonomy. A follow-up
// query must then get the brute-force oracle's answers, bit for bit: on the
// same connection, unless the line was one the protocol answers by closing
// it (not JSON, or over the size cap) — then the connection must be closed,
// and a new one must be served.
func FuzzServeRequest(f *testing.F) {
	items, addr := startStoredServer(f, 3, admit.Config{MaxWait: 200 * time.Microsecond})
	follow := QuerySpec{ID: 7, Vector: []float64{0.25, 0.5, 0.75}, Kind: "knn", K: 5}
	oracle := make([]Answer, len(items))
	for i, it := range items {
		oracle[i] = Answer{ID: uint64(it.ID), Dist: vec.Euclidean{}.Distance(follow.Vector, it.Vec)}
	}
	slices.SortFunc(oracle, func(a, b Answer) int { // the AnswerList's order
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	oracle = oracle[:follow.K]
	followLine, err := json.Marshal(Request{Op: OpQuery, Queries: []QuerySpec{follow}})
	if err != nil {
		f.Fatal(err)
	}

	for _, seed := range []string{
		string(followLine),
		`{"op":"ping"}`,
		`{"op":"stats"}`,
		`{"op":"query","queries":[{"vector":[1,2],"kind":"knn","k":3}]}`,                     // wrong dimension
		`{"op":"query","queries":[{"vector":[0,0,0,0],"kind":"range","range":0.5}]}`,         // wrong dimension
		`{"op":"query","queries":[{"vector":[1e309,0,0],"kind":"knn","k":3}]}`,               // overflows float64
		`{"op":"query","queries":[{"vector":[0.1,0.2,0.3],"kind":"knn","k":0}]}`,             // k 0
		`{"op":"query","queries":[{"vector":[0.1,0.2,0.3],"kind":"knn","k":-4}]}`,            // negative k
		`{"op":"query","queries":[{"vector":[0.1,0.2,0.3],"kind":"knn","k":1099511627776}]}`, // huge k
		`{"op":"multi_all","queries":[{"id":1,"vector":[0.1,0.2,0.3],"kind":"knn","k":1000000},{"id":2,"vector":[0.3,0.2,0.1],"kind":"knn","k":1000000}]}`,
		`{"op":"query","queries":[{"vector":[0.1,0.2,0.3],"kind":"range","range":-1}]}`, // negative range
		`{"op":"query","queries":[{"vector":[0.1,0.2,0.3],"kind":"bounded-knn","k":2,"range":-0.5}]}`,
		`{"op":"query","queries":[{"vector":[0.1,0.2,0.3],"kind":"nearest","k":3}]}`, // unknown kind
		`{"op":"multi","queries":[{"id":1,"vector":[0.1,0.2,0.3],"kind":"knn","k":3},{"id":1,"vector":[0.1,0.2,0.3],"kind":"knn","k":3}]}`,
		`{"op":"explain","queries":[{"id":3,"vector":[0.5,0.5,0.5],"kind":"range","range":0.2}]}`,
		`{"op":"query","deadline_ms":-5,"queries":[{"vector":[0.1,0.2,0.3],"kind":"knn","k":3}]}`,
		`{"op":"query","deadline_ms":9223372036854775807,"queries":[{"vector":[0.1,0.2,0.3],"kind":"knn","k":3}]}`,
		`{"op":"dance"}`,
		`{"op":"query","queries":null}`,
		`{"op":"query","queries":[{"id":07,"vector":[0.1,0.2,0.3],"kind":"knn","k":3}]}`, // a leading zero
		`{"op":"query","queries":[{"id":7,"vector":[.1,0.2,0.3],"kind":"knn","k":3}]}`,
		`{"op":"query","queries":[{"id":7,"vector":[0.1,0.2,0.3],"kind":"knn","k":3}],"deadline_ms":+5}`,
		// The retired span context: ignored whatever its type.
		`{"op":"multi_all","queries":[{"id":1,"vector":[0.1,0.2,0.3],"kind":"knn","k":3}],"trace":{"trace":"0a1b2c3d4e5f6071","span":"8192a3b4c5d6e7f8"}}`,
		`{"op":"query","queries":[{"vector":[0.1,0.2,0.3],"kind":"knn","k":3}],"trace":[1,"x"]}`,
		`not json at all`,
		`{"op":"query","queries":[{"kind":"` + strings.Repeat("x", fuzzMaxRequestBytes) + `"}]}`, // oversized line
		strings.Repeat("[", 20000) + strings.Repeat("]", 20000),                                  // deep nesting
		`{"op":"query","queries":[` + strings.Repeat(`{"vector":[`, 500) + `]}`,
		" \t ",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		line = bytes.ReplaceAll(line, []byte("\n"), []byte(" ")) // one line
		var cd codec
		if got, ok := handRequest(&cd, append(line, '\n')); ok {
			var want Request
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("hand decoder accepted %q, json.Unmarshal: %v", line, err)
			}
			sameMessage(t, got, want)
		}
		if req := (Request{}); json.Unmarshal(line, &req) == nil {
			sameEncoding(t, &cd, req)
		}
		// The server stops reading an oversized line at the cap, answers
		// and closes; the unread tail may reset the connection under the
		// reply, so for such a line only the fresh connection is judged.
		oversized := len(line)+1 > fuzzMaxRequestBytes
		conn := dialFuzz(t, addr)
		defer func() { conn.Close() }()
		if _, err := conn.Write(append(line, '\n')); err != nil && !oversized {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if len(bytes.TrimSpace(line)) > 0 {
			reply, err := br.ReadBytes('\n')
			if err != nil && oversized {
				reply = []byte(`{"err":"reset","code":"bad_request"}`)
			} else if err != nil {
				t.Fatalf("no reply to %q: %v", line, err)
			}
			var resp Response
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("reply %q is not one JSON response: %v", reply, err)
			}
			switch {
			case resp.Err == "" && resp.Code != "":
				t.Fatalf("reply carries code %q without an error", resp.Code)
			case resp.Err != "" && !slices.Contains([]string{CodeBadRequest, CodeEngine, CodeOverload, CodeShutdown}, resp.Code):
				t.Fatalf("error reply %q has code %q, outside the taxonomy", resp.Err, resp.Code)
			}
			if oversized || json.Unmarshal(line, new(Request)) != nil {
				if resp.Code != CodeBadRequest {
					t.Fatalf("an unparsable line got %+v, want bad_request", resp)
				}
				if _, err := br.ReadByte(); err == nil {
					t.Fatal("the connection stayed open after an unparsable line")
				}
				conn.Close()
				conn = dialFuzz(t, addr)
				br = bufio.NewReader(conn)
			}
		}
		if _, err := conn.Write(append(followLine, '\n')); err != nil {
			t.Fatal(err)
		}
		var resp Response
		reply, err := br.ReadBytes('\n')
		if err == nil {
			err = json.Unmarshal(reply, &resp)
		}
		if err != nil || resp.Err != "" || len(resp.Answers) != 1 {
			t.Fatalf("follow-up query after %q: %+v, %v", line, resp, err)
		}
		got := resp.Answers[0]
		if len(got) != len(oracle) {
			t.Fatalf("follow-up query: %d answers, oracle %d", len(got), len(oracle))
		}
		for i := range got {
			if got[i].ID != oracle[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(oracle[i].Dist) {
				t.Fatalf("follow-up answer %d: %+v, oracle %+v", i, got[i], oracle[i])
			}
		}
	})
}

// dialFuzz connects to the fuzzed server with a deadline that turns a hung
// exchange into a failure.
func dialFuzz(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}
