package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
	"metricdb/internal/wire"
)

// serveStored is the serve_stored workload: a dataset written by
// store.WriteDataset (fsync on) is served by the scan over a FileDisk
// (pread; the buffer holds 10 % of the pages, so every query misses)
// behind wire.Server with the default admission control, on loopback TCP.
// nproc connections each send single queries, 80 % k-NN and 20 % range,
// from a fixed pool. One operation is one request.
type serveStored struct {
	items  []store.Item
	pool   []wire.QuerySpec
	byVec  map[uint64]int // first-coordinate bits → pool index
	sliceN int
	warm   int
	nconn  int
	dir    string // parent of the dataset directories
	setups int
	writeS []float64
	onDisk float64 // bytes stored per byte of user data
	kept   map[int][]wire.Answer
	keptMu sync.Mutex
}

func (w *serveStored) generate(seed int64, quick bool) uint64 {
	n, dim, pool := 10000, 16, 2000
	w.sliceN, w.warm = 1000, 100
	if quick {
		n, pool = 2000, 100
		w.sliceN, w.warm = 40, 10
	}
	w.nconn = runtime.NumCPU()
	w.items = nearUniform(seed, n, dim, 6)
	objs := queryPool(seed+1, w.items, pool)

	// ε of the range queries: the median distance to the 20th neighbour
	// over the first 32 pool objects, so a range query has ≈ 20 answers.
	kth := make([]float64, 0, 32)
	for _, o := range objs[:32] {
		nn := bruteForce(w.items, o.Vec, query.NewKNN(20))
		kth = append(kth, nn[len(nn)-1].Dist)
	}
	eps := quantile(kth, 0.5)

	w.pool = make([]wire.QuerySpec, pool)
	w.byVec = make(map[uint64]int, pool)
	for i, o := range objs {
		spec := wire.QuerySpec{ID: uint64(i), Vector: o.Vec, Kind: "knn", K: 10}
		if i%5 == 4 {
			spec = wire.QuerySpec{ID: uint64(i), Vector: o.Vec, Kind: "range", Range: eps}
		}
		w.pool[i] = spec
		w.byVec[math.Float64bits(o.Vec[0])] = i
	}
	w.kept = map[int][]wire.Answer{}
	w.writeS = nil
	d := newDigest()
	itemsDigest(&d, w.items)
	itemsDigest(&d, objs)
	d.float(eps)
	return d.h
}

func (w *serveStored) cycle() int         { return len(w.pool) }
func (w *serveStored) slice() int         { return w.sliceN }
func (w *serveStored) passShare() float64 { return 1 }
func (w *serveStored) callers() int       { return w.nconn }

// blockInfo is what the admission block observer learned about the block a
// pool query last ran in.
type blockInfo struct {
	elapsed time.Duration
	stats   msq.Stats // set for the block's first member only
}

// serveServed is one written dataset with its server.
type serveServed struct {
	w    *serveStored
	tr   *tracer
	st   *stack
	dir  string
	srv  *wire.Server
	addr string
	done chan error // Serve's return

	mu       sync.Mutex
	blocks   []blockInfo // per pool index
	inflight []int32     // per pool index: the open wire.roundtrip span
	mark     int         // spans before this index belong to observed blocks
}

func (w *serveStored) setup(tr *tracer) (served, error) {
	w.setups++
	sv := &serveServed{w: w, tr: tr, dir: filepath.Join(w.dir, fmt.Sprintf("serve-%d", w.setups)),
		blocks: make([]blockInfo, len(w.pool)), inflight: make([]int32, len(w.pool))}

	dim := w.items[0].Vec.Dim()
	capacity := store.PageCapacityForBlockSize(32768, dim)
	pages, err := store.Paginate(w.items, capacity)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = store.WriteDataset(sv.dir, pages, store.DatasetMeta{Dim: dim, PageCapacity: capacity}, store.WriteOptions{})
	if err != nil {
		return nil, err
	}
	w.writeS = append(w.writeS, time.Since(t0).Seconds())
	if w.onDisk, err = storedRatio(sv.dir, len(w.items)*dim*8); err != nil {
		return nil, err
	}

	if sv.st, err = compose(stackSpec{items: w.items, dir: sv.dir}, tr); err != nil {
		return nil, err
	}
	cfg := admit.Config{}
	if tr != nil {
		cfg.BlockObserver = sv.observe
	}
	if sv.srv, err = wire.NewServerWithConfig(sv.st.proc, wire.ServerConfig{Admit: &cfg}); err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv.addr = lis.Addr().String()
	sv.done = make(chan error, 1) // Serve's one return value
	go func() { sv.done <- sv.srv.Serve(lis) }()

	sess, err := sv.open()
	if err != nil {
		sv.close() //nolint:errcheck // the dial error is reported
		return nil, err
	}
	for i := 0; i < w.warm; i++ {
		if _, err := sess.do(i%w.nconn, i, -1, false); err != nil {
			sv.close() //nolint:errcheck // the request error is reported
			return nil, err
		}
	}
	if err := sess.close(); err != nil {
		sv.close() //nolint:errcheck // the close error is reported
		return nil, err
	}
	return sv, nil
}

// storedRatio is the size of the files in dir per byte of user data.
func storedRatio(dir string, userBytes int) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total) / float64(userBytes), nil
}

func (sv *serveServed) stacks() []*stack { return []*stack{sv.st} }

// close stops the server, waits for its accept loop and its handlers, and
// removes the dataset.
func (sv *serveServed) close() error {
	err := sv.srv.Close()
	if serr := <-sv.done; !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	if cerr := sv.st.close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	return err
}

// observe is the admission controller's BlockObserver (traced run only): it
// turns the executed block into an msq.call span under the first member's
// round trip, adopts the server-side spans recorded while the block ran,
// and remembers the block's wall time for every member.
func (sv *serveServed) observe(queries []msq.Query, stats msq.Stats, elapsed time.Duration) {
	tr := sv.tr
	end := tr.now()
	sv.mu.Lock()
	defer sv.mu.Unlock()
	first := sv.w.byVec[math.Float64bits(queries[0].Vec[0])]
	tr.mu.Lock()
	block := int32(len(tr.spans))
	start := end - int64(elapsed)
	for i := sv.mark; i < int(block); i++ {
		if s := &tr.spans[i]; s.Op == opPending {
			s.Op = int32(first)
			if s.Parent < 0 {
				s.Parent = block
			}
			// The controller stopped its clock a moment before calling
			// the observer, so the reconstructed start may lag the
			// block's first recorded span.
			start = min(start, s.Start)
		}
	}
	tr.spans = append(tr.spans, span{Name: "msq.call", Start: start, End: end,
		Parent: sv.inflight[first], Op: int32(first)})
	sv.mark = int(block) + 1
	tr.mu.Unlock()
	for i, q := range queries {
		info := blockInfo{elapsed: elapsed}
		if i == 0 {
			info.stats = stats
		}
		sv.blocks[sv.w.byVec[math.Float64bits(q.Vec[0])]] = info
	}
}

// serveSession is one pass: nproc connections and what each request
// measured.
type serveSession struct {
	sv      *serveServed
	clients []*wire.Client
	reqs    [][]request // per caller
	adm0    admitCounts
	adm     admitCounts
}

// request is the per-request record of the traced run.
type request struct {
	idx     int
	rtt     time.Duration
	service time.Duration // server-measured in-system time (Stats.ServiceUs)
	block   time.Duration // wall time of the block the request ran in
	answers []wire.Answer
	stats   wire.Stats
}

type admitCounts struct{ submitted, shed, batches, batched int64 }

func readAdmit(c *admit.Controller) admitCounts {
	return admitCounts{c.Submitted(), c.Shed(), c.Batches(), c.BatchedQueries()}
}

func (sv *serveServed) open() (session, error) {
	s := &serveSession{sv: sv, reqs: make([][]request, sv.w.nconn), adm0: readAdmit(sv.srv.Admitter())}
	sv.mu.Lock()
	sv.mark = 0
	sv.mu.Unlock()
	for c := 0; c < sv.w.nconn; c++ {
		cl, err := wire.Dial(sv.addr)
		if err != nil {
			s.close() //nolint:errcheck // the dial error is reported
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

func (s *serveSession) do(caller, idx int, parent int32, keep bool) (opOut, error) {
	sv, tr := s.sv, s.sv.tr
	spec := sv.w.pool[idx]
	var sp int32
	if tr != nil {
		sp = tr.open("wire.roundtrip", parent, int32(idx))
		sv.mu.Lock()
		sv.inflight[idx] = sp
		sv.mu.Unlock()
	}
	t0 := time.Now()
	answers, st, err := s.clients[caller].Query(spec)
	rtt := time.Since(t0)
	if tr != nil {
		tr.close(sp)
	}
	if err != nil {
		return opOut{}, err
	}
	out := opOut{queries: 1}
	if tr != nil {
		sv.mu.Lock()
		info := sv.blocks[idx]
		sv.mu.Unlock()
		out.stats = info.stats
		s.reqs[caller] = append(s.reqs[caller], request{idx: idx, rtt: rtt,
			service: time.Duration(st.ServiceUs) * time.Microsecond, block: info.elapsed,
			answers: answers, stats: st})
	}
	if keep {
		sv.w.keptMu.Lock()
		sv.w.kept[idx] = answers
		sv.w.keptMu.Unlock()
	}
	d := newDigest()
	d.word(uint64(len(answers)))
	for _, a := range answers {
		d.word(a.ID)
		d.float(a.Dist)
	}
	out.sum = d.h
	return out, nil
}

func (s *serveSession) close() error {
	s.adm = readAdmit(s.sv.srv.Admitter())
	var err error
	for _, cl := range s.clients {
		if cerr := cl.Close(); err == nil {
			err = cerr
		}
	}
	s.clients = nil
	return err
}

func (w *serveStored) verify() int {
	failed := 0
	for idx, got := range w.kept {
		spec := w.pool[idx]
		t := query.NewKNN(spec.K)
		if spec.Kind == "range" {
			t = query.NewRange(spec.Range)
		}
		as := make([]query.Answer, len(got))
		for i, a := range got {
			as[i] = query.Answer{ID: store.ItemID(a.ID), Dist: a.Dist}
		}
		if !sameAnswers(as, bruteForce(w.items, spec.Vector, t)) {
			failed++
		}
	}
	return failed
}

func (w *serveStored) layers(r *traceResult, m metrics) error {
	sess := r.traced.sess.(*serveSession)
	var reqs []request
	for _, rs := range sess.reqs {
		reqs = append(reqs, rs...)
	}
	n := float64(len(reqs))
	var rtts, waits []float64
	var self, blockNs float64
	for _, q := range reqs {
		rtts = append(rtts, float64(q.rtt)/1e3)
		waits = append(waits, float64(q.service-q.block)/1e3)
		self += float64(q.rtt-q.service) / 1e3
	}
	blockNs = float64(r.tot.dur["msq.call"])
	m.set("wire.rtt_us_p50", quantile(rtts, 0.5))
	m.set("wire.rtt_us_p99", quantile(rtts, 0.99))
	m.set("wire.self_us_per_req", self/n)
	m.set("wire.error_share", float64(r.traced.failed)/float64(r.traced.attempted))
	m.set("admit.wait_us_p50", quantile(waits, 0.5))

	adm := sess.adm
	adm.submitted -= sess.adm0.submitted
	adm.shed -= sess.adm0.shed
	adm.batches -= sess.adm0.batches
	adm.batched -= sess.adm0.batched
	m.set("admit.avg_width", ratio(float64(adm.batched), float64(adm.batches)))
	m.set("admit.shed_share", ratio(float64(adm.shed), float64(adm.submitted)))
	m.set("admit.batches_per_s", float64(adm.batches)/r.traced.wall.Seconds())

	codec, reqBytes, respBytes, err := codecProbe(w.pool, reqs)
	if err != nil {
		return err
	}
	m.set("wire.codec_us_per_req", codec)
	m.set("wire.req_bytes", reqBytes)
	m.set("wire.resp_bytes", respBytes)

	m.set("store.bytes_per_user_byte", w.onDisk)
	m.set("store.write_s", quantile(append([]float64(nil), w.writeS...), 0.5))

	// The scan's own numbers: block execution time stands in for the
	// engine's wall time, as the requests' round trips include the wire.
	st := r.svU.stacks()[0]
	engineLayers(r, m, "scan", 0, st.buildS)
	m.set("scan.us_per_query", blockNs/1e3/n)
	vecs := make([]vec.Vector, 0, 16)
	for _, spec := range w.pool[:16] {
		vecs = append(vecs, spec.Vector)
	}
	vecLayers(r, m, w.items, vecs, float64(r.tot.self["msq.call"]))
	return nil
}

// codecProbe encodes and decodes the recorded requests and responses
// standalone, the way the wire package does (encoding/json over the wire
// structs), and returns the time per request (both messages, both
// directions) and the message sizes including the newline.
func codecProbe(pool []wire.QuerySpec, reqs []request) (us, reqBytes, respBytes float64, err error) {
	if len(reqs) > 500 {
		reqs = reqs[:500]
	}
	begin := time.Now()
	for _, q := range reqs {
		rb, err := json.Marshal(wire.Request{Op: wire.OpQuery, Queries: []wire.QuerySpec{pool[q.idx]}})
		if err != nil {
			return 0, 0, 0, err
		}
		if err := json.Unmarshal(rb, &wire.Request{}); err != nil {
			return 0, 0, 0, err
		}
		pb, err := json.Marshal(wire.Response{Answers: [][]wire.Answer{q.answers}, Stats: q.stats})
		if err != nil {
			return 0, 0, 0, err
		}
		if err := json.Unmarshal(pb, &wire.Response{}); err != nil {
			return 0, 0, 0, err
		}
		reqBytes += float64(len(rb) + 1)
		respBytes += float64(len(pb) + 1)
	}
	n := float64(len(reqs))
	return float64(time.Since(begin)) / 1e3 / n, reqBytes / n, respBytes / n, nil
}
