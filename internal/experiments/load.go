package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/msq"
	"metricdb/internal/report"
	"metricdb/internal/vec"
	"metricdb/internal/wire"
)

// The load experiment is the end-to-end heavy-traffic proof for the
// admission-control layer: an open-loop generator drives a wire server
// with cross-caller batch forming through ramp, spike and
// sustained-overload profiles and records latency percentiles, shed rate
// and achieved batch width into BENCH_load.json.
//
// Rates are expressed relative to the server's own calibrated sequential
// capacity (measured on an identical server without admission control), so
// the profiles mean the same thing on a laptop and a loaded CI runner: the
// overload profile offers 3x what the server can serve sequentially,
// whatever that is in absolute QPS. The judged verdicts are scale-free:
// `identical` (every admitted answer bit-identical to the unbatched
// sequential reference) and `stable` (admitted p95 within the SLO, every
// overload shed structured with a retry-after hint, no unexpected errors —
// plus, under sustained overload, sheds actually happening and achieved
// batch width > 1 across independent callers); the run fails without them,
// and TestCommittedLoadArtifactHoldsTheSLO holds the committed file to
// them. Absolute latencies and rates are recorded for inspection.

// LoadProfileSpec is one traffic profile: an offered rate as a multiple of
// the calibrated capacity, sustained for a number of open-loop arrivals.
type LoadProfileSpec struct {
	Name     string
	RateXCap float64
	Arrivals int
}

// LoadConfig tunes the load experiment. The zero value selects defaults
// sized for a seconds-long CI run.
type LoadConfig struct {
	// QueryPool is the number of distinct queries the generator cycles
	// through (default 64).
	QueryPool int
	// MaxQueue, MaxWidth and MaxWait configure the server's admission
	// controller (defaults 128, 16, admit.DefaultMaxWait).
	MaxQueue int
	MaxWidth int
	MaxWait  time.Duration
	// SLOFactor sets the request deadline as a multiple of the calibrated
	// per-query sequential service time (default 50), clamped to
	// [25ms, 500ms].
	SLOFactor float64
	// Profiles overrides the default ramp/spike/overload sequence.
	Profiles []LoadProfileSpec
	// Seed varies the query pool (default 1).
	Seed int64
}

func (c *LoadConfig) withDefaults() {
	if c.QueryPool == 0 {
		c.QueryPool = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 128
	}
	if c.MaxWidth == 0 {
		c.MaxWidth = 16
	}
	if c.SLOFactor == 0 {
		c.SLOFactor = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Profiles) == 0 {
		c.Profiles = []LoadProfileSpec{
			{Name: "ramp", RateXCap: 0.6, Arrivals: 400},
			{Name: "spike", RateXCap: 2.5, Arrivals: 300},
			{Name: "overload", RateXCap: 3.0, Arrivals: 1000},
		}
	}
}

// LoadRun is one profile's measurements and verdicts.
type LoadRun struct {
	Profile  string  `json:"profile"`
	RateXCap float64 `json:"rate_x_capacity"`
	Arrivals int     `json:"arrivals"`
	Admitted int     `json:"admitted"`
	Shed     int     `json:"shed"`
	// ShedRate is Shed / Arrivals.
	ShedRate float64 `json:"shed_rate"`
	// ErrorsOther counts responses that were neither success nor a
	// structured overload shed — the stable verdict requires zero.
	ErrorsOther int `json:"errors_other"`
	// Latency percentiles over admitted requests in milliseconds, taken
	// from the server's own in-system measurement (admission queue wait +
	// batch linger + block execution — the time the SLO governs).
	// Wall-clock values: recorded for inspection, not judged across
	// machines; only the derived Stable verdict is judged.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// ClientP95Ms is the client-observed round-trip p95 over admitted
	// requests. On a machine where generator and server share cores it
	// includes scheduling delay the admission controller cannot govern,
	// so it is recorded for inspection only.
	ClientP95Ms float64 `json:"client_p95_ms"`
	// AvgWidth is the mean batch width over admitted requests; MaxWidth
	// is the widest block any admitted request rode in.
	AvgWidth float64 `json:"avg_width"`
	MaxWidth int     `json:"max_width"`
	// RetryAfterHints reports whether every overload shed carried a
	// positive retry-after hint.
	RetryAfterHints bool `json:"retry_after_hints"`
	// Identical: every admitted answer matched the unbatched sequential
	// reference bit for bit.
	Identical bool `json:"identical"`
	// Stable: admitted p95 within the SLO, all sheds structured with
	// hints, no unexpected errors; under sustained overload additionally
	// sheds > 0 and achieved width > 1.
	Stable bool `json:"stable"`
}

// LoadResult is the load experiment's result document.
type LoadResult struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Dim      int    `json:"dim"`
	// CapacityQPS is the calibrated sequential service rate the profile
	// rates are multiples of (machine-dependent, not judged).
	CapacityQPS float64 `json:"capacity_qps"`
	// SLOMs is the per-request deadline budget derived from calibration.
	SLOMs    float64   `json:"slo_ms"`
	MaxQueue int       `json:"max_queue"`
	MaxWidth int       `json:"max_width_config"`
	Runs     []LoadRun `json:"runs"`
}

// loadHarness is the running experiment: two loopback servers over
// identically built engines — plain for calibration, admission-controlled
// for the load profiles — plus the query pool and its reference answers.
type loadHarness struct {
	cfg     LoadConfig
	specs   []wire.QuerySpec
	ref     [][]wire.Answer
	sloMs   int64
	admAddr string
	pool    chan *wire.Client
	servers []*wire.Server
}

func (l *loadHarness) close() {
	for {
		select {
		case c := <-l.pool:
			c.Close() //nolint:errcheck
		default:
			for _, s := range l.servers {
				s.Close() //nolint:errcheck
			}
			return
		}
	}
}

// startServer builds a fresh engine over w and serves it on loopback.
func startServer(w Workload, scfg wire.ServerConfig) (*wire.Server, string, error) {
	eng, err := ScanMaker(w).Make()
	if err != nil {
		return nil, "", err
	}
	proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidBoth})
	if err != nil {
		return nil, "", err
	}
	srv, err := wire.NewServerWithConfig(proc, scfg)
	if err != nil {
		return nil, "", err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(lis) //nolint:errcheck
	return srv, lis.Addr().String(), nil
}

// RunLoad runs the load experiment over w.
func RunLoad(w Workload, cfg LoadConfig) (*LoadResult, error) {
	cfg.withDefaults()

	queries, err := w.Queries(cfg.Seed+57, cfg.QueryPool)
	if err != nil {
		return nil, err
	}
	specs := wire.Specs(queries)

	// Unbatched sequential reference answers on an identically built
	// engine: the bit-identity yardstick for every admitted response.
	refEng, err := ScanMaker(w).Make()
	if err != nil {
		return nil, err
	}
	refProc, err := msq.New(refEng, vec.Euclidean{}, msq.Options{})
	if err != nil {
		return nil, err
	}
	ref := make([][]wire.Answer, len(queries))
	for i, q := range queries {
		l, _, err := refProc.Single(q.Vec, q.Type)
		if err != nil {
			return nil, err
		}
		for _, a := range l.Answers() {
			ref[i] = append(ref[i], wire.Answer{ID: uint64(a.ID), Dist: a.Dist})
		}
	}

	h := &loadHarness{cfg: cfg, specs: specs, ref: ref, pool: make(chan *wire.Client, 256)}
	defer h.close()

	// Calibration server: no admission control, so the closed loop
	// measures raw sequential service time including the wire codec.
	calSrv, calAddr, err := startServer(w, wire.ServerConfig{WriteTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	h.servers = append(h.servers, calSrv)
	perQuery, err := h.calibrate(calAddr)
	if err != nil {
		return nil, err
	}
	capacity := float64(time.Second) / float64(perQuery)

	// The floor is what a deadline has to cover besides the query: a block
	// of MaxWidth forming and running while the open-loop clients — in this
	// process, on the same cores — encode and decode thousands of requests
	// a second. With a sequential query at 0.3 ms, 50 of them are 15 ms, a
	// 14-wide block under that contention is 5-8 ms of wall time, and the
	// release gate (twice the prediction) sheds every block it forms.
	slo := time.Duration(cfg.SLOFactor * float64(perQuery))
	if slo < 25*time.Millisecond {
		slo = 25 * time.Millisecond
	}
	if slo > 500*time.Millisecond {
		slo = 500 * time.Millisecond
	}
	h.sloMs = slo.Milliseconds()

	admSrv, admAddr, err := startServer(w, wire.ServerConfig{
		WriteTimeout: 10 * time.Second,
		Admit: &admit.Config{
			MaxQueue: cfg.MaxQueue,
			MaxWidth: cfg.MaxWidth,
			MaxWait:  cfg.MaxWait,
		},
	})
	if err != nil {
		return nil, err
	}
	h.servers = append(h.servers, admSrv)
	h.admAddr = admAddr

	// Prewarm the connection pool so the profiles measure request service,
	// not a dial storm at first arrival.
	for i := 0; i < 64; i++ {
		c, err := wire.Dial(admAddr)
		if err != nil {
			return nil, err
		}
		h.putClient(c)
	}

	result := &LoadResult{
		Workload:    w.Name,
		N:           len(w.Items),
		Dim:         w.Dim,
		CapacityQPS: capacity,
		SLOMs:       float64(h.sloMs),
		MaxQueue:    cfg.MaxQueue,
		MaxWidth:    cfg.MaxWidth,
	}
	for _, p := range cfg.Profiles {
		run, err := h.runProfile(p, capacity, slo)
		if err != nil {
			return nil, fmt.Errorf("experiments: load profile %s: %w", p.Name, err)
		}
		result.Runs = append(result.Runs, run)
	}
	return result, nil
}

// calibrate measures the sequential per-query service time through the
// wire: a short warm-up (cold buffer pool), then a closed-loop pass over
// the query pool.
func (h *loadHarness) calibrate(addr string) (time.Duration, error) {
	client, err := wire.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	warm := len(h.specs) / 2
	for i := 0; i < warm; i++ {
		if _, _, err := client.Query(h.specs[i%len(h.specs)]); err != nil {
			return 0, err
		}
	}
	const measured = 128
	start := time.Now()
	for i := 0; i < measured; i++ {
		if _, _, err := client.Query(h.specs[i%len(h.specs)]); err != nil {
			return 0, err
		}
	}
	per := time.Since(start) / measured
	if per <= 0 {
		per = time.Microsecond
	}
	return per, nil
}

// arrivalOutcome is one open-loop request's classified result.
type arrivalOutcome struct {
	latency      time.Duration // client-observed round trip
	service      time.Duration // server-measured in-system time
	width        int
	admitted     bool
	shed         bool
	retryAfterOK bool
	identical    bool
	otherErr     bool
}

// runProfile offers arrivals at rate.RateXCap times the calibrated
// capacity, open loop: arrivals are launched on schedule regardless of how
// many requests are still in flight — exactly the regime admission control
// exists for.
func (h *loadHarness) runProfile(p LoadProfileSpec, capacity float64, slo time.Duration) (LoadRun, error) {
	rate := p.RateXCap * capacity
	if rate <= 0 {
		return LoadRun{}, fmt.Errorf("non-positive offered rate")
	}
	interval := time.Duration(float64(time.Second) / rate)
	outcomes := make([]arrivalOutcome, p.Arrivals)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < p.Arrivals; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = h.oneRequest(i % len(h.specs))
		}(i)
	}
	wg.Wait()

	run := LoadRun{
		Profile:         p.Name,
		RateXCap:        p.RateXCap,
		Arrivals:        p.Arrivals,
		RetryAfterHints: true,
		Identical:       true,
	}
	var services, latencies []time.Duration
	var widthSum int64
	for _, o := range outcomes {
		switch {
		case o.admitted:
			run.Admitted++
			services = append(services, o.service)
			latencies = append(latencies, o.latency)
			widthSum += int64(o.width)
			if o.width > run.MaxWidth {
				run.MaxWidth = o.width
			}
			if !o.identical {
				run.Identical = false
			}
		case o.shed:
			run.Shed++
			if !o.retryAfterOK {
				run.RetryAfterHints = false
			}
		default:
			run.ErrorsOther++
		}
	}
	run.ShedRate = float64(run.Shed) / float64(p.Arrivals)
	if run.Admitted > 0 {
		sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		run.P50Ms = ms(percentile(services, 0.50))
		run.P95Ms = ms(percentile(services, 0.95))
		run.P99Ms = ms(percentile(services, 0.99))
		run.ClientP95Ms = ms(percentile(latencies, 0.95))
		run.AvgWidth = float64(widthSum) / float64(run.Admitted)
	}
	run.Stable = run.Admitted > 0 &&
		run.ErrorsOther == 0 &&
		run.RetryAfterHints &&
		run.P95Ms <= float64(slo.Milliseconds())
	if p.Name == "overload" {
		// The acceptance criterion for sustained overload: the server
		// sheds early rather than collapsing, and independent callers'
		// queries actually share blocks.
		run.Stable = run.Stable && run.Shed > 0 && run.AvgWidth > 1
	}
	return run, nil
}

// oneRequest sends one deadline-carrying single query and classifies the
// outcome. Connections are pooled; a transport failure discards the
// connection instead of returning it.
func (h *loadHarness) oneRequest(qi int) arrivalOutcome {
	client, err := h.getClient()
	if err != nil {
		return arrivalOutcome{otherErr: true}
	}
	req := wire.Request{Op: wire.OpQuery, Queries: []wire.QuerySpec{h.specs[qi]}, DeadlineMs: h.sloMs}
	start := time.Now()
	resp, err := client.DoContext(context.Background(), req)
	latency := time.Since(start)
	if err != nil {
		var se *wire.ServerError
		if errors.As(err, &se) {
			h.putClient(client) // structured response: connection is fine
			if se.Code == wire.CodeOverload {
				return arrivalOutcome{latency: latency, shed: true, retryAfterOK: se.RetryAfter > 0}
			}
			return arrivalOutcome{latency: latency, otherErr: true}
		}
		client.Close() //nolint:errcheck
		return arrivalOutcome{latency: latency, otherErr: true}
	}
	h.putClient(client)
	if len(resp.Answers) != 1 {
		return arrivalOutcome{latency: latency, otherErr: true}
	}
	return arrivalOutcome{
		latency:   latency,
		service:   time.Duration(resp.Stats.ServiceUs) * time.Microsecond,
		width:     resp.Stats.BatchWidth,
		admitted:  true,
		identical: slices.Equal(h.ref[qi], resp.Answers[0]),
	}
}

func (h *loadHarness) getClient() (*wire.Client, error) {
	select {
	case c := <-h.pool:
		return c, nil
	default:
		return wire.Dial(h.admAddr)
	}
}

func (h *loadHarness) putClient(c *wire.Client) {
	select {
	case h.pool <- c:
	default:
		c.Close() //nolint:errcheck
	}
}

// percentile reads the p-quantile from sorted latencies (nearest rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Figure renders shed rate, achieved batch width and admitted p95 against
// the offered rate (as a multiple of calibrated capacity).
func (r *LoadResult) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Admission control under open-loop load (%s database, capacity %.0f qps, SLO %.0f ms)", r.Workload, r.CapacityQPS, r.SLOMs),
		XLabel: "offered rate (x capacity)",
		YLabel: "rate / width / ms",
	}
	var shed, width, p95 []float64
	for _, run := range r.Runs {
		fig.XVals = append(fig.XVals, run.RateXCap)
		shed = append(shed, run.ShedRate)
		width = append(width, run.AvgWidth)
		p95 = append(p95, run.P95Ms)
	}
	fig.AddSeries("shed rate", shed)      //nolint:errcheck // lengths match by construction
	fig.AddSeries("batch width", width)   //nolint:errcheck
	fig.AddSeries("admitted p95 ms", p95) //nolint:errcheck
	return fig
}

// WriteLoadJSON writes the result as an indented JSON document (the
// BENCH_load.json artifact).
func WriteLoadJSON(w io.Writer, result *LoadResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(result)
}

// WriteLoadJSONFile writes the artifact to path.
func WriteLoadJSONFile(path string, result *LoadResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteLoadJSON(f, result); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
