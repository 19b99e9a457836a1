package wire

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"metricdb/internal/admit"
	"metricdb/internal/dataset"
	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/scan"
	"metricdb/internal/vec"
)

// slowWireMetric delays each distance evaluation so block execution is
// long enough for concurrent arrivals to pile up behind the former.
type slowWireMetric struct {
	delay time.Duration
}

func (m slowWireMetric) Distance(a, b vec.Vector) float64 {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	return vec.Euclidean{}.Distance(a, b)
}

func (slowWireMetric) Name() string { return "slow-euclidean" }

// TestAdmissionOverloadEndToEnd saturates an admission-controlled loopback
// server well past its queue limit from independent connections and checks
// the whole overload contract at once: shed requests come back as
// structured overload errors with positive retry-after hints, admitted
// requests return answers bit-identical to the unbatched sequential
// reference at coverage 1, and the batch
// former actually groups independent callers into blocks wider than one.
func TestAdmissionOverloadEndToEnd(t *testing.T) {
	const (
		n, dim  = 256, 4
		callers = 32
	)
	items := dataset.Uniform(11, n, dim)
	eng, err := scan.New(items, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := msq.New(eng, slowWireMetric{delay: 20 * time.Microsecond}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithConfig(proc, ServerConfig{
		Admit: &admit.Config{
			MaxQueue: 8,
			MaxWidth: 8,
			MaxWait:  20 * time.Millisecond,
			// The saturation target here is the bounded queue, not the
			// deadline: a generous SLO keeps slow-engine blocks (the
			// race detector stretches the per-distance sleeps) from
			// turning admitted members into deadline sheds.
			DefaultSLO: 30 * time.Second,
			Pressure:   func() float64 { return 1 }, // always aim for MaxWidth
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis) //nolint:errcheck // ends with net.ErrClosed on shutdown
	t.Cleanup(func() { srv.Close() })
	addr := lis.Addr().String()

	// Reference answers from the unbatched sequential path on the same
	// processor (Single does not go through admission).
	refProc, err := msq.New(eng, slowWireMetric{}, msq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]QuerySpec, callers)
	refs := make([][]query.Answer, callers)
	for i := range queries {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64((i*7+j*3)%100) / 100
		}
		// Caller-side IDs deliberately collide: each connection is an
		// independent caller, and the controller must renumber.
		queries[i] = QuerySpec{ID: 7, Vector: v, Kind: "knn", K: 5}
		l, _, err := refProc.Single(vec.Vector(v), query.NewKNN(5))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = l.Answers()
	}

	type outcome struct {
		answers []Answer
		stats   Stats
		shed    bool
		hintOK  bool
		err     error
	}
	outcomes := make([]outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			defer c.Close()
			answers, stats, err := c.Query(queries[i])
			if err != nil {
				var se *ServerError
				if errors.As(err, &se) && se.Code == CodeOverload {
					outcomes[i] = outcome{shed: true, hintOK: se.RetryAfter > 0}
					return
				}
				outcomes[i] = outcome{err: err}
				return
			}
			outcomes[i] = outcome{answers: answers, stats: stats}
		}(i)
	}
	wg.Wait()

	admitted, shed, maxWidth := 0, 0, 0
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			t.Fatalf("caller %d: unexpected error %v", i, o.err)
		case o.shed:
			shed++
			if !o.hintOK {
				t.Fatalf("caller %d: overload shed without positive retry-after hint", i)
			}
		default:
			admitted++
			if len(o.answers) != len(refs[i]) {
				t.Fatalf("caller %d: %d answers, want %d", i, len(o.answers), len(refs[i]))
			}
			for j, a := range o.answers {
				// Bit-identical: exact equality, no tolerance.
				if a.ID != uint64(refs[i][j].ID) || a.Dist != refs[i][j].Dist {
					t.Fatalf("caller %d answer %d: (%d, %v) differs from sequential reference (%d, %v)",
						i, j, a.ID, a.Dist, refs[i][j].ID, refs[i][j].Dist)
				}
			}
			if o.stats.Coverage != 1 {
				t.Fatalf("caller %d: coverage %v, want 1", i, o.stats.Coverage)
			}
			if o.stats.BatchWidth > maxWidth {
				maxWidth = o.stats.BatchWidth
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no request admitted under overload")
	}
	if shed == 0 {
		t.Fatalf("%d callers through an 8-slot queue with a slow engine: expected sheds", callers)
	}
	if maxWidth <= 1 {
		t.Fatalf("no cross-caller block wider than 1 (max width %d)", maxWidth)
	}
	if got := srv.ShedCount(); got != int64(shed) {
		t.Errorf("server ShedCount = %d, clients saw %d sheds", got, shed)
	}
	adm := srv.Admitter()
	if adm == nil {
		t.Fatal("admission-configured server reports nil Admitter")
	}
	if got := adm.Admitted(); got != int64(admitted) {
		t.Errorf("controller Admitted = %d, clients saw %d successes", got, admitted)
	}
}
