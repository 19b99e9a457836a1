package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/report"
	"metricdb/internal/vec"
)

// The intra experiment measures the intra-server pipeline of internal/msq:
// wall-clock speedup of a multiple-similarity-query batch as the pipeline
// width grows, with the differential invariants (identical answers and
// identical page reads at every width) re-checked on the measured runs
// themselves. It is not a paper figure — the paper parallelizes across
// shared-nothing servers only — but quantifies the ROADMAP's "fast as the
// hardware allows" goal within one server.

// IntraResult is one (engine, width) measurement of an intra sweep.
type IntraResult struct {
	Workload  string  `json:"workload"`
	Engine    string  `json:"engine"`
	Width     int     `json:"width"`
	Seconds   float64 `json:"seconds"`
	Speedup   float64 `json:"speedup"` // wall-clock of width 1 over this width
	PagesRead int64   `json:"pages_read"`
	DistCalcs int64   `json:"dist_calcs"`
	// PartialAbandoned is the subset of DistCalcs the bounded kernels
	// resolved early (partial result already beyond the pruning bound).
	PartialAbandoned int64 `json:"partial_abandoned"`
	// Identical reports whether answers and page reads matched the
	// width-1 reference exactly; false flags a determinism regression.
	Identical bool `json:"identical"`
}

// IntraSweep is one workload's intra-server parallelism measurement.
type IntraSweep struct {
	Workload string        `json:"workload"`
	M        int           `json:"m"`
	Widths   []int         `json:"widths"`
	Results  []IntraResult `json:"results"`
}

// RunIntra sweeps the pipeline width over each engine for one m-query
// batch of w's workload. Every width runs the same batch on a freshly
// reset engine; the width-1 run is the reference the others are checked
// against.
func RunIntra(w Workload, widths []int, m int) (*IntraSweep, error) {
	queries, err := w.Queries(w.querySeed(), m)
	if err != nil {
		return nil, err
	}
	sweep := &IntraSweep{Workload: w.Name, M: m, Widths: widths}
	for _, maker := range []EngineMaker{ScanMaker(w), XTreeMaker(w)} {
		var ref []query.Answer
		var refPages int64
		for _, width := range widths {
			eng, err := maker.Make()
			if err != nil {
				return nil, err
			}
			proc, err := msq.New(eng, vec.Euclidean{}, msq.Options{Avoidance: msq.AvoidBoth, Concurrency: width})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			lists, stats, err := proc.NewSession().MultiQueryAll(queries)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start).Seconds()

			var flat []query.Answer
			for _, l := range lists {
				flat = append(flat, l.Answers()...)
			}
			res := IntraResult{
				Workload:         w.Name,
				Engine:           maker.Name,
				Width:            width,
				Seconds:          elapsed,
				PagesRead:        stats.PagesRead,
				DistCalcs:        stats.DistCalcs,
				PartialAbandoned: stats.PartialAbandoned,
				Identical:        true,
			}
			if width == widths[0] {
				ref, refPages = flat, stats.PagesRead
				res.Speedup = 1
			} else {
				res.Speedup = sweep.resultFor(maker.Name, widths[0]).Seconds / elapsed
				res.Identical = stats.PagesRead == refPages && slices.Equal(ref, flat)
			}
			sweep.Results = append(sweep.Results, res)
		}
	}
	return sweep, nil
}

func (s *IntraSweep) resultFor(engine string, width int) IntraResult {
	for _, r := range s.Results {
		if r.Engine == engine && r.Width == width {
			return r
		}
	}
	return IntraResult{Seconds: 1}
}

// Figure renders the sweep as speedup-vs-width curves, one series per
// engine.
func (s *IntraSweep) Figure() *report.Figure {
	fig := &report.Figure{
		Title:  fmt.Sprintf("Intra-server speed-up wrt pipeline width (%s database, m=%d)", s.Workload, s.M),
		XLabel: "pipeline width (goroutines)",
		YLabel: "speed-up over sequential",
	}
	for _, x := range s.Widths {
		fig.XVals = append(fig.XVals, float64(x))
	}
	byEngine := map[string][]float64{}
	var order []string
	for _, r := range s.Results {
		if _, ok := byEngine[r.Engine]; !ok {
			order = append(order, r.Engine)
		}
		byEngine[r.Engine] = append(byEngine[r.Engine], r.Speedup)
	}
	for _, name := range order {
		fig.AddSeries(name, byEngine[name]) //nolint:errcheck // lengths match by construction
	}
	return fig
}

// WriteIntraJSON writes the sweeps as an indented JSON document (the
// BENCH_parallel_intra.json artifact).
func WriteIntraJSON(w io.Writer, sweeps []*IntraSweep) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sweeps)
}

// WriteIntraJSONFile writes the artifact to path.
func WriteIntraJSONFile(path string, sweeps []*IntraSweep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteIntraJSON(f, sweeps); err != nil {
		f.Close() //nolint:errcheck // write error takes precedence
		return err
	}
	return f.Close()
}
