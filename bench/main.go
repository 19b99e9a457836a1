// Command bench is metricdb's wall-clock benchmark: four workloads, each
// measured end to end with tracing off and layer by layer from a traced run,
// every answer checked against an oracle. See README.md.
//
// With -workload it runs one workload in this process and prints, as the
// last line of standard output, the JSON result the benchmark contract
// defines. Without it, it runs every workload in a child process of its own
// (so CPU time and peak memory are per workload), first untraced and then
// traced, and prints every metric by name with its unit; -aa repeats that
// and prints the run-to-run spread of every end-to-end metric.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// logw receives diagnostics; results go to standard output.
var logw io.Writer = os.Stderr

// digestsJSON holds, per GOARCH and workload, the fingerprints of the inputs and of
// the answers for seed 1 at full size.
//
//go:embed digests.json
var digestsJSON []byte

// newWorkload returns the named workload; dir is where it may write files.
func newWorkload(name, dir string) (workload, error) {
	switch name {
	case "batch_knn_scan":
		return &batchKNNScan{}, nil
	case "dbscan_xtree":
		return &dbscanXTree{}, nil
	case "engines_lowdim":
		return &enginesLowDim{}, nil
	case "serve_stored":
		return &serveStored{dir: dir}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in-process; empty runs all, each in a child process")
		seed     = flag.Int64("seed", 1, "seed all inputs are generated from")
		seconds  = flag.Float64("seconds", 12, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
		quick    = flag.Bool("quick", false, "small inputs (what the test uses); digests are not compared")
		aa       = flag.Int("aa", 0, "repeat the whole benchmark this many times, stepping the seed, and print the spread of every end-to-end metric")
		outDir   = flag.String("out", defaultOut(), "directory for traces and scratch data")
		printDoc = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *quick, *aa, *outDir, *printDoc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// defaultOut is bench/out from the repository root and out from bench/.
func defaultOut() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func run(name string, seed int64, seconds float64, trace int, quick bool, aa int, outDir string, printDoc bool) error {
	switch {
	case printDoc:
		doc, err := manifest(int(seconds))
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	case name == "":
		return runAll(seed, seconds, quick, aa, outDir)
	}
	res, err := runWorkload(name, seed, seconds, trace, quick, outDir)
	if err != nil {
		return err
	}
	decls := endToEnd
	if trace == 1 {
		decls = perLayer
	}
	for _, d := range decls {
		fmt.Printf("%-16s %-36s %14.6g %s\n", name, d.name, res.metrics[d.name], d.unit)
	}
	if trace == 0 {
		// What the wall clock read, before the reference-kernel clock
		// took the machine's speed out; raw.clock_rate is reference seconds
		// per wall-clock second (1 = the reference runner at rest).
		for _, raw := range []string{"raw.setup_s", "raw.queries_per_s", "raw.op_ms_p50", "raw.op_ms_p90", "raw.cpu_ms_per_query", "raw.clock_rate"} {
			fmt.Printf("%-16s %-36s %14.6g\n", name, raw, res.metrics[raw])
		}
	}
	fmt.Printf("%-16s %-36s %14d of %d ops\n", name, "failed", res.failed, res.attempted)
	fmt.Printf("%-16s %-36s %016x\n", name, "inputs_digest", res.inputsDigest)
	fmt.Printf("%-16s %-36s %016x\n", name, "answers_digest", res.answersDigest)
	line, err := resultLine(res, decls)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.correct {
		return fmt.Errorf("bench: %s: answers are wrong (%d of %d operations failed, or a digest differs)", name, res.failed, res.attempted)
	}
	return nil
}

// runWorkload runs one workload in this process and judges its answers.
func runWorkload(name string, seed int64, seconds float64, trace int, quick bool, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch data
	w, err := newWorkload(name, dir)
	if err != nil {
		return nil, err
	}
	var res *result
	if trace == 1 {
		res, err = runTraced(w, name, seed, quick, seconds, outDir)
	} else {
		res, err = runEndToEnd(w, seed, quick, seconds)
	}
	if err != nil {
		return nil, err
	}
	if seed == 1 && !quick {
		// Keyed by GOARCH first: an architecture that fuses multiply and
		// add rounds the coordinates and distances differently.
		var want map[string]map[string]struct{ Inputs, Answers string }
		if err := json.Unmarshal(digestsJSON, &want); err != nil {
			return nil, fmt.Errorf("bench: digests.json: %w", err)
		}
		d, ok := want[runtime.GOARCH][name]
		if !ok {
			fmt.Fprintf(logw, "bench: %s: digests.json has no digests for %s; not compared\n", name, runtime.GOARCH)
			return res, nil
		}
		if got := fmt.Sprintf("%016x", res.inputsDigest); got != d.Inputs {
			fmt.Fprintf(logw, "bench: %s: inputs digest %s, digests.json has %s\n", name, got, d.Inputs)
			res.correct = false
		}
		if got := fmt.Sprintf("%016x", res.answersDigest); got != d.Answers {
			fmt.Fprintf(logw, "bench: %s: answers digest %s, digests.json has %s\n", name, got, d.Answers)
			res.correct = false
		}
	}
	return res, nil
}

// runAll runs every workload untraced and traced, each run in a child
// process of this command, relaying what the children print. With aa > 0
// it does so aa times, each time with the next seed, and then prints, per
// workload and end-to-end metric, the median and quartiles and their
// relative distance — the spread a bound is judged against.
func runAll(seed int64, seconds float64, quick bool, aa int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	reps := max(aa, 1)
	values := map[string][]float64{} // "workload metric" → one value per repetition
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloadWhy {
			for trace := 0; trace <= 1; trace++ {
				args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed+int64(rep), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir}
				if quick {
					args = append(args, "-quick")
				}
				var out bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Stdout = io.MultiWriter(os.Stdout, &out)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("bench: %s (trace %d): %w", w.name, trace, err)
				}
				if trace == 1 {
					continue
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					return fmt.Errorf("bench: %s: result line: %w", w.name, err)
				}
				for m, v := range last.Metrics {
					values[w.name+" "+m] = append(values[w.name+" "+m], v.Value)
				}
			}
		}
	}
	if aa < 2 { // quartiles need two values
		return nil
	}
	fmt.Printf("\nA/A over %d repetitions (seeds %d to %d): median, quartiles, (q3-q1)/median\n", aa, seed, seed+int64(aa)-1)
	for _, w := range workloadWhy {
		for _, d := range endToEnd {
			vs := values[w.name+" "+d.name]
			q1, med, q3 := pyQuartile(vs, 1), pyQuartile(vs, 2), pyQuartile(vs, 3)
			fmt.Printf("%-16s %-20s %12.6g [%12.6g, %12.6g] %6.3f  (bound %.2f)\n",
				w.name, d.name, med, q1, q3, (q3-q1)/med, d.bound)
		}
	}
	return nil
}

// pyQuartile is the i-th quartile the way Python's statistics.quantiles(xs,
// n=4) computes it (its default, exclusive method), which is what judges the
// benchmark's spreads. xs is sorted in place and needs two values or more.
func pyQuartile(xs []float64, i int) float64 {
	sort.Float64s(xs)
	n := len(xs)
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
}
