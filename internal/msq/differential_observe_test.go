package msq

import (
	"fmt"
	"testing"

	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// The observation differential pins that watching a batch changes nothing
// about it. There is one page pass and observers ride it (pass.go), so for
// every engine × item placement × avoidance mode × width (runDifferential), running with a
// tracer, under EXPLAIN, or both must leave answers, the full Stats record,
// disk I/O and buffer hit/miss counts bit-identical to the unobserved run —
// and what the observers report must add up: the per-query profiles sum to
// the batch Stats, and a run over contiguous items ("soa",
// contiguousMakers) reports the profiles of the run over the items as built.

// observedRun is a diffRun plus what its observers saw.
type observedRun struct {
	diffRun
	engine string
	tr     *obs.Tracer // nil unless traced
	ex     *Explain    // nil unless explained
}

func runObserved(t *testing.T, mk diffMaker, m vec.Metric, opts Options, width int, traced, explained bool, items []store.Item, dim int, queries []Query) observedRun {
	t.Helper()
	eng := mk.make(t, items, dim, m)
	proc, err := New(eng, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	proc = proc.WithConcurrency(width)
	r := observedRun{engine: eng.Name()}
	if traced {
		r.tr = obs.New(obs.Config{SlowQueryThreshold: -1})
		proc = proc.WithTracer(r.tr)
	}
	s := proc.NewSession()
	if explained {
		if r.ex, err = s.ExplainAllContext(t.Context(), queries); err != nil {
			t.Fatal(err)
		}
		r.stats = r.ex.Stats
	}
	// After an EXPLAIN every query is done, so this call only hands back
	// the session's buffered lists; otherwise it is the run itself.
	lists, stats, err := s.MultiQueryAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !explained {
		r.stats = stats
	}
	r.io = eng.Pager().Disk().Stats()
	for _, l := range lists {
		r.answers = append(r.answers, append([]query.Answer(nil), l.Answers()...))
	}
	if buf := eng.Pager().Buffer(); buf != nil {
		r.hits, r.misses, _ = buf.HitRate()
	}
	return r
}

func TestDifferentialObservation(t *testing.T) {
	const dim = 4
	items := testDB(31, 300, dim)
	queries := diffBatch(dim, 32)
	m := vec.Euclidean{}
	layouts := []struct {
		name   string
		makers []diffMaker
	}{
		{"aos", diffMakers()},
		{"soa", contiguousMakers()},
	}
	observers := []struct {
		name              string
		traced, explained bool
	}{
		{"tracer", true, false},
		{"explain", false, true},
		{"tracer+explain", true, true},
	}
	// aosProfiles remembers each AoS configuration's EXPLAIN profiles for
	// the SoA run of the same configuration to match.
	aosProfiles := map[string][]Profile{}

	for _, lay := range layouts {
		for _, mk := range lay.makers {
			for _, mode := range []AvoidanceMode{AvoidBoth, AvoidOff} {
				for _, width := range []int{1, 2, 8} {
					cfg := fmt.Sprintf("%s/%s/w%d", mk.name, mode, width)
					t.Run(lay.name+"/"+cfg, func(t *testing.T) {
						opts := Options{Avoidance: mode}
						bare := runObserved(t, mk, m, opts, width, false, false, items, dim, queries)
						for _, o := range observers {
							r := runObserved(t, mk, m, opts, width, o.traced, o.explained, items, dim, queries)
							if diag, ok := identicalAnswers(bare.answers, r.answers); !ok {
								t.Errorf("%s: answers differ from the unobserved run: %s", o.name, diag)
							}
							if r.stats != bare.stats {
								t.Errorf("%s: stats differ:\n  unobserved: %+v\n  observed:   %+v", o.name, bare.stats, r.stats)
							}
							if r.io != bare.io {
								t.Errorf("%s: disk stats %+v, unobserved %+v", o.name, r.io, bare.io)
							}
							if r.hits != bare.hits || r.misses != bare.misses {
								t.Errorf("%s: buffer hits/misses %d/%d, unobserved %d/%d",
									o.name, r.hits, r.misses, bare.hits, bare.misses)
							}
							if r.tr != nil {
								checkTracerSawRun(t, o.name, r.tr)
							}
							if r.ex != nil {
								checkProfiles(t, o.name, r, queries, opts)
								want, haveAoS := aosProfiles[cfg] // absent when -run selects soa alone
								if lay.name == "aos" {
									aosProfiles[cfg] = r.ex.Queries
								} else if diag := sameProfiles(want, r.ex.Queries); haveAoS && diag != "" {
									t.Errorf("%s: profiles differ from the aos run: %s", o.name, diag)
								}
							}
						}
					})
				}
			}
		}
	}
}

// checkTracerSawRun requires the tracer to have actually observed the run:
// the call itself, page waits and page passes.
func checkTracerSawRun(t *testing.T, name string, tr *obs.Tracer) {
	t.Helper()
	if tr.Queries() == 0 {
		t.Errorf("%s: tracer recorded no query calls", name)
	}
	if tr.Snapshot(obs.PhaseKernel).Count == 0 {
		t.Errorf("%s: tracer recorded no kernel spans", name)
	}
	if tr.Snapshot(obs.PhasePageWait).Count == 0 {
		t.Errorf("%s: tracer recorded no page_wait spans", name)
	}
}

// checkProfiles requires the EXPLAIN to describe the run it profiled: the
// right header, one profile per query with its answer count, and per-query
// counters that sum to the batch Stats.
func checkProfiles(t *testing.T, name string, r observedRun, queries []Query, opts Options) {
	t.Helper()
	ex := r.ex
	if ex.Engine != r.engine || ex.Avoidance != opts.Avoidance.String() {
		t.Errorf("%s: header says engine %s, avoidance %s", name, ex.Engine, ex.Avoidance)
	}
	if len(ex.Queries) != len(queries) {
		t.Fatalf("%s: %d profiles for %d queries", name, len(ex.Queries), len(queries))
	}
	var sum Stats
	var lemma1, lemma2 int64
	for i, p := range ex.Queries {
		if p.ID != queries[i].ID {
			t.Errorf("%s: profile %d has id %d, want %d", name, i, p.ID, queries[i].ID)
		}
		if p.Answers != len(r.answers[i]) {
			t.Errorf("%s: query %d: profile reports %d answers, the run found %d", name, p.ID, p.Answers, len(r.answers[i]))
		}
		if p.PagesVisited <= 0 {
			t.Errorf("%s: query %d visited no pages", name, p.ID)
		}
		sum.PageVisits += p.PagesVisited
		sum.DistCalcs += p.DistCalcs
		sum.PartialAbandoned += p.Abandoned
		sum.AvoidTries += p.AvoidTries
		lemma1 += p.Lemma1Avoided
		lemma2 += p.Lemma2Avoided
	}
	sum.Avoided = lemma1 + lemma2
	want := Stats{
		PageVisits:       ex.Stats.PageVisits,
		DistCalcs:        ex.Stats.DistCalcs,
		PartialAbandoned: ex.Stats.PartialAbandoned,
		AvoidTries:       ex.Stats.AvoidTries,
		Avoided:          ex.Stats.Avoided,
	}
	if sum != want {
		t.Errorf("%s: profiles sum to\n  %+v\nbatch counted\n  %+v", name, sum, want)
	}
}

// sameProfiles compares two runs' per-query profiles field by field.
func sameProfiles(want, got []Profile) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d profiles vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("query %d:\n  aos: %+v\n  soa: %+v", i, want[i], got[i])
		}
	}
	return ""
}
