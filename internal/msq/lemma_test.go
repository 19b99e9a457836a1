package msq

import (
	"fmt"
	"math/rand"
	"testing"

	"metricdb/internal/query"
	"metricdb/internal/vec"
)

// Property-based soundness tests for the Lemma 1/2 avoidance: over random
// workloads, avoidance must never skip an object whose true distance is
// within the query distance (checked by comparing the avoided answers with
// both the unavoided answers and an exhaustive brute-force evaluation),
// and the computed and avoided calculations must exactly partition the
// work the AvoidOff run performs: DistCalcs + Avoided == off.DistCalcs.

// randomWorkload draws dataset dimensions and a mixed query batch from rng.
func randomWorkload(rng *rand.Rand) (queries []Query, n, dim int) {
	n = 80 + rng.Intn(240)
	dim = 2 + rng.Intn(5)
	queries = make([]Query, 3+rng.Intn(5))
	for i := range queries {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		var tp query.Type
		switch rng.Intn(3) {
		case 0:
			tp = query.NewKNN(1 + rng.Intn(12))
		case 1:
			tp = query.NewRange(0.2 + rng.Float64()*0.6)
		default:
			tp = query.NewBoundedKNN(1+rng.Intn(12), 0.3+rng.Float64()*0.6)
		}
		queries[i] = Query{ID: uint64(i), Vec: v, Type: tp}
	}
	return queries, n, dim
}

func TestLemmaSoundnessProperty(t *testing.T) {
	const rounds = 20
	seeds := rounds
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			queries, n, dim := randomWorkload(rng)
			items := testDB(int64(seed), n, dim)
			m := vec.Euclidean{}

			type outcome struct {
				answers [][]query.Answer
				stats   Stats
			}
			run := func(mode AvoidanceMode) outcome {
				var eng = scanEngine(t, items)
				if seed%2 == 1 {
					eng = xtreeEngine(t, items, dim)
				}
				proc, err := New(eng, m, Options{Avoidance: mode})
				if err != nil {
					t.Fatal(err)
				}
				lists, stats, err := proc.NewSession().MultiQueryAll(queries)
				if err != nil {
					t.Fatal(err)
				}
				var o outcome
				o.stats = stats
				for _, l := range lists {
					o.answers = append(o.answers, append([]query.Answer(nil), l.Answers()...))
				}
				return o
			}

			off := run(AvoidOff)
			for _, mode := range []AvoidanceMode{AvoidBoth, AvoidLemma1, AvoidLemma2} {
				o := run(mode)
				// Soundness: a wrongly avoided calculation would drop an
				// in-range object from some answer list.
				if diag, ok := identicalAnswers(off.answers, o.answers); !ok {
					t.Fatalf("mode %v: answers differ from AvoidOff: %s", mode, diag)
				}
				// Exactness of the accounting: every offered (item,
				// query) pair is either computed or avoided.
				if got := o.stats.DistCalcs + o.stats.Avoided; got != off.stats.DistCalcs {
					t.Errorf("mode %v: DistCalcs %d + Avoided %d = %d, want AvoidOff DistCalcs %d",
						mode, o.stats.DistCalcs, o.stats.Avoided, got, off.stats.DistCalcs)
				}
			}

			// Anchor against ground truth, independent of any processor
			// code path.
			for i, q := range queries {
				want := brute(items, m, q.Vec, q.Type)
				if !sameAnswers(off.answers[i], want) {
					t.Fatalf("query %d: AvoidOff answers disagree with brute force", i)
				}
			}
		})
	}
}
