package query

import (
	"slices"

	"metricdb/internal/store"
	"metricdb/internal/vec"
)

// Answer is one element of a similarity query result: an item and its
// distance from the query object.
type Answer struct {
	ID   store.ItemID
	Dist float64
}

// AnswerList accumulates answers for one similarity query, implementing the
// insert / remove_last_element / adapt_query_dist logic of Figure 1.
//
// For bounded kinds (k-NN and bounded k-NN) the list keeps the k best
// answers in ascending distance order and shrinks the query distance as it
// fills. For range queries the query distance is constant (ε) and answers
// are kept unsorted until Answers is called, which avoids the O(n²) cost of
// sorted insertion into potentially large range results.
//
// Ties at equal distance are broken by ItemID so that results are
// deterministic across engines, which the cross-engine equivalence tests
// rely on.
type AnswerList struct {
	typ     Type
	answers []Answer
	// obj is the query object the list answers, when it was created for one
	// (NewAnswerListFor): a completed query is its list, and the session
	// that buffers it checks a resubmitted ID against it.
	obj    vec.Vector
	sorted bool
}

// NewAnswerList returns an empty answer list for the given query type.
func NewAnswerList(t Type) *AnswerList {
	return NewAnswerListFor(nil, t)
}

// NewAnswerListFor returns an empty answer list for query object obj of
// type t. The list keeps obj (not a copy) and reports it from Object.
func NewAnswerListFor(obj vec.Vector, t Type) *AnswerList {
	l := &AnswerList{typ: t, obj: obj, sorted: true}
	if t.Bounded() {
		// k comes from the client: it sizes the list only up to a bound, so
		// a 4 KB batch of k = 10⁶ queries cannot ask for gigabytes up front.
		l.answers = make([]Answer, 0, min(max(t.Cardinality, 0), maxPresized))
	}
	return l
}

// maxPresized bounds the capacity NewAnswerList allocates before any answer
// arrives; a longer list grows by append.
const maxPresized = 1 << 10

// less orders answers by (distance, ID).
func less(a, b Answer) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Consider offers an answer to the list. It returns true whenever the
// answer qualifies, dist <= QueryDist() at the call, and false otherwise.
// A qualifying answer is inserted in (distance, ID) order, except on a full
// bounded list where it ties the worst answer's distance and its ID sorts
// after that answer's: the list keeps what it holds, and Consider still
// returns true. A full bounded list that takes an answer drops its worst one
// in place, which tightens QueryDist — the adapt_query_dist step — and
// never grows the list past its cardinality.
func (l *AnswerList) Consider(id store.ItemID, dist float64) bool {
	if dist > l.QueryDist() {
		return false
	}
	a := Answer{ID: id, Dist: dist}
	if !l.typ.Bounded() {
		l.answers = append(l.answers, a)
		l.sorted = len(l.answers) <= 1
		return true
	}
	// Bounded: the first answer a sorts before, by binary search.
	i, hi := 0, len(l.answers)
	for i < hi {
		if h := int(uint(i+hi) >> 1); less(a, l.answers[h]) {
			hi = h
		} else {
			i = h + 1
		}
	}
	if len(l.answers) < l.typ.Cardinality {
		l.answers = append(l.answers, Answer{})
	} else if i == len(l.answers) {
		return true // a tie at the worst distance that sorts last
	}
	copy(l.answers[i+1:], l.answers[i:]) // on a full list, the worst falls off
	l.answers[i] = a
	return true
}

// ConsiderAll offers as to a range list in order, each under Consider's own
// d ≤ ε rule, and is how a page's accepts for a range query land in one
// call. A range list's query distance is ε whatever it holds, so no answer
// can change what the next one meets: the list grows once for the answers
// within ε and appends them as Consider would have, one by one. A bounded
// list's query distance moves with its contents; it takes its answers
// through Consider, and ConsiderAll panics on one.
func (l *AnswerList) ConsiderAll(as []Answer) {
	if l.typ.Bounded() {
		panic("query: ConsiderAll on a bounded answer list")
	}
	n := len(l.answers)
	if cap(l.answers)-n < len(as) {
		l.answers = append(l.answers, as...)[:n] // one growth for the batch
	}
	for _, a := range as {
		if a.Dist > l.typ.Range {
			continue
		}
		l.answers = append(l.answers, a)
	}
	if len(l.answers) > n {
		l.sorted = len(l.answers) <= 1
	}
}

// QueryDist returns the current pruning distance: any object farther away
// can neither enter the answers nor force out a current answer. For a range
// query this is always ε; for bounded kinds it is ε until the list is full
// and the distance of the current worst answer afterwards.
func (l *AnswerList) QueryDist() float64 {
	if !l.typ.Bounded() || len(l.answers) < l.typ.Cardinality {
		return l.typ.Range
	}
	return l.answers[len(l.answers)-1].Dist
}

// Full reports whether a bounded list has reached its cardinality. Range
// lists are never full.
func (l *AnswerList) Full() bool {
	return l.typ.Bounded() && len(l.answers) >= l.typ.Cardinality
}

// Len returns the number of answers collected so far.
func (l *AnswerList) Len() int { return len(l.answers) }

// Type returns the query type this list was created for.
func (l *AnswerList) Type() Type { return l.typ }

// Object returns the query object the list was created for, nil when it
// was created without one (NewAnswerList).
func (l *AnswerList) Object() vec.Vector { return l.obj }

// Answers returns the answers in ascending (distance, ID) order. The
// returned slice is owned by the list; callers must not modify it.
func (l *AnswerList) Answers() []Answer {
	if !l.sorted {
		sortAnswers(l.answers)
		l.sorted = true
	}
	return l.answers
}

// shortSort: a mining query's range list is rarely longer.
const shortSort = 32

// sortAnswers puts as in (distance, ID) order.
func sortAnswers(as []Answer) {
	if len(as) > shortSort {
		slices.SortFunc(as, func(a, b Answer) int {
			switch {
			case less(a, b):
				return -1
			case less(b, a):
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(as); i++ {
		a, j := as[i], i
		for ; j > 0 && less(a, as[j-1]); j-- {
			as[j] = as[j-1]
		}
		as[j] = a
	}
}

// IDs returns just the item IDs of the answers, in result order.
func (l *AnswerList) IDs() []store.ItemID {
	as := l.Answers()
	ids := make([]store.ItemID, len(as))
	for i, a := range as {
		ids[i] = a.ID
	}
	return ids
}
