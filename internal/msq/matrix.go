package msq

// queryMatrix is the session-resident query-distance matrix ("QObjDists" of
// Figure 4): one dense w×w array, indexed by the slot each incomplete query
// of the current batch holds. A slot is an index that stays with its query
// from the call in which the query enters until the query completes or sits
// out a call, so the distances between two buffered queries are computed
// once and then read in place by every later call — a call pays only for
// the rows of the queries that entered (Session.syncMatrix). The page pass
// indexes rows by slot directly; nothing is gathered or copied per call.
//
// w is the widest set of incomplete queries one batch has held, so storage
// is O(w²) however long the session lives. Cells of free slots hold stale
// distances that nothing reads: the pass only indexes slots of active
// queries, and every pair of slot holders was filled when the later of the
// two entered.
type queryMatrix struct {
	// rows[a][b] is the distance between the holders of slots a and b. The
	// rows are views into one allocation of len(rows)² cells.
	rows [][]float64
	// holder maps a slot to the incomplete query holding it; nil is free.
	holder []*queryState
	live   int
}

// noSlot is queryState.slot of a query that holds none.
const noSlot = -1

// reserve makes room for n more holders. A fresh session's batch therefore
// sizes the matrix in one allocation; later growth keeps every holder's
// slot and copies the old cells across.
func (qm *queryMatrix) reserve(n int) {
	old := len(qm.rows)
	w := qm.live + n
	if w <= old {
		return
	}
	cells := make([]float64, w*w)
	rows := make([][]float64, w)
	for a := range rows {
		rows[a] = cells[a*w : (a+1)*w : (a+1)*w]
		if a < old {
			copy(rows[a], qm.rows[a])
		}
	}
	qm.rows = rows
	qm.holder = append(qm.holder, make([]*queryState, w-old)...)
}

// release frees st's slot, if it holds one.
func (qm *queryMatrix) release(st *queryState) {
	if st.slot == noSlot {
		return
	}
	qm.holder[st.slot] = nil
	st.slot = noSlot
	qm.live--
}

// syncMatrix brings the query-distance matrix up to date with the batch and
// returns its rows for the page pass to index by slot; nil means no
// avoidance (AvoidOff, or a single query). It is the only place inter-query
// distances are calculated.
//
// Holders that sat out this call give their slots back — keeping them would
// mean filling their cells against every query that enters meanwhile, for a
// query that may never return — and each incomplete query without a slot
// takes one and calculates its row against the holders: the queries kept
// from the previous call and the ones that entered before it in this batch.
// So a sliding window of m queries pays m-1 calculations per call, the
// quadratic m(m-1)/2 of §5.2 only for a batch of m new queries, nothing for
// a completed query (which is never active again), and a row a second time
// for a query that returns after sitting out.
func (s *Session) syncMatrix(states []*queryState, stats *Stats) [][]float64 {
	if s.proc.opts.Avoidance == AvoidOff {
		return nil
	}
	qm := &s.matrix
	for _, st := range qm.holder {
		if st != nil && st.stamp != s.stamp {
			qm.release(st)
		}
	}
	if len(states) < 2 {
		return nil
	}
	entering := 0
	for _, st := range states {
		if !st.done && st.slot == noSlot {
			entering++
		}
	}
	qm.reserve(entering)
	free := 0
	for i, st := range states {
		if st.done || st.slot != noSlot {
			continue
		}
		for qm.holder[free] != nil {
			free++
		}
		st.slot = int32(free)
		qm.holder[free] = st
		qm.live++
		row := qm.rows[free]
		for j, other := range states {
			if other.slot == noSlot || other == st {
				continue
			}
			// Earlier batch position first, the argument order of a matrix
			// filled row by row.
			a, b := st, other
			if j < i {
				a, b = other, st
			}
			d := s.proc.metric.Distance(a.q.Vec, b.q.Vec)
			stats.MatrixDistCalcs++
			row[other.slot] = d
			qm.rows[other.slot][free] = d
		}
	}
	return qm.rows
}
