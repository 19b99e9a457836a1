// Package explore implements the paper's generic data-mining scheme
// ExploreNeighborhoods (Figure 2) and its purely syntactic transformation
// ExploreNeighborhoodsMultiple (Figure 3), which replaces single similarity
// queries with multiple similarity queries while computing exactly the same
// result.
//
// The package also provides the concrete instances discussed in §3.2:
// density-based clustering (DBSCAN), simultaneous k-NN classification,
// manual data exploration by concurrent users, proximity analysis, spatial
// trend detection, and spatial association rules.
package explore

import (
	"fmt"

	"metricdb/internal/msq"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// Config binds an exploration to a query processor and the database items.
type Config struct {
	// Proc evaluates the similarity queries.
	Proc *msq.Processor
	// Items is the database; Items[i].ID must equal ItemID(i) so that
	// answers can be resolved back to objects.
	Items []store.Item
	// SimType is the similarity query type used for neighborhoods.
	SimType query.Type
	// BatchSize is m, the number of query objects per multiple similarity
	// query; values below 2 make RunMultiple degenerate to Run.
	BatchSize int
}

// Validate checks the configuration, including the ID-equals-index
// requirement.
func (c Config) Validate() error {
	if c.Proc == nil {
		return fmt.Errorf("explore: nil processor")
	}
	if err := c.SimType.Validate(); err != nil {
		return fmt.Errorf("explore: %w", err)
	}
	for i := range c.Items {
		if c.Items[i].ID != store.ItemID(i) {
			return fmt.Errorf("explore: item at index %d has ID %d; IDs must equal indexes", i, c.Items[i].ID)
		}
	}
	return nil
}

// checkIDs rejects an ID that names no object of a database of n objects:
// the mining entry points index the database with the IDs they are given,
// and their hooks', before any query runs.
func checkIDs(n int, ids ...store.ItemID) error {
	for _, id := range ids {
		if id >= store.ItemID(n) {
			return fmt.Errorf("explore: item ID %d names no object of the %d in the database", id, n)
		}
	}
	return nil
}

// Hooks are the task-specific procedures of the scheme. Any hook may be
// nil:
//
//	Condition defaults to "control list not empty",
//	Proc1 and Proc2 default to no-ops,
//	Filter defaults to "no new query objects".
type Hooks struct {
	// Condition is condition_check: the loop continues while it returns
	// true. It receives the control-list length and the step count.
	Condition func(controlLen, step int) bool
	// Proc1 runs on the selected object before its query.
	Proc1 func(obj store.Item)
	// Proc2 runs on the selected object's complete answers.
	Proc2 func(obj store.Item, answers []query.Answer)
	// Filter selects which answers become new query objects. Objects
	// that were ever on the control list are dropped automatically, which
	// (together with a finite database) guarantees termination. An ID that
	// names no database object ends the run with an error.
	Filter func(obj store.Item, answers []query.Answer) []store.ItemID
}

func (h Hooks) condition(controlLen, step int) bool {
	if h.Condition != nil {
		return h.Condition(controlLen, step)
	}
	return controlLen > 0
}

// Stats aggregates the cost of an exploration run.
type Stats struct {
	// Steps is the number of executed loop iterations (= completed
	// similarity queries).
	Steps int
	// Query aggregates the query-processing cost.
	Query msq.Stats
}

// controlList is the scheme's ControlList: FIFO with an ever-seen set so no
// object is enqueued twice. An object is enqueued as its similarity query,
// built once, and the list is walked with a head index, so the pending
// objects are one slice a batch can be cut from.
type controlList struct {
	cfg   Config
	queue []msq.Query
	head  int
	seen  map[store.ItemID]bool
}

func newControlList(cfg Config, start []store.ItemID) *controlList {
	c := &controlList{cfg: cfg, seen: make(map[store.ItemID]bool, len(start))}
	for _, id := range start {
		c.push(id)
	}
	return c
}

func (c *controlList) push(id store.ItemID) {
	if c.seen[id] {
		return
	}
	c.seen[id] = true
	c.queue = append(c.queue, msq.Query{ID: uint64(id), Vec: c.cfg.Items[id].Vec, Type: c.cfg.SimType})
}

func (c *controlList) pop() store.ItemID {
	id := store.ItemID(c.queue[c.head].ID)
	c.head++
	return id
}

// pending returns the objects still on the list, in order.
func (c *controlList) pending() []msq.Query { return c.queue[c.head:] }

func (c *controlList) len() int { return len(c.queue) - c.head }

// Run executes the ExploreNeighborhoods scheme of Figure 2 with single
// similarity queries.
func Run(cfg Config, start []store.ItemID, hooks Hooks) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if err := checkIDs(len(cfg.Items), start...); err != nil {
		return Stats{}, err
	}
	var stats Stats
	control := newControlList(cfg, start)
	for hooks.condition(control.len(), stats.Steps) {
		obj := cfg.Items[control.pop()]
		if hooks.Proc1 != nil {
			hooks.Proc1(obj)
		}
		answers, qs, err := cfg.Proc.Single(obj.Vec, cfg.SimType)
		stats.Query = stats.Query.Add(qs)
		if err != nil {
			return stats, err
		}
		stats.Steps++
		if err := finishStep(cfg, hooks, obj, answers.Answers(), control); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// RunMultiple executes the transformed scheme of Figure 3: a set of up to
// BatchSize objects is selected from the control list and evaluated as one
// multiple similarity query, but only the first object and its (complete)
// answers are processed per iteration — the remaining answers are
// prefetched into the session buffer. The computed result is identical to
// Run's.
func RunMultiple(cfg Config, start []store.ItemID, hooks Hooks) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if err := checkIDs(len(cfg.Items), start...); err != nil {
		return Stats{}, err
	}
	if cfg.BatchSize < 2 {
		return Run(cfg, start, hooks)
	}
	var stats Stats
	control := newControlList(cfg, start)
	session := cfg.Proc.NewSession()
	for hooks.condition(control.len(), stats.Steps) {
		// choose_multiple: the first min(m, len) objects, cut from the list
		// itself — the session copies what it keeps of a call's queries.
		batch := control.pending()
		batch = batch[:min(cfg.BatchSize, len(batch))]
		obj := cfg.Items[control.pop()]
		if hooks.Proc1 != nil {
			hooks.Proc1(obj)
		}
		results, qs, err := session.MultiQuery(batch)
		stats.Query = stats.Query.Add(qs)
		if err != nil {
			return stats, err
		}
		stats.Steps++
		if err := finishStep(cfg, hooks, obj, results[0].Answers(), control); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// finishStep runs proc_2 and the filter and updates the control list. A
// filter result naming no database object is an error, and nothing of it is
// enqueued.
func finishStep(cfg Config, hooks Hooks, obj store.Item, answers []query.Answer, control *controlList) error {
	if hooks.Proc2 != nil {
		hooks.Proc2(obj, answers)
	}
	if hooks.Filter == nil {
		return nil
	}
	ids := hooks.Filter(obj, answers)
	if err := checkIDs(len(cfg.Items), ids...); err != nil {
		return fmt.Errorf("explore: filter after object %d: %w", obj.ID, err)
	}
	for _, id := range ids {
		control.push(id)
	}
	return nil
}
