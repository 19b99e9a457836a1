// Package admit is the admission-control and cross-caller batch-forming
// layer of the query server: a bounded queue plus an online batch former
// that collects concurrently arriving *single* similarity queries into
// m-wide multiple-similarity-query blocks (§5.3 of the paper), so the I/O
// and distance-avoidance amortization that previously required one caller
// to hand the server m queries now emerges from independent callers.
//
// The controller enforces a latency SLO by shedding early: a request that
// cannot be admitted within its deadline budget is rejected *before* it
// costs any page I/O or distance work, with a structured Overload error
// carrying a retry-after hint so well-behaved clients back off instead of
// hammering a saturated server. Admitted requests return answers that are
// bit-identical to an unbatched sequential evaluation — the triangle-
// inequality avoidance of the multi-query processor is exact, so batching
// changes cost, never results.
//
// # Compatibility
//
// A Controller is bound to one msq.Processor, i.e. one (dataset, engine,
// metric) triple; every query submitted to it is batch-compatible by
// construction. A server fronting several datasets runs one controller per
// backing processor and routes by dataset — the compatibility key is
// structural, not checked per request.
//
// # Sizing
//
// The target block width is chosen per block, adaptively: the backlog
// (queries already waiting) widens blocks under load, and a pressure
// signal in [0, 1] — by default derived from the live buffer-pool miss
// ratio and, when a tracer is installed, the page_fetch share of the obs
// phase histograms — widens them further when the workload is I/O-bound,
// which is exactly when sharing one page pass across more queries pays
// most. Width never exceeds MaxWidth, so the quadratic query-distance-
// matrix overhead (§5.2) stays bounded.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"metricdb/internal/msq"
	"metricdb/internal/obs"
	"metricdb/internal/query"
	"metricdb/internal/store"
)

// Reason classifies why a request was shed.
type Reason string

// Shed reasons.
const (
	// ReasonQueueFull: the bounded admission queue had no slot.
	ReasonQueueFull Reason = "queue_full"
	// ReasonDeadline: the request's SLO budget cannot cover the predicted
	// queueing plus execution time (or had already expired while queued).
	ReasonDeadline Reason = "deadline"
	// ReasonShutdown: the controller is closed or closing.
	ReasonShutdown Reason = "shutting_down"
)

// Overload is the structured shedding error: the request was rejected
// before any I/O or distance work, and RetryAfter hints when the caller
// should try again (an estimate of the time for the current backlog to
// drain; zero only when the controller is shutting down for good).
type Overload struct {
	Reason     Reason
	RetryAfter time.Duration
}

// Error renders the overload error.
func (e *Overload) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("admit: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("admit: overloaded (%s)", e.Reason)
}

// Config tunes a Controller. The zero value selects the documented
// defaults.
type Config struct {
	// MaxQueue bounds the admission queue: requests arriving while
	// MaxQueue submissions are already waiting are shed with
	// ReasonQueueFull. Zero selects DefaultMaxQueue.
	MaxQueue int
	// MaxWidth bounds the formed block width m from above (the floor is
	// DefaultMinWidth). Zero selects DefaultMaxWidth.
	MaxWidth int
	// MaxWait caps how long the former lingers waiting for more arrivals
	// to widen a block. The effective linger is the minimum of MaxWait
	// and the oldest member's SLO slack (deadline minus predicted
	// execution time), so a tight deadline releases a narrow block early
	// rather than blowing the SLO. Zero selects DefaultMaxWait.
	MaxWait time.Duration
	// DefaultSLO is the deadline budget applied to submissions whose
	// context carries no deadline. Zero selects DefaultDefaultSLO.
	DefaultSLO time.Duration
	// Pressure, when non-nil, overrides the built-in pressure signal.
	// It must return a value in [0, 1]; values outside are clamped.
	Pressure func() float64
	// BlockObserver, when non-nil, receives every successfully executed
	// block (its queries, batch Stats, and wall time) after delivery
	// accounting. Nil disables.
	BlockObserver func(queries []msq.Query, stats msq.Stats, elapsed time.Duration)
}

// Config defaults, and the fixed floor of the block width and cap of the
// retry-after hint.
const (
	DefaultMaxQueue      = 256
	DefaultMinWidth      = 1
	DefaultMaxWidth      = 16
	DefaultMaxWait       = 2 * time.Millisecond
	DefaultDefaultSLO    = time.Second
	DefaultMaxRetryAfter = 5 * time.Second
)

func (c *Config) withDefaults() error {
	if c.MaxQueue < 0 || c.MaxWidth < 0 {
		return fmt.Errorf("admit: negative limit in config")
	}
	if c.MaxWait < 0 || c.DefaultSLO < 0 {
		return fmt.Errorf("admit: negative duration in config")
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxWidth == 0 {
		c.MaxWidth = DefaultMaxWidth
	}
	if c.MaxWait == 0 {
		c.MaxWait = DefaultMaxWait
	}
	if c.DefaultSLO == 0 {
		c.DefaultSLO = DefaultDefaultSLO
	}
	return nil
}

// result is one waiter's outcome. service is the in-system time from
// submission to answer ready, stamped by the former at delivery — the
// quantity the SLO governs, free of the receiver's scheduling delay.
type result struct {
	answers []query.Answer
	stats   msq.Stats
	width   int
	service time.Duration
	err     error
}

// waiter is one queued submission. The former goroutine is the single
// owner after enqueue; exactly one result is ever sent on done (buffered),
// so an abandoned waiter (context canceled while queued) leaks nothing.
type waiter struct {
	q        msq.Query
	ctx      context.Context
	enqueued time.Time
	deadline time.Time
	done     chan result
}

// Controller is the admission queue plus batch former over one processor.
// Submit is safe for concurrent use by any number of callers; blocks are
// executed one at a time by a single former goroutine (arrivals during an
// execution accumulate in the queue and form the next, wider, block —
// the queue is what turns bursts into batch width instead of collapse).
type Controller struct {
	proc *msq.Processor
	cfg  Config
	buf  *store.Buffer

	queue chan *waiter

	mu     sync.Mutex
	closed bool
	done   chan struct{}

	// execEWMA and perQueryEWMA track recent batch execution wall time
	// and per-admitted-query service time (ns, exponentially weighted
	// moving averages) for SLO slack prediction and retry-after hints.
	execEWMA     atomic.Int64
	perQueryEWMA atomic.Int64

	submitted      atomic.Int64
	admitted       atomic.Int64
	canceled       atomic.Int64
	batches        atomic.Int64
	batchedQueries atomic.Int64
	shedFull       atomic.Int64
	shedDeadline   atomic.Int64
	shedShutdown   atomic.Int64
	widthTarget    atomic.Int64
}

// New creates a Controller over proc and starts its former goroutine.
// Close must be called to release it. When proc has a tracer
// (msq.Processor.WithTracer), the controller records each admitted query's
// admit_wait in it and reads pressure from its phase histograms.
func New(proc *msq.Processor, cfg Config) (*Controller, error) {
	if proc == nil {
		return nil, fmt.Errorf("admit: nil processor")
	}
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	c := &Controller{
		proc:  proc,
		cfg:   cfg,
		buf:   proc.Engine().Pager().Buffer(),
		queue: make(chan *waiter, cfg.MaxQueue),
		done:  make(chan struct{}),
	}
	c.widthTarget.Store(DefaultMinWidth)
	go c.former()
	return c, nil
}

// Close drains the controller: queued submissions that have not been
// formed into a block are shed with ReasonShutdown, the in-flight block
// (if any) finishes, and the former goroutine exits. Close is idempotent;
// Submit after Close sheds immediately.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	close(c.queue)
	c.mu.Unlock()
	<-c.done
}

func (c *Controller) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Submit admits one single similarity query into the batch former and
// blocks until its block has executed (returning answers bit-identical to
// an unbatched sequential evaluation, plus the executed block's statistics
// and width) or until it is shed. Shed requests return a *Overload error
// before any I/O or distance work has been spent on them.
//
// The deadline budget is ctx's deadline when one is set, else now +
// DefaultSLO. The SLO is enforced at admission and release: a request
// whose remaining slack cannot cover the predicted execution time is shed
// with a retry-after hint instead of being started and abandoned halfway.
// On success the returned width is the executed block's size and service
// is the in-system time (submission to answer ready) stamped by the
// former — the latency the SLO governs, excluding the scheduling delay
// between delivery and this goroutine resuming.
func (c *Controller) Submit(ctx context.Context, q msq.Query) ([]query.Answer, msq.Stats, int, time.Duration, error) {
	// Checked at the door, not in the block: a query the processor would
	// reject fails the whole MultiQuery call and with it every block-mate.
	if err := c.proc.CheckQuery(q); err != nil {
		return nil, msq.Stats{}, 0, 0, err
	}
	c.submitted.Add(1)
	now := time.Now()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = now.Add(c.cfg.DefaultSLO)
	}
	// Early shed at the door: the predicted time through the system is the
	// backlog's drain time plus one block execution; a budget that cannot
	// cover it means this request would only be shed later anyway, after
	// occupying a queue slot someone else could use.
	predicted := time.Duration(int64(len(c.queue)))*time.Duration(c.perQueryEWMA.Load()) +
		time.Duration(c.execEWMA.Load())
	if deadline.Sub(now) <= predicted {
		c.shedDeadline.Add(1)
		return nil, msq.Stats{}, 0, 0, &Overload{Reason: ReasonDeadline, RetryAfter: c.retryAfter()}
	}

	w := &waiter{q: q, ctx: ctx, enqueued: now, deadline: deadline, done: make(chan result, 1)}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.shedShutdown.Add(1)
		return nil, msq.Stats{}, 0, 0, &Overload{Reason: ReasonShutdown}
	}
	select {
	case c.queue <- w:
		c.mu.Unlock()
	default:
		c.mu.Unlock()
		c.shedFull.Add(1)
		return nil, msq.Stats{}, 0, 0, &Overload{Reason: ReasonQueueFull, RetryAfter: c.retryAfter()}
	}

	select {
	case res := <-w.done:
		if res.err != nil {
			return nil, res.stats, res.width, 0, res.err
		}
		return res.answers, res.stats, res.width, res.service, nil
	case <-ctx.Done():
		// The former will observe the dead context and drop the waiter;
		// if it raced us and already resolved it, prefer that outcome.
		select {
		case res := <-w.done:
			if res.err != nil {
				return nil, res.stats, res.width, 0, res.err
			}
			return res.answers, res.stats, res.width, res.service, nil
		default:
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The SLO budget ran out while queued: a deadline shed, so
			// the caller gets the structured error and retry hint.
			c.shedDeadline.Add(1)
			return nil, msq.Stats{}, 0, 0, &Overload{Reason: ReasonDeadline, RetryAfter: c.retryAfter()}
		}
		return nil, msq.Stats{}, 0, 0, fmt.Errorf("admit: %w", ctx.Err())
	}
}

// former is the batch-forming loop: wait for a first arrival, linger up
// to the SLO-capped MaxWait while the block is below the adaptive target
// width, then execute the block on a fresh session.
func (c *Controller) former() {
	defer close(c.done)
	for {
		w, ok := <-c.queue
		if !ok {
			return
		}
		if c.isClosed() {
			c.shed(w, &Overload{Reason: ReasonShutdown})
			continue
		}
		if !c.live(w) {
			continue
		}
		block := c.collect(w)
		if len(block) > 0 {
			c.execute(block)
		}
	}
}

// live reports whether a dequeued waiter is still worth serving, shedding
// it otherwise: canceled contexts are dropped silently (the caller is
// gone), expired deadlines are shed with ReasonDeadline.
func (c *Controller) live(w *waiter) bool {
	if w.ctx.Err() != nil {
		c.canceled.Add(1)
		return false
	}
	if !time.Now().Before(w.deadline) {
		c.shed(w, &Overload{Reason: ReasonDeadline, RetryAfter: c.retryAfter()})
		return false
	}
	return true
}

// shed delivers a structured overload error to one waiter.
func (c *Controller) shed(w *waiter, err *Overload) {
	switch err.Reason {
	case ReasonQueueFull:
		c.shedFull.Add(1)
	case ReasonDeadline:
		c.shedDeadline.Add(1)
	case ReasonShutdown:
		c.shedShutdown.Add(1)
	}
	w.done <- result{err: err}
}

// collect forms one block starting from first: it keeps accepting queued
// arrivals until the block reaches the adaptive target width or the
// linger budget — MaxWait, capped by the oldest member's SLO slack net of
// the predicted execution time — runs out.
func (c *Controller) collect(first *waiter) []*waiter {
	block := []*waiter{first}
	target := c.targetWidth()
	if target <= 1 {
		return block
	}
	linger := c.cfg.MaxWait
	if slack := time.Until(first.deadline) - time.Duration(c.execEWMA.Load()); slack < linger {
		linger = slack
	}
	if linger <= 0 {
		return block
	}
	timer := time.NewTimer(linger)
	defer timer.Stop()
	for len(block) < target {
		select {
		case w, ok := <-c.queue:
			if !ok {
				// Closed mid-collect: execute what was admitted.
				return block
			}
			if c.isClosed() {
				c.shed(w, &Overload{Reason: ReasonShutdown})
				return block
			}
			if c.live(w) {
				block = append(block, w)
			}
		case <-timer.C:
			return block
		}
	}
	return block
}

// execute runs one block as a multiple similarity query on a fresh
// session and distributes the per-query answers. Queries are renumbered
// by block position — caller-chosen IDs from independent connections
// collide freely — and each waiter's answers are copied out, so nothing
// of the discarded session escapes. A last pre-execution deadline check
// sheds members whose budget ran out while the block was forming.
func (c *Controller) execute(block []*waiter) {
	released := time.Now()
	// Predicted execution time for THIS block: the per-member EWMA scaled
	// by the block's width (wide blocks take longer than the whole-block
	// EWMA warmed up on narrow ones), floored at the whole-block EWMA, and
	// doubled to stay conservative — shedding a request that would have
	// just made it is a recoverable mistake, blowing its SLO is not.
	predicted := time.Duration(c.perQueryEWMA.Load()) * time.Duration(len(block))
	if whole := time.Duration(c.execEWMA.Load()); whole > predicted {
		predicted = whole
	}
	predicted *= 2
	live := block[:0]
	for _, w := range block {
		if !c.live(w) {
			continue
		}
		// SLO enforcement at release: starting work whose predicted
		// completion lands past the deadline only produces an answer
		// nobody is waiting for. Shed it now, before it costs I/O.
		if predicted > 0 && time.Until(w.deadline) <= predicted {
			c.shed(w, &Overload{Reason: ReasonDeadline, RetryAfter: c.retryAfter()})
			continue
		}
		live = append(live, w)
	}
	if len(live) == 0 {
		return
	}
	if tr := c.proc.Tracer(); tr.Enabled() {
		for _, w := range live {
			tr.Observe(obs.PhaseAdmitWait, released.Sub(w.enqueued))
		}
	}

	queries := make([]msq.Query, len(live))
	for i, w := range live {
		q := w.q
		q.ID = uint64(i)
		queries[i] = q
	}
	lists, stats, err := c.proc.NewSession().MultiQueryAll(queries)
	elapsed := time.Since(released)

	c.batches.Add(1)
	c.batchedQueries.Add(int64(len(live)))
	ewma(&c.execEWMA, int64(elapsed))
	ewma(&c.perQueryEWMA, int64(elapsed)/int64(len(live)))
	if err == nil && c.cfg.BlockObserver != nil {
		c.cfg.BlockObserver(queries, stats, elapsed)
	}

	if err != nil {
		for _, w := range live {
			w.done <- result{err: fmt.Errorf("admit: batch execution: %w", err), width: len(live)}
		}
		return
	}
	ready := time.Now()
	for i, w := range live {
		// The SLO is a promise, not a preference: a block that overran
		// its prediction past a member's deadline produced an answer the
		// caller's budget no longer covers, and delivering it late would
		// let admitted tail latency drift past the SLO exactly when the
		// system is too loaded to honor it. Shed it — the work is sunk
		// either way, but the caller gets a retryable structured error
		// instead of a broken latency contract.
		if ready.After(w.deadline) {
			c.shed(w, &Overload{Reason: ReasonDeadline, RetryAfter: c.retryAfter()})
			continue
		}
		c.admitted.Add(1)
		w.done <- result{
			answers: append([]query.Answer(nil), lists[i].Answers()...),
			stats:   stats,
			width:   len(live),
			service: ready.Sub(w.enqueued),
		}
	}
}

// ewma folds one sample into an exponentially weighted moving average
// with weight 1/4 (a compromise between reacting to load shifts and not
// chasing one outlier batch). The first sample seeds the average.
func ewma(avg *atomic.Int64, sample int64) {
	old := avg.Load()
	if old == 0 {
		avg.Store(sample)
		return
	}
	avg.Store(old + (sample-old)/4)
}

// retryAfter estimates how long the current backlog needs to drain: queue
// depth times the per-query service EWMA, clamped to [1ms,
// DefaultMaxRetryAfter]. It is a hint, not a reservation — the point is to
// spread retries out instead of synchronizing them into the next collapse.
func (c *Controller) retryAfter() time.Duration {
	per := c.perQueryEWMA.Load()
	if per <= 0 {
		per = int64(time.Millisecond)
	}
	est := time.Duration(int64(len(c.queue)+1) * per)
	if est < time.Millisecond {
		est = time.Millisecond
	}
	if est > DefaultMaxRetryAfter {
		est = DefaultMaxRetryAfter
	}
	return est
}

// targetWidth picks the block width for the next block: the backlog
// widens it (queries already waiting should share one page pass), the
// pressure signal widens it further, MaxWidth bounds it.
func (c *Controller) targetWidth() int {
	minW, maxW := DefaultMinWidth, c.cfg.MaxWidth
	w := minW + int(math.Round(c.pressure()*float64(maxW-minW)))
	if backlog := len(c.queue) + 1; backlog > w {
		w = backlog
	}
	if w > maxW {
		w = maxW
	}
	if w < minW {
		w = minW
	}
	c.widthTarget.Store(int64(w))
	return w
}

// pressure returns the I/O-boundedness signal in [0, 1]. With no override
// configured it is the larger of the live buffer-pool miss ratio and —
// when the processor has a tracer — the page_fetch share of the phase
// histograms' accumulated wall time against the page passes' (kernel).
// Both rise exactly when one more query sharing a page pass saves the most
// repeated work.
func (c *Controller) pressure() float64 {
	if c.cfg.Pressure != nil {
		return clamp01(c.cfg.Pressure())
	}
	var p float64
	if c.buf != nil {
		if h, m, _ := c.buf.HitRate(); h+m > 0 {
			p = float64(m) / float64(h+m)
		}
	}
	if tr := c.proc.Tracer(); tr.Enabled() {
		fetch := tr.Snapshot(obs.PhasePageFetch).SumNs
		cpu := tr.Snapshot(obs.PhaseKernel).SumNs
		if fetch+cpu > 0 {
			if share := float64(fetch) / float64(fetch+cpu); share > p {
				p = share
			}
		}
	}
	return clamp01(p)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0 || math.IsNaN(v):
		return 0
	case v > 1:
		return 1
	}
	return v
}

// Metrics accessors; all are safe under concurrent load.

// QueueDepth returns the number of submissions currently queued.
func (c *Controller) QueueDepth() int { return len(c.queue) }

// Submitted returns the number of Submit calls accepted for processing
// (sheds included).
func (c *Controller) Submitted() int64 { return c.submitted.Load() }

// Admitted returns the number of queries answered through a block.
func (c *Controller) Admitted() int64 { return c.admitted.Load() }

// Shed returns the total number of shed requests.
func (c *Controller) Shed() int64 {
	return c.shedFull.Load() + c.shedDeadline.Load() + c.shedShutdown.Load()
}

// ShedByReason returns the shed counts split by reason.
func (c *Controller) ShedByReason() (queueFull, deadline, shutdown int64) {
	return c.shedFull.Load(), c.shedDeadline.Load(), c.shedShutdown.Load()
}

// Canceled returns the number of waiters dropped because their context
// was canceled while they were queued.
func (c *Controller) Canceled() int64 { return c.canceled.Load() }

// Batches returns the number of executed blocks.
func (c *Controller) Batches() int64 { return c.batches.Load() }

// BatchedQueries returns the number of queries executed across all
// blocks; BatchedQueries / Batches is the achieved mean block width.
func (c *Controller) BatchedQueries() int64 { return c.batchedQueries.Load() }

// AvgWidth returns the achieved mean block width (0 before any block).
func (c *Controller) AvgWidth() float64 {
	b := c.batches.Load()
	if b == 0 {
		return 0
	}
	return float64(c.batchedQueries.Load()) / float64(b)
}

// WidthTarget returns the most recently chosen adaptive target width.
func (c *Controller) WidthTarget() int { return int(c.widthTarget.Load()) }
