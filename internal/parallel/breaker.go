package parallel

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen marks a server call skipped because the server's circuit
// breaker is open: the server failed breakerThreshold consecutive attempts
// and its cooldown has not elapsed, so the fan-out fails the call at once
// instead of spending an attempt (and, over TCP, a dial and a timeout) on a
// server that is almost certainly still down. Under FanOut.Degrade this
// turns a slow degraded operation into a fast one.
var ErrCircuitOpen = errors.New("parallel: circuit breaker open")

// Every server's breaker opens after breakerThreshold consecutive failed
// attempts and admits one probe per breakerCooldown while open.
const (
	breakerThreshold = 5
	breakerCooldown  = time.Second
)

// breaker is one server's circuit breaker; the zero value is closed.
// breakerThreshold consecutive failures open it; while open it rejects
// calls, except that once the cooldown has passed it lets one call through
// as a probe and restarts the cooldown. The probe's success closes the
// breaker; its failure keeps it open. A probe whose outcome is never
// recorded (its caller gave up) therefore cannot wedge the breaker: the
// next cooldown admits another. Only server trouble is recorded as a
// failure (see classify): a request the server refused as malformed proves
// it is answering.
type breaker struct {
	mu       sync.Mutex
	failures int       // consecutive; the breaker is open at breakerThreshold
	openedAt time.Time // when it opened or last admitted a probe
}

// allow reports whether a call may proceed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < breakerThreshold {
		return true
	}
	if time.Since(b.openedAt) < breakerCooldown {
		return false
	}
	b.openedAt = time.Now()
	return true
}

// success records a successful call, closing the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	b.failures = 0
	b.mu.Unlock()
}

// failure records a failed call; the breakerThreshold-th consecutive one
// opens the breaker, and a failed probe restarts its cooldown.
func (b *breaker) failure() {
	b.mu.Lock()
	b.failures++
	if b.failures >= breakerThreshold {
		b.openedAt = time.Now()
	}
	b.mu.Unlock()
}
