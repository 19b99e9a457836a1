package parallel

import "testing"

// expire ends the breaker's cooldown now.
func (b *breaker) expire() {
	b.mu.Lock()
	b.openedAt = b.openedAt.Add(-breakerCooldown)
	b.mu.Unlock()
}

// TestBreakerStateMachine drives one breaker through closed → open → probe
// → closed, the failed probe that keeps it open, and the probe whose
// outcome is never recorded.
func TestBreakerStateMachine(t *testing.T) {
	var b breaker
	for i := 1; i < breakerThreshold; i++ {
		if !b.allow() {
			t.Fatalf("%d failures below threshold must not trip", i-1)
		}
		b.failure()
	}
	if !b.allow() {
		t.Fatal("failures below threshold must not trip")
	}
	b.failure()
	if b.allow() {
		t.Fatal("threshold consecutive failures must open the breaker")
	}
	b.expire()
	if !b.allow() {
		t.Fatal("cooldown elapsed: one probe must be admitted")
	}
	if b.allow() {
		t.Fatal("a second call during the probe must be rejected")
	}
	b.failure() // the probe failed: open for another cooldown
	if b.allow() {
		t.Fatal("a failed probe must keep the breaker open")
	}
	b.expire()
	if !b.allow() {
		t.Fatal("a second probe must be admitted after another cooldown")
	}
	// This probe's caller gave up without an outcome: the next cooldown
	// admits another probe instead of leaving the breaker wedged.
	b.expire()
	if !b.allow() {
		t.Fatal("an unrecorded probe must not wedge the breaker")
	}
	b.success()
	if !b.allow() || !b.allow() {
		t.Fatal("a successful probe must close the breaker")
	}
}
