// Package leakcheck holds the goroutine-leak assertion that the tests of
// several packages share. Only test files import it.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Settle waits up to ten seconds for the number of goroutines to fall back
// to base, the count taken before the code under test started any, and
// fails t with every goroutine's stack if it does not.
func Settle(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
