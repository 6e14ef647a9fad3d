package testutil

import (
	"runtime"
	"testing"
	"time"
)

// NoGoroutineLeak records the current goroutine count and registers a
// cleanup that fails the test if, after the test body finishes, the count
// stays above that baseline (plus a small tolerance for runtime helpers)
// for two seconds. Call it at the top of any test that starts service
// goroutines or simulator lifecycles:
//
//	func TestSomething(t *testing.T) {
//		testutil.NoGoroutineLeak(t)
//		...
//	}
//
// The two-goroutine tolerance absorbs runtime-internal goroutines (GC
// workers, timer goroutines) that come and go independently of the code
// under test; anything above it after the grace period is a stranded
// worker.
func NoGoroutineLeak(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before+2 {
			t.Errorf("goroutines: %d before, %d after — the test leaked workers", before, after)
		}
	})
}
