package mega_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mega"
)

func eightSnapshotWindow(t testing.TB) *mega.Window {
	t.Helper()
	spec := mega.GraphSpec{
		Name: "lifecycle", Vertices: 1 << 10, Edges: 12_000,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 11,
	}
	ev, err := mega.Evolve(spec, mega.EvolutionSpec{Snapshots: 8, BatchFraction: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEvaluateContextDeadline checks deadline expiry surfaces the
// cancellation contract: an error matching both mega.ErrCanceled and the
// context's own error.
func TestEvaluateContextDeadline(t *testing.T) {
	w := eightSnapshotWindow(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := mega.EvaluateContext(ctx, w, mega.SSSP, 0)
	if !errors.Is(err, mega.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled and DeadlineExceeded", err)
	}
}

// TestContextVariantsMatchPlainRuns checks the lifecycle plumbing does not
// disturb results: a Background-context run equals the plain API's.
func TestContextVariantsMatchPlainRuns(t *testing.T) {
	w := eightSnapshotWindow(t)
	plain, err := mega.Evaluate(w, mega.SSWP, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctxd, err := mega.EvaluateContext(context.Background(), w, mega.SSWP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(ctxd) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(plain), len(ctxd))
	}
	for s := range plain {
		for v := range plain[s] {
			if plain[s][v] != ctxd[s][v] {
				t.Fatalf("snapshot %d vertex %d: %v vs %v", s, v, plain[s][v], ctxd[s][v])
			}
		}
	}
}

// TestDefaultLimitsShape sanity-checks the advertised watchdog defaults.
func TestDefaultLimitsShape(t *testing.T) {
	w := eightSnapshotWindow(t)
	lim := mega.DefaultLimits(w)
	if lim.MaxRounds != 2*w.NumVertices()+64 {
		t.Errorf("MaxRounds = %d, want 2V+64", lim.MaxRounds)
	}
	if lim.MaxEvents <= 0 {
		t.Errorf("MaxEvents = %d, want positive", lim.MaxEvents)
	}
}
