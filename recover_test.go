package mega_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"mega"
	"mega/internal/fault"
)

// instantBackoff replaces EvaluateRecover's real backoff clock with a
// recorder: waits return immediately (still honoring ctx) and the waited
// durations are captured, so retry tests are fast and timing-independent.
func instantBackoff(t *testing.T) *[]time.Duration {
	t.Helper()
	var waits []time.Duration
	restore := mega.SetRetrySleep(func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		waits = append(waits, d)
		return nil
	})
	t.Cleanup(restore)
	return &waits
}

// countRounds runs the query once under an empty fault plan and returns
// how many engine round boundaries a run visits — the basis
// for placing injected faults mid-run.
func countRounds(t *testing.T, w *mega.Window) uint64 {
	t.Helper()
	counter := mega.NewFaultPlan(1)
	ctx := mega.WithFaultPlan(context.Background(), counter)
	if _, err := mega.EvaluateContext(ctx, w, mega.SSSP, 0); err != nil {
		t.Fatal(err)
	}
	rounds := counter.Visits("engine.round", -1)
	if rounds < 2 {
		t.Fatalf("baseline visited only %d rounds; window too small for fault placement", rounds)
	}
	return rounds
}

func sameValues(t *testing.T, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(want), len(got))
	}
	for s := range want {
		for v := range want[s] {
			if want[s][v] != got[s][v] {
				t.Fatalf("snapshot %d vertex %d: %v vs %v", s, v, got[s][v], want[s][v])
			}
		}
	}
}

// TestEvaluateRecoverTransient injects a one-shot transient fault halfway
// through the run and checks EvaluateRecover resumes from a checkpoint
// and produces results identical to a clean run.
func TestEvaluateRecoverTransient(t *testing.T) {
	w := eightSnapshotWindow(t)
	clean, err := mega.Evaluate(w, mega.SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	kill := countRounds(t, w) / 2

	op, err := mega.ParseFaultOp("engine.round:transient@" + itoa(kill))
	if err != nil {
		t.Fatal(err)
	}
	plan := mega.NewFaultPlan(2).Add(op)
	ctx := mega.WithFaultPlan(context.Background(), plan)

	waits := instantBackoff(t)
	got, rec, err := mega.EvaluateRecover(ctx, w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatalf("EvaluateRecover = %v, want recovery", err)
	}
	if rec.Attempts != 2 || rec.Resumes != 1 {
		t.Errorf("recovery = %+v, want 2 attempts with 1 resume", rec)
	}
	if len(*waits) != 1 {
		t.Errorf("backoff waits = %v, want exactly one before the retry", *waits)
	}
	if len(rec.Faults) != 1 {
		t.Errorf("faults = %q, want exactly the injected one", rec.Faults)
	}
	sameValues(t, clean, got)
}

// TestEvaluateRecoverSolveRoundTransient fails the CommonGraph base solve
// at its first lifecycle check — before a vertex is expanded — and checks
// the retry solves it again and returns a fault-free run's bits.
func TestEvaluateRecoverSolveRoundTransient(t *testing.T) {
	w := eightSnapshotWindow(t)
	clean, err := mega.Evaluate(w, mega.SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	instantBackoff(t)
	op, err := mega.ParseFaultOp("solve.round:transient@1")
	if err != nil {
		t.Fatal(err)
	}
	plan := mega.NewFaultPlan(1).Add(op)
	got, rec, err := mega.EvaluateRecover(mega.WithFaultPlan(context.Background(), plan), w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{})
	if err != nil {
		t.Fatalf("EvaluateRecover = %v, want recovery", err)
	}
	if rec.Attempts != 2 || len(rec.Faults) != 1 {
		t.Errorf("recovery = %+v, want 2 attempts and the injected fault", rec)
	}
	if got := plan.Visits("solve.round", -1); got != 2 {
		t.Errorf("solve.round visited %d times, want once per attempt", got)
	}
	identicalBits(t, "solve.round:transient@1", clean, got)
}

// TestEvaluateRecoverPanicIsNotRetried injects a panic at a mid-run round
// boundary and checks the retry loop contains it — a *WorkerPanicError
// from the caller's goroutine (Shard -1) carrying the stack — and gives up
// at once: the panicked engine's live state may be torn and whatever
// panicked would panic again, so there is one attempt, one recorded fault
// and no backoff, whether or not a Sink holds an earlier checkpoint.
func TestEvaluateRecoverPanicIsNotRetried(t *testing.T) {
	w := eightSnapshotWindow(t)
	kill := countRounds(t, w) / 2
	for _, tc := range []struct {
		name string
		sink func([]byte) error
	}{
		{"no-sink", nil},
		{"sink", func([]byte) error { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, err := mega.ParseFaultOp("engine.round:panic@" + itoa(kill))
			if err != nil {
				t.Fatal(err)
			}
			plan := mega.NewFaultPlan(3).Add(op)
			waits := instantBackoff(t)
			got, rec, err := mega.EvaluateRecover(mega.WithFaultPlan(context.Background(), plan), w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{
				CheckpointEvery: 1,
				Sink:            tc.sink,
			})
			var wp *mega.WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("EvaluateRecover = %v, want a *WorkerPanicError", err)
			}
			if wp.Shard != -1 || len(wp.Stack) == 0 {
				t.Errorf("panic error = shard %d with %d stack bytes, want shard -1 and a stack", wp.Shard, len(wp.Stack))
			}
			if got != nil {
				t.Error("a panicked run returned values")
			}
			if rec.Attempts != 1 || rec.Resumes != 0 || len(rec.Faults) != 1 {
				t.Errorf("recovery = %+v, want 1 attempt, no resume, the panic as the only fault", rec)
			}
			if len(*waits) != 0 {
				t.Errorf("backoff waits = %v, want none: a panic is not retried", *waits)
			}
		})
	}
}

// TestEvaluateRecoverRetriesExhausted uses a periodic transient fault that
// fires at every round boundary, so every attempt dies; the loop must give
// up after MaxRetries with Attempts = retries+1, surfacing the LAST
// attempt's transient error alongside the full Recovery.Faults trail, and
// waiting the documented linear-backoff schedule between attempts.
func TestEvaluateRecoverRetriesExhausted(t *testing.T) {
	w := eightSnapshotWindow(t)
	op, err := mega.ParseFaultOp("engine.round:transient@1x1")
	if err != nil {
		t.Fatal(err)
	}
	plan := mega.NewFaultPlan(4).Add(op)
	ctx := mega.WithFaultPlan(context.Background(), plan)

	waits := instantBackoff(t)
	backoff := 7 * time.Millisecond
	_, rec, err := mega.EvaluateRecover(ctx, w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{
		MaxRetries: 2,
		Backoff:    backoff,
	})
	if !mega.IsTransient(err) {
		t.Fatalf("EvaluateRecover = %v, want the transient fault after exhaustion", err)
	}
	if rec.Attempts != 3 {
		t.Errorf("attempts = %d, want MaxRetries+1 = 3", rec.Attempts)
	}
	if len(rec.Faults) != 3 {
		t.Errorf("faults = %d, want one per attempt", len(rec.Faults))
	}
	// The returned error is the last attempt's fault, and the trail keeps
	// every attempt's error in order.
	if len(rec.Faults) == 3 && rec.Faults[2] != err.Error() {
		t.Errorf("returned error %q is not the last recorded fault %q", err, rec.Faults[2])
	}
	// Attempt n waits (n+1)×Backoff; the exhausted attempt never waits.
	if len(*waits) != 2 || (*waits)[0] != 1*backoff || (*waits)[1] != 2*backoff {
		t.Errorf("backoff schedule = %v, want [%v %v]", *waits, 1*backoff, 2*backoff)
	}
}

// TestEvaluateRecoverBackoffHonorsCancel checks a context canceled during
// the backoff wait aborts the retry loop with an ErrCanceled error instead
// of attempting again.
func TestEvaluateRecoverBackoffHonorsCancel(t *testing.T) {
	w := eightSnapshotWindow(t)
	op, err := mega.ParseFaultOp("engine.round:transient@1x1")
	if err != nil {
		t.Fatal(err)
	}
	plan := mega.NewFaultPlan(4).Add(op)
	ctx, cancel := context.WithCancel(mega.WithFaultPlan(context.Background(), plan))

	restore := mega.SetRetrySleep(func(ctx context.Context, d time.Duration) error {
		cancel() // cancellation arrives mid-backoff
		return ctx.Err()
	})
	t.Cleanup(restore)

	_, rec, err := mega.EvaluateRecover(ctx, w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{
		MaxRetries: 3,
	})
	if !errors.Is(err, mega.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateRecover = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if rec.Attempts != 1 {
		t.Errorf("attempts = %d, want the canceled backoff to stop the loop after 1", rec.Attempts)
	}
}

// TestEvaluateRecoverSinkAndExternalResume checks the Sink/Checkpoint
// pair: a first process persists checkpoints through Sink and dies on an
// injected fault; a second process resumes from the persisted bytes and
// finishes with clean-run results.
func TestEvaluateRecoverSinkAndExternalResume(t *testing.T) {
	w := eightSnapshotWindow(t)
	clean, err := mega.Evaluate(w, mega.SSWP, 0)
	if err != nil {
		t.Fatal(err)
	}

	var persisted []byte
	sink := func(b []byte) error {
		persisted = append(persisted[:0], b...)
		return nil
	}

	// Process one: a periodic fault fires at every round boundary from
	// visit 5 on, so every attempt dies and the process "crashes" with
	// only the sink-persisted checkpoint surviving.
	op, err := mega.ParseFaultOp("engine.round:transient@5x1")
	if err != nil {
		t.Fatal(err)
	}
	plan := mega.NewFaultPlan(5).Add(op)
	ctx := mega.WithFaultPlan(context.Background(), plan)
	instantBackoff(t)
	_, _, err = mega.EvaluateRecover(ctx, w, mega.SSWP, 0, mega.BOE, mega.RecoverOptions{
		CheckpointEvery: 1,
		MaxRetries:      1,
		Sink:            sink,
	})
	if !mega.IsTransient(err) {
		t.Fatalf("process one = %v, want to die on the periodic transient fault", err)
	}
	if len(persisted) == 0 {
		t.Fatal("sink never received a checkpoint")
	}

	// Process two: fresh context, resume purely from the persisted bytes.
	got, rec, err := mega.EvaluateRecover(context.Background(), w, mega.SSWP, 0, mega.BOE, mega.RecoverOptions{
		Checkpoint: persisted,
	})
	if err != nil {
		t.Fatalf("resume from persisted checkpoint = %v", err)
	}
	if rec.Attempts != 1 {
		t.Errorf("attempts = %d, want a single clean resumed run", rec.Attempts)
	}
	sameValues(t, clean, got)
}

// TestEvaluateRecoverRejectsCorruptCheckpoint checks a corrupted resume
// blob fails fast with ErrCheckpoint instead of being retried.
func TestEvaluateRecoverRejectsCorruptCheckpoint(t *testing.T) {
	w := eightSnapshotWindow(t)
	_, rec, err := mega.EvaluateRecover(context.Background(), w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{
		Checkpoint: []byte("definitely not a checkpoint"),
	})
	if !errors.Is(err, mega.ErrCheckpoint) {
		t.Fatalf("EvaluateRecover = %v, want ErrCheckpoint", err)
	}
	if rec.Attempts != 1 {
		t.Errorf("attempts = %d, want no retries for corrupt input", rec.Attempts)
	}
}

// TestEvaluateRecoverNoSinkCrashEquivalence is the crash-equivalence
// sweep for failure-time checkpoints: with no Sink or Store nothing is
// checkpointed periodically, so a retry resumes from a checkpoint of the
// failed engine's live state. One transient is injected at every round-
// and stage-boundary visit; every run must recover in exactly two
// attempts, the second a resume, with Float64bits-identical values.
func TestEvaluateRecoverNoSinkCrashEquivalence(t *testing.T) {
	w := soakWindow(t)
	clean, err := mega.Evaluate(w, mega.SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	instantBackoff(t)
	t.Run("multi", func(t *testing.T) {
		counter := mega.NewFaultPlan(1)
		if _, _, err := mega.EvaluateRecover(mega.WithFaultPlan(context.Background(), counter),
			w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, site := range []string{"engine.round", "engine.op"} {
			total := counter.Visits(fault.Site(site), -1)
			if total == 0 {
				t.Fatalf("baseline never visited %s", site)
			}
			for kill := uint64(1); kill <= total; kill++ {
				spec := site + ":transient@" + itoa(kill)
				op, err := mega.ParseFaultOp(spec)
				if err != nil {
					t.Fatal(err)
				}
				ctx := mega.WithFaultPlan(context.Background(), mega.NewFaultPlan(1).Add(op))
				got, rec, err := mega.EvaluateRecover(ctx, w, mega.SSSP, 0, mega.BOE, mega.RecoverOptions{})
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				if rec.Attempts != 2 || rec.Resumes != 1 {
					t.Fatalf("%s: recovery = %+v, want 2 attempts, 1 resume", spec, rec)
				}
				identicalBits(t, spec, clean, got)
			}
		}
	})
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
