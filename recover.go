package mega

import (
	"context"
	"runtime/debug"
	"time"

	"mega/internal/algo"
	"mega/internal/ckptstore"
	"mega/internal/engine"
	"mega/internal/fault"
	"mega/internal/gen"
	"mega/internal/megaerr"
	"mega/internal/sched"
)

// Fault-injection surface (internal/fault re-exported). A FaultPlan is a
// deterministic, seeded schedule of injectable failures — transient
// errors, panics, cancellations, latency spikes — that fire at named
// execution sites on exact visit counts. Carry one into any Context
// variant with WithFaultPlan; runs without a plan pay a single nil check
// per site.
type (
	// FaultPlan is a deterministic fault-injection schedule.
	FaultPlan = fault.Plan
	// FaultOp is one injectable fault of a plan.
	FaultOp = fault.Op
)

// NewFaultPlan returns an empty plan whose probabilistic ops draw from
// the given seed.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// WithFaultPlan attaches a fault plan to a context; every Context variant
// of this package consults it at its execution sites.
func WithFaultPlan(ctx context.Context, p *FaultPlan) context.Context {
	return fault.Inject(ctx, p)
}

// ParseFaultOp parses the "site[#shard]:kind[=latency]@visit[xevery]"
// grammar, e.g. "engine.round:transient@120" or "engine.round:panic@3".
func ParseFaultOp(spec string) (FaultOp, error) { return fault.ParseOp(spec) }

// FaultPlanFromContext returns the fault plan carried by ctx, or nil —
// useful for handing a request's plan to components configured outside
// the context flow (e.g. a checkpoint store's io seam).
func FaultPlanFromContext(ctx context.Context) *FaultPlan { return fault.From(ctx) }

// Transient/checkpoint error contract (see the package error contract).
var (
	// ErrTransient marks retryable faults; a run aborted by one can be
	// resumed from its last checkpoint.
	ErrTransient = megaerr.ErrTransient
	// ErrCheckpoint reports corrupt or mismatched checkpoint bytes.
	ErrCheckpoint = megaerr.ErrCheckpoint
)

type (
	// TransientError carries the site and cause of a retryable fault.
	TransientError = megaerr.TransientError
	// CheckpointError carries the reason checkpoint bytes were rejected.
	CheckpointError = megaerr.CheckpointError
)

// IsTransient reports whether err is worth retrying — equivalent to
// errors.Is(err, ErrTransient).
func IsTransient(err error) bool { return megaerr.IsTransient(err) }

// LoadEvolutionContext is LoadEvolution under a lifecycle: a fault plan
// carried by ctx is consulted once per dataset file.
func LoadEvolutionContext(ctx context.Context, dir string) (*Evolution, error) {
	return gen.LoadContext(ctx, dir)
}

// RecoverOptions configures EvaluateRecover's retry policy. The zero value
// allows up to 3 restarts, each resuming from a checkpoint taken at the
// failure point; periodic checkpoints are encoded only when a Sink or
// Store consumes them.
type RecoverOptions struct {
	// CheckpointEvery is the round interval between automatic
	// checkpoints (0 = every 32 rounds); they are also taken at every
	// batch boundary. The cadence applies only when a Sink or Store
	// consumes the checkpoints: with neither, a fault-free run encodes
	// none, and a retry resumes from a checkpoint of the failed engine's
	// live state taken at the failure itself.
	CheckpointEvery int

	// MaxRetries bounds how many times a failed attempt is restarted
	// (0 = 3). Only transient failures are retried.
	MaxRetries int
	// Backoff is the base delay before a retry; attempt n waits
	// (n+1)×Backoff (0 = 5ms). The wait respects ctx cancellation.
	Backoff time.Duration

	// Limits configures the divergence watchdog (zero = safe defaults).
	Limits Limits

	// Checkpoint, when non-nil, resumes the first attempt from these
	// checkpoint bytes instead of starting fresh.
	Checkpoint []byte
	// Sink, when non-nil, switches periodic checkpoints on (see
	// CheckpointEvery) and receives every one (e.g. to persist it
	// atomically to disk). A sink error aborts the run.
	Sink func([]byte) error

	// Store, when non-nil, switches periodic checkpoints on (see
	// CheckpointEvery) and spools every one durably
	// under StoreID (composing with Sink, which still runs after the
	// store write) and, when Checkpoint is nil, resumes the first attempt
	// from the store's latest good generation. On success the entry is
	// deleted — the checkpoints are obsolete. A store-loaded checkpoint
	// the engine rejects is quarantined and the attempt restarts fresh
	// instead of failing the query.
	Store *ckptstore.Store
	// StoreID keys the query's directory in Store: the window content
	// fingerprint plus algorithm, source, and tenant.
	StoreID ckptstore.QueryID

	// Metrics, when non-nil, receives the retry loop's counters
	// (recover_attempts, recover_resumes, recover_backoff_waits) and, from
	// the successful attempt's engine, the engine-level counter families
	// and queue audits.
	Metrics *MetricsRegistry
}

// Recovery reports what EvaluateRecover's retry loop did.
type Recovery struct {
	// Attempts counts engine runs, including the successful one.
	Attempts int
	// Resumes counts attempts that restored a checkpoint (rather than
	// restarting from scratch).
	Resumes int
	// DurableResume is true when the first attempt restored a checkpoint
	// loaded from the durable store (RecoverOptions.Store) — the query
	// picked up where a previous process left off.
	DurableResume bool
	// Faults records the error of every failed attempt, in order.
	Faults []string
	// Base is always nil; kept for the frozen harness (benchmark/), removed by ROADMAP item 1.
	Base []float64
}

// sleepRetry waits for the backoff duration or until ctx is done,
// returning the context's error on cancellation. It is a package-private
// hook so retry tests can replace the real clock with a recorder and run
// instantly; the default is the real timer.
var sleepRetry = func(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// EvaluateRecover evaluates the query like EvaluateContext but survives
// transient faults: on one, a fresh engine resumes from a checkpoint after
// a short backoff. Recovery is pay-as-you-go. With a Sink or Store the run
// checkpoints periodically (every CheckpointEvery rounds and at batch
// boundaries) and a retry resumes from the last one delivered. With
// neither, a fault-free run encodes nothing; a transient fault surfaces at
// a round or stage boundary, so the retry checkpoints the failed engine's
// live state and resumes at the failure point itself. A panic inside the
// engine is contained and returned as a *WorkerPanicError, never retried:
// its live state may be torn, and whatever panicked would panic again. The
// returned Recovery describes what happened; it is non-nil even on error.
func EvaluateRecover(ctx context.Context, w *Window, k AlgorithmKind, source VertexID, mode ScheduleMode, opt RecoverOptions) ([][]float64, *Recovery, error) {
	every := opt.CheckpointEvery
	if every <= 0 {
		every = 32
	}
	retries := opt.MaxRetries
	if retries <= 0 {
		retries = 3
	}
	backoff := opt.Backoff
	if backoff <= 0 {
		backoff = 5 * time.Millisecond
	}

	s, err := sched.New(sched.Mode(mode), w)
	if err != nil {
		return nil, &Recovery{}, err
	}
	a := algo.New(k)
	lastCkpt := opt.Checkpoint
	rec := &Recovery{}

	// Durable spooling: checkpoints flow to the store first, then to the
	// caller's sink. An explicit opt.Checkpoint outranks the store's
	// latest generation; otherwise the first attempt resumes durably.
	sink := opt.Sink
	var storeGen uint64
	fromStore := false
	if opt.Store != nil {
		storeSink := opt.Store.Sink(opt.StoreID)
		if user := opt.Sink; user != nil {
			sink = func(ckpt []byte) error {
				if err := storeSink(ckpt); err != nil {
					return err
				}
				return user(ckpt)
			}
		} else {
			sink = storeSink
		}
		if lastCkpt == nil {
			data, gen, lerr := opt.Store.Load(opt.StoreID)
			if lerr != nil {
				return nil, rec, lerr
			}
			if data != nil {
				lastCkpt, storeGen, fromStore = data, gen, true
			}
		}
	}

	for {
		rec.Attempts++
		if opt.Metrics != nil {
			opt.Metrics.Counter("recover_attempts").Inc()
		}
		eng, err := engine.NewMulti(w, a, source, nil)
		if err != nil {
			return nil, rec, err
		}
		// Attach the registry to every attempt: the engine records its
		// counter families only at successful completion, so failed
		// attempts contribute the retry-loop counters but no engine rows.
		eng.SetMetrics(opt.Metrics)
		if sink != nil {
			// Periodic checkpoints are encoded only for a consumer.
			eng.SetCheckpointEvery(every)
			eng.SetCheckpointSink(sink)
		}
		if lastCkpt != nil {
			if err := eng.Restore(lastCkpt); err != nil {
				if fromStore {
					// The durable checkpoint passed the store's CRC gate
					// but does not fit this engine (stale schema or an
					// identity-fold collision): quarantine it and restart
					// fresh rather than failing the query.
					_ = opt.Store.Quarantine(opt.StoreID, storeGen)
					rec.Faults = append(rec.Faults, err.Error())
					fromStore = false
					lastCkpt = nil
					continue
				}
				// Corrupt or mismatched checkpoint: unrecoverable input.
				return nil, rec, err
			}
			if fromStore {
				fromStore = false
				rec.DurableResume = true
				if opt.Metrics != nil {
					opt.Metrics.Counter("recover_durable_resumes").Inc()
				}
			}
			if rec.Attempts > 1 {
				rec.Resumes++
				if opt.Metrics != nil {
					opt.Metrics.Counter("recover_resumes").Inc()
				}
			}
		}

		err = runContained(ctx, eng, s, opt.Limits)
		if err == nil {
			out := make([][]float64, w.NumSnapshots())
			for snap := range out {
				out[snap] = eng.SnapshotValues(s, snap)
			}
			if opt.Store != nil {
				// The query completed; its durable checkpoints are
				// obsolete. Best effort — a failed delete only leaves an
				// orphan that a future restart re-runs to the same result.
				if derr := opt.Store.Delete(opt.StoreID); derr != nil {
					rec.Faults = append(rec.Faults, derr.Error())
				}
			}
			return out, rec, nil
		}
		rec.Faults = append(rec.Faults, err.Error())
		if !IsTransient(err) || rec.Attempts > retries {
			return nil, rec, err
		}

		if sink != nil {
			// The retained auto-checkpoint was serialized at an earlier
			// consistent round or stage boundary.
			if ckpt := eng.LastCheckpoint(); ckpt != nil {
				lastCkpt = ckpt
			}
		} else if ckpt, cerr := eng.Checkpoint(); cerr == nil {
			// No periodic checkpoints: take one now. Transient faults fire
			// at round and stage boundaries, where the live state is
			// consistent.
			lastCkpt = ckpt
		}
		wait := time.Duration(rec.Attempts) * backoff
		if opt.Metrics != nil {
			opt.Metrics.Counter("recover_backoff_waits").Inc()
			opt.Metrics.Histogram("recover_backoff_nanos").Observe(wait.Nanoseconds())
		}
		if serr := sleepRetry(ctx, wait); serr != nil {
			return nil, rec, &megaerr.CanceledError{Phase: "recovery backoff", Err: serr}
		}
	}
}

// runContained runs the engine, converting any panic that escapes it (an
// injected one, or a bug in an Algorithm) into a *WorkerPanicError, so a
// query that panics fails alone, with a typed error carrying the stack,
// instead of taking its process down. Shard is -1: the engine runs on the
// caller's goroutine.
func runContained(ctx context.Context, eng *engine.Multi, s *Schedule, lim Limits) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &megaerr.WorkerPanicError{Shard: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return eng.RunContext(ctx, s, lim)
}
