// Package megaerr defines the error contract shared by every execution
// layer of the reproduction: sentinel errors matched with errors.Is and
// typed errors inspected with errors.As. The engines (internal/engine),
// the aggregate simulator (internal/sim), the cycle-level simulator
// (internal/uarch) and the input loaders (internal/gen, internal/evolve)
// all classify their failures through this package, so callers at the
// mega API boundary can dispatch on failure kind without string matching.
//
// The package is dependency-free by design: it sits below every other
// internal package.
package megaerr

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors. Match with errors.Is.
var (
	// ErrCanceled marks a run aborted by context cancellation or
	// deadline expiry. Errors carrying it also carry the original
	// context error, so errors.Is(err, context.Canceled) and
	// errors.Is(err, context.DeadlineExceeded) keep working.
	ErrCanceled = errors.New("mega: execution canceled")

	// ErrDivergence marks a fixpoint loop that exceeded its divergence
	// watchdog limit (rounds, events, or cycles) — the signature of a
	// non-monotone user-supplied Algorithm. Inspect the carrying
	// *DivergenceError with errors.As for diagnosis.
	ErrDivergence = errors.New("mega: fixpoint diverged")

	// ErrInvalidInput marks malformed caller input: unparsable edge
	// lists, inconsistent window parts, out-of-range sources, invalid
	// schedules or configurations.
	ErrInvalidInput = errors.New("mega: invalid input")

	// ErrTransient marks a failure that a retry may survive: an injected
	// fault, a flaky I/O layer, a lost worker. Retry policy dispatches on
	// IsTransient instead of enumerating causes.
	ErrTransient = errors.New("mega: transient fault")

	// ErrCheckpoint marks a checkpoint that cannot be restored: truncated
	// or corrupted bytes, a checksum mismatch, or a checkpoint taken from
	// a different window/algorithm/schedule than the restoring engine's.
	ErrCheckpoint = errors.New("mega: bad checkpoint")

	// ErrAudit marks a violated model invariant: an internal conservation
	// law (byte attribution, queue push/take balance, cache residency)
	// failed a strict-mode audit. An audit failure is a modeling bug, not
	// bad input — it is never transient and never caller-fixable.
	ErrAudit = errors.New("mega: invariant audit failed")

	// ErrOverload marks a request the query service refused to take on:
	// its run semaphore and wait queue were both full (or the service was
	// draining), and admitting the request would have queued it
	// unboundedly. Overload is a load-shedding decision, not a fault in
	// the request — the same request can succeed when offered load drops.
	ErrOverload = errors.New("mega: service overloaded")
)

// CanceledError wraps the context error observed at a lifecycle
// checkpoint. It matches both ErrCanceled and the underlying context
// error (context.Canceled or context.DeadlineExceeded).
type CanceledError struct {
	// Phase names the checkpoint that observed the cancellation,
	// e.g. "engine round", "parallel barrier", "uarch cycle".
	Phase string
	// Err is the context's error.
	Err error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("mega: %s: %v", e.Phase, e.Err)
}

// Unwrap lets errors.Is match both ErrCanceled and the context error.
func (e *CanceledError) Unwrap() []error { return []error{ErrCanceled, e.Err} }

// Canceled wraps a context error observed at the named phase. cause must
// be non-nil (the ctx.Err() that tripped the check).
func Canceled(phase string, cause error) error {
	return &CanceledError{Phase: phase, Err: cause}
}

// DivergenceError reports a fixpoint loop aborted by the divergence
// watchdog, with enough state to diagnose the oscillation. It matches
// ErrDivergence under errors.Is.
type DivergenceError struct {
	// Engine names the execution layer: "engine", "parallel", "uarch",
	// "uarch-stream".
	Engine string
	// Limit names the tripped bound: "MaxRounds", "MaxEvents",
	// "MaxCycles".
	Limit string
	// Rounds is the round count at abort (round-based engines).
	Rounds int
	// Cycles is the cycle count at abort (cycle-level simulators).
	Cycles int64
	// Events is the number of events processed before the abort.
	Events int64
	// LiveEvents is the number of events still pending at abort; a
	// diverging run keeps this persistently nonzero.
	LiveEvents int64
	// SampleVertex is one vertex with a pending event at abort — in a
	// diverging run, typically a member of the oscillating set. -1 when
	// no sample was available.
	SampleVertex int64
}

// Error implements error.
func (e *DivergenceError) Error() string {
	where := fmt.Sprintf("%d rounds", e.Rounds)
	if e.Limit == "MaxCycles" {
		where = fmt.Sprintf("%d cycles", e.Cycles)
	}
	sample := ""
	if e.SampleVertex >= 0 {
		sample = fmt.Sprintf(", sample vertex %d", e.SampleVertex)
	}
	return fmt.Sprintf("mega: %s exceeded %s after %s (%d events processed, %d live%s); non-monotone algorithm?",
		e.Engine, e.Limit, where, e.Events, e.LiveEvents, sample)
}

// Unwrap lets errors.Is match ErrDivergence.
func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// WorkerPanicError reports a panic recovered while a query was executing
// (an injected fault, or a bug in a caller's Algorithm). The recovery loop
// and the query service contain it and return this instead of crashing
// the process; it is never retried.
type WorkerPanicError struct {
	// Shard is the panicking worker's index. The engine runs on its
	// caller's goroutine, which is reported as -1; other values only
	// arrive decoded from the wire.
	Shard int
	// Round is the round during which the panic occurred, when known.
	Round int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *WorkerPanicError) Error() string {
	who := fmt.Sprintf("worker %d", e.Shard)
	if e.Shard < 0 {
		who = "seeding loop"
	}
	return fmt.Sprintf("mega: panic in %s (round %d): %v", who, e.Round, e.Value)
}

// TransientError marks a retryable failure. It matches ErrTransient
// under errors.Is and also matches its cause, when one was wrapped.
type TransientError struct {
	// Op names what was being attempted when the fault struck,
	// e.g. "fault engine.round visit 12" or "gen: reading meta".
	Op string
	// Err is the underlying cause; nil for synthetic (injected) faults.
	Err error
}

// Error implements error.
func (e *TransientError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("mega: transient fault: %s", e.Op)
	}
	return fmt.Sprintf("mega: transient fault: %s: %v", e.Op, e.Err)
}

// Unwrap lets errors.Is match ErrTransient and the cause.
func (e *TransientError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrTransient}
	}
	return []error{ErrTransient, e.Err}
}

// Transientf builds an ErrTransient-matching error with a formatted
// operation description. Use for synthetic faults with no underlying cause.
func Transientf(format string, args ...any) error {
	return &TransientError{Op: fmt.Sprintf(format, args...)}
}

// MarkTransient wraps err as retryable; the result matches both
// ErrTransient and err. A nil err returns nil.
func MarkTransient(op string, err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Op: op, Err: err}
}

// IsTransient reports whether err is retryable — whether restarting the
// failed operation (possibly from a checkpoint) can plausibly succeed.
// Cancellation, divergence, invalid input and checkpoint corruption are
// never transient: retrying them repeats the failure.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// CheckpointError reports an unrestorable checkpoint. It matches
// ErrCheckpoint under errors.Is.
type CheckpointError struct {
	// Reason describes the rejection, e.g. "checksum mismatch" or
	// "checkpoint for 1024 vertices, engine has 2048".
	Reason string
	// Quarantined is true when the corrupt bytes were moved aside and a
	// previous good generation (or a fresh start) answers instead: the
	// corruption was observed and survived rather than fatal. Callers
	// that see Quarantined should treat the error as informational — the
	// store already recovered — while still matching ErrCheckpoint for
	// taxonomy purposes.
	Quarantined bool
}

// Error implements error.
func (e *CheckpointError) Error() string {
	if e.Quarantined {
		return fmt.Sprintf("mega: bad checkpoint (quarantined): %s", e.Reason)
	}
	return fmt.Sprintf("mega: bad checkpoint: %s", e.Reason)
}

// Unwrap lets errors.Is match ErrCheckpoint.
func (e *CheckpointError) Unwrap() error { return ErrCheckpoint }

// Checkpointf builds an ErrCheckpoint-matching error with a formatted
// reason.
func Checkpointf(format string, args ...any) error {
	return &CheckpointError{Reason: fmt.Sprintf(format, args...)}
}

// QuarantinedCheckpointf builds an ErrCheckpoint-matching error whose
// Quarantined flag is set: the corrupt generation was moved aside and an
// older good generation (or a fresh start) will serve instead.
func QuarantinedCheckpointf(format string, args ...any) error {
	return &CheckpointError{Reason: fmt.Sprintf(format, args...), Quarantined: true}
}

// AuditError reports a violated model invariant. It matches ErrAudit
// under errors.Is.
type AuditError struct {
	// Invariant names the conservation law that failed, e.g.
	// "sim.dram_attribution" or "engine.queue_conservation".
	Invariant string
	// Detail describes the violation with the numbers that disagree.
	Detail string
}

// Error implements error.
func (e *AuditError) Error() string {
	return fmt.Sprintf("mega: audit %s failed: %s", e.Invariant, e.Detail)
}

// Unwrap lets errors.Is match ErrAudit.
func (e *AuditError) Unwrap() error { return ErrAudit }

// Auditf builds an ErrAudit-matching error for the named invariant with a
// formatted detail message.
func Auditf(invariant, format string, args ...any) error {
	return &AuditError{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// OverloadError reports a request rejected (or a queued request shed) by
// the query service's admission control. It matches ErrOverload under
// errors.Is.
type OverloadError struct {
	// Reason describes the rejection: "queue full", "tenant queue full",
	// "shed by higher-priority request", "shed over tenant quota",
	// "service draining", "service closed".
	Reason string
	// Tenant, when non-empty, names the tenant whose quota or queue drove
	// the decision — overload is tenant-scoped under multi-tenant
	// admission, and a well-behaved tenant should never see another
	// tenant's name here.
	Tenant string
	// Capacity is the service's concurrent-run bound at rejection time.
	Capacity int
	// Queued is how many requests were already waiting.
	Queued int
	// RetryAfter, when nonzero, is the service's estimate of how long the
	// caller should wait before retrying (see serve.RetryAfterHint). HTTP
	// front ends surface it as a Retry-After header.
	RetryAfter time.Duration
	// RetryNow is true when the service explicitly said to retry
	// immediately (e.g. a "Retry-After: 0" header) — distinct from the
	// zero RetryAfter, which only means no hint was given. Retry loops
	// should skip their back-off when set.
	RetryNow bool
}

// Error implements error. The message is self-describing: it names the
// rejection reason, the capacity and queue occupancy that forced it, the
// tenant when the decision was tenant-scoped, and the retry hint when
// one was computed.
func (e *OverloadError) Error() string {
	msg := fmt.Sprintf("mega: overloaded (%s): %d running allowed, %d queued", e.Reason, e.Capacity, e.Queued)
	if e.Tenant != "" {
		msg += fmt.Sprintf("; tenant %s", e.Tenant)
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf("; retry after ~%s", e.RetryAfter)
	}
	return msg
}

// Unwrap lets errors.Is match ErrOverload.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// Overloadf builds an ErrOverload-matching error with a formatted reason.
func Overloadf(capacity, queued int, format string, args ...any) error {
	return &OverloadError{Reason: fmt.Sprintf(format, args...), Capacity: capacity, Queued: queued}
}

// invalidError carries a descriptive message and matches ErrInvalidInput.
type invalidError struct{ msg string }

func (e *invalidError) Error() string { return e.msg }
func (e *invalidError) Unwrap() error { return ErrInvalidInput }

// Invalidf builds an ErrInvalidInput-matching error with a formatted
// message. Use like fmt.Errorf; %w verbs are not supported.
func Invalidf(format string, args ...any) error {
	return &invalidError{msg: fmt.Sprintf(format, args...)}
}
