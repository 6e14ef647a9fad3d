package engine

import (
	"context"
	"math"

	"mega/internal/megaerr"
)

// Unlimited disables a Limits bound.
const Unlimited = -1

// Limits is the divergence watchdog configuration shared by every
// execution layer. A monotone Algorithm converges well inside these
// bounds; a non-monotone one (the extension point's failure mode) trips
// them and surfaces megaerr.ErrDivergence instead of spinning forever.
//
// Zero-valued fields select safe defaults derived from the problem size
// (see DefaultLimits); set a field to Unlimited (-1) to disable that
// bound explicitly.
type Limits struct {
	// MaxRounds bounds the rounds of one drain-to-quiescence loop (one
	// batch application, or one static solve). Monotone selection
	// algorithms settle within numVertices rounds (the Bellman-Ford
	// argument: after k rounds every best path of ≤ k edges is final),
	// so the default of 2·V + 64 cannot trip a legitimate run. The served
	// static solve (SolveContext with no probe and a built-in algorithm)
	// is best-first and has no rounds: it is held to what MaxRounds rounds
	// could process, MaxRounds · V vertex expansions — V of them settle a
	// converging solve, and the default MaxEvents is that same product.
	MaxRounds int
	// MaxEvents bounds the events processed across one engine Run. The
	// default is the round-model ceiling MaxRounds · V · contexts —
	// unreachable by a converging run because MaxRounds trips first.
	MaxEvents int64
	// MaxCycles bounds the cycle-level simulators' clock. 0 derives a
	// ceiling from MaxEvents and the configured memory latency.
	MaxCycles int64
}

// DefaultLimits derives the safe watchdog bounds for a problem with the
// given vertex count and concurrent context (snapshot) count.
func DefaultLimits(numVertices, contexts int) Limits {
	if numVertices < 1 {
		numVertices = 1
	}
	if contexts < 1 {
		contexts = 1
	}
	rounds := 2*numVertices + 64
	return Limits{
		MaxRounds: rounds,
		MaxEvents: satMul3(int64(rounds), int64(numVertices), int64(contexts)),
	}
}

// withDefaults fills zero-valued fields from DefaultLimits; Unlimited
// fields pass through as "no bound".
func (l Limits) withDefaults(numVertices, contexts int) Limits {
	d := DefaultLimits(numVertices, contexts)
	if l.MaxRounds == 0 {
		l.MaxRounds = d.MaxRounds
	}
	if l.MaxEvents == 0 {
		l.MaxEvents = d.MaxEvents
	}
	return l
}

// roundsExceeded reports whether round trips MaxRounds.
func (l Limits) roundsExceeded(round int) bool {
	return l.MaxRounds > 0 && round >= l.MaxRounds
}

// eventsExceeded reports whether events trips MaxEvents.
func (l Limits) eventsExceeded(events int64) bool {
	return l.MaxEvents > 0 && events > l.MaxEvents
}

// satMul3 multiplies saturating at MaxInt64 (huge windows must widen the
// watchdog, not wrap it).
func satMul3(a, b, c int64) int64 {
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	ab := a * b
	if ab > math.MaxInt64/c {
		return math.MaxInt64
	}
	return ab * c
}

// checkCtx returns a typed cancellation error when ctx is done.
func checkCtx(ctx context.Context, phase string) error {
	if err := ctx.Err(); err != nil {
		return megaerr.Canceled(phase, err)
	}
	return nil
}

// CheckContext is checkCtx for the other execution layers (sim, uarch):
// it returns a megaerr.Canceled-wrapped ctx.Err() when ctx is done, nil
// otherwise.
func CheckContext(ctx context.Context, phase string) error {
	return checkCtx(ctx, phase)
}
