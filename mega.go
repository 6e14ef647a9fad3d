// Package mega is a from-scratch reproduction of "MEGA: Evolving Graph
// Accelerator" (MICRO 2023): a library for evaluating iterative graph
// queries over windows of evolving-graph snapshots, together with a
// cycle-level simulator of the MEGA accelerator and its JetStream
// streaming baseline.
//
// The core ideas, all implemented here:
//
//   - CommonGraph: a window of N snapshots is stored as the edges common
//     to all snapshots plus addition-only batches, eliminating expensive
//     deletion processing (Window, NewWindow).
//   - The unified evolving-graph CSR: one union CSR with per-edge
//     snapshot-membership tags (Window.Unified).
//   - Execution schedules: Direct-Hop, Work-Sharing, and MEGA's
//     Batch-Oriented Execution with its shared-computation broadcast and
//     shared edge fetches (NewSchedule).
//   - An event-driven, delta-accumulative functional engine for the five
//     paper algorithms — BFS, SSSP, SSWP, SSNP, Viterbi (Evaluate, Solve).
//   - A timing simulator that charges the accelerator's datapath —
//     PEs, coalescing event queue, NoC, edge cache, DRAM, partitioning,
//     batch pipelining (Simulate, SimulateJetStream).
//
// # Quick start
//
//	spec := mega.GraphSpec{Name: "demo", Vertices: 1 << 12, Edges: 1 << 16,
//		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 1}
//	ev, _ := mega.Evolve(spec, mega.EvolutionSpec{Snapshots: 8, BatchFraction: 0.01, Seed: 2})
//	w, _ := mega.NewWindow(ev)
//	values, _ := mega.Evaluate(w, mega.SSSP, 0) // per-snapshot SSSP results
//
// Deeper control lives in the same package: build schedules explicitly,
// run the simulator with a custom Config, or compare against the
// JetStream baseline.
package mega

import (
	"context"

	"mega/internal/algo"
	"mega/internal/engine"
	"mega/internal/evolve"
	"mega/internal/gen"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/sched"
	"mega/internal/sim"
	"mega/internal/uarch"
)

// Error contract. Every failure returned by this package matches exactly
// one of these sentinels under errors.Is:
//
//   - ErrInvalidInput — malformed graphs, schedules, configurations or
//     input files; retrying cannot help.
//   - ErrCanceled — a Context variant observed ctx cancellation or
//     deadline expiry; errors.Is also matches the underlying
//     context.Canceled / context.DeadlineExceeded.
//   - ErrDivergence — the divergence watchdog aborted a run whose
//     Algorithm failed to converge (errors.As against *DivergenceError
//     recovers the diagnostic counters).
//
// EvaluateRecover and the query service contain a panic inside the engine
// and surface it as a *WorkerPanicError (errors.As) instead of crashing
// the process.
var (
	// ErrCanceled reports cooperative cancellation.
	ErrCanceled = megaerr.ErrCanceled
	// ErrDivergence reports a tripped divergence watchdog.
	ErrDivergence = megaerr.ErrDivergence
	// ErrInvalidInput reports a rejected input or configuration.
	ErrInvalidInput = megaerr.ErrInvalidInput
)

// Typed errors (use errors.As).
type (
	// CanceledError carries the phase at which cancellation was observed.
	CanceledError = megaerr.CanceledError
	// DivergenceError carries the watchdog's diagnostic counters.
	DivergenceError = megaerr.DivergenceError
	// WorkerPanicError carries a contained engine panic.
	WorkerPanicError = megaerr.WorkerPanicError
)

// Limits configures the divergence watchdog of the Context variants.
// The zero value selects safe defaults derived from the problem size.
type Limits = engine.Limits

// Unlimited disables one Limits bound.
const Unlimited = engine.Unlimited

// DefaultLimits returns the watchdog bounds a zero Limits resolves to for
// the window.
func DefaultLimits(w *Window) Limits {
	return engine.DefaultLimits(w.NumVertices(), w.NumSnapshots())
}

// Graph types.
type (
	// Graph is an immutable CSR graph.
	Graph = graph.CSR
	// Edge is a directed weighted edge.
	Edge = graph.Edge
	// EdgeList is a set of edges with set-algebra helpers.
	EdgeList = graph.EdgeList
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// UnifiedCSR is the unified evolving-graph representation (Fig. 6).
	UnifiedCSR = graph.UnifiedCSR
	// SnapshotMask is a bitmask of snapshot indexes.
	SnapshotMask = graph.SnapshotMask
)

// Evolving-graph types.
type (
	// Window is a CommonGraph-decomposed group of snapshots.
	Window = evolve.Window
	// Batch is one addition-only batch of the window.
	Batch = evolve.Batch
	// Evolution is a generated evolving-graph history.
	Evolution = gen.Evolution
	// GraphSpec describes a synthetic R-MAT graph.
	GraphSpec = gen.GraphSpec
	// EvolutionSpec describes a synthetic evolution.
	EvolutionSpec = gen.EvolutionSpec
)

// Execution types.
type (
	// Algorithm is the DAIC contract of one query.
	Algorithm = algo.Algorithm
	// AlgorithmKind enumerates the built-in algorithms.
	AlgorithmKind = algo.Kind
	// Schedule is an ordered operation list over value contexts.
	Schedule = sched.Schedule
	// ScheduleMode selects Direct-Hop, Work-Sharing or BOE.
	ScheduleMode = sched.Mode
	// Stats are exact functional execution counts.
	Stats = engine.Stats
	// Probe observes engine execution.
	Probe = engine.Probe
	// SimConfig holds the simulated machine's parameters.
	SimConfig = sim.Config
	// SimResult is a simulated run's timing and counts.
	SimResult = sim.Result
)

// Algorithms (Table 1), plus the CC extension (self-seeding connected
// components, demonstrating §3.2's generality claim).
const (
	BFS     = algo.BFS
	SSSP    = algo.SSSP
	SSWP    = algo.SSWP
	SSNP    = algo.SSNP
	Viterbi = algo.Viterbi
	CC      = algo.CC
)

// Schedule modes.
const (
	DirectHop   = sched.DirectHop
	WorkSharing = sched.WorkSharing
	BOE         = sched.BOE
)

// NewGraph builds an immutable CSR graph.
func NewGraph(numVertices int, edges []Edge) (*Graph, error) {
	return graph.NewCSR(numVertices, edges)
}

// NewWindow decomposes a generated evolution into CommonGraph + batches.
func NewWindow(ev *Evolution) (*Window, error) {
	return evolve.NewWindow(ev)
}

// NewWindowFromParts builds a Window from an initial snapshot and per-hop
// addition/deletion batches. See evolve.NewWindowFromParts for the
// required disjointness invariant.
func NewWindowFromParts(numVertices, snapshots int, initial EdgeList, adds, dels []EdgeList) (*Window, error) {
	return evolve.NewWindowFromParts(numVertices, snapshots, initial, adds, dels)
}

// Evolve synthesizes an evolving-graph history.
func Evolve(gspec GraphSpec, espec EvolutionSpec) (*Evolution, error) {
	return gen.Evolve(gspec, espec)
}

// PaperGraphs returns the scaled stand-ins for the paper's six inputs.
func PaperGraphs() []GraphSpec { return gen.PaperGraphs }

// SaveEvolution writes an evolution dataset as a plain-text directory.
func SaveEvolution(ev *Evolution, dir string) error { return ev.Save(dir) }

// LoadEvolution reads a dataset previously written by SaveEvolution.
func LoadEvolution(dir string) (*Evolution, error) { return gen.Load(dir) }

// LoadEdgeList reads a SNAP-style "src dst [weight]" edge-list file,
// densely remapping vertex IDs.
func LoadEdgeList(path string, defaultWeight float64) (int, EdgeList, error) {
	return gen.LoadEdgeList(path, defaultWeight)
}

// EvolveFromEdges synthesizes an evolving-graph history from a fixed
// (e.g. real-world) edge set, as the paper's §5.1 does: a reserved subset
// arrives as additions over the window, sampled edges leave as deletions.
func EvolveFromEdges(numVertices int, edges EdgeList, espec EvolutionSpec) (*Evolution, error) {
	return gen.EvolveFromEdgeList(numVertices, edges, espec)
}

// SimulateRecompute runs the naive baseline: a from-scratch solve of every
// snapshot on the accelerator.
func SimulateRecompute(w *Window, k AlgorithmKind, source VertexID, cfg SimConfig) (*SimResult, error) {
	return sim.RunRecompute(w, k, source, cfg)
}

// SimulateRecomputeContext is SimulateRecompute under a lifecycle: ctx is
// checked before each snapshot solve and at every round inside it.
func SimulateRecomputeContext(ctx context.Context, w *Window, k AlgorithmKind, source VertexID, cfg SimConfig) (*SimResult, error) {
	return sim.RunRecomputeContext(ctx, w, k, source, cfg)
}

// Cycle-level simulation types (internal/uarch): a per-cycle
// microarchitectural model of the BOE datapath that executes the query
// through explicit components, cross-validating the aggregate model.
type (
	// UarchConfig holds the microarchitectural parameters.
	UarchConfig = uarch.Config
	// UarchResult is a cycle-level run's outcome.
	UarchResult = uarch.Result
)

// DefaultUarchConfig mirrors DefaultSimConfig at cycle granularity.
func DefaultUarchConfig() UarchConfig { return uarch.DefaultConfig() }

// SimulateCycleLevel runs the BOE workflow on the cycle-by-cycle
// microarchitectural simulator.
func SimulateCycleLevel(w *Window, k AlgorithmKind, source VertexID, cfg UarchConfig) (*UarchResult, error) {
	return uarch.Run(w, k, source, cfg)
}

// SimulateCycleLevelContext is SimulateCycleLevel under a lifecycle: ctx
// is checked every 1024 simulated cycles, and cfg.MaxCycles (defaulted
// from the problem size when zero) bounds the run.
func SimulateCycleLevelContext(ctx context.Context, w *Window, k AlgorithmKind, source VertexID, cfg UarchConfig) (*UarchResult, error) {
	return uarch.RunContext(ctx, w, k, source, cfg)
}

// UarchStreamResult is the cycle-level streaming baseline's outcome.
type UarchStreamResult = uarch.StreamResult

// SimulateStreamCycleLevel runs the JetStream streaming baseline —
// including its phased deletion invalidation — on the cycle-by-cycle
// microarchitectural simulator.
func SimulateStreamCycleLevel(ev *Evolution, k AlgorithmKind, source VertexID, cfg UarchConfig) (*UarchStreamResult, error) {
	return uarch.RunStream(ev, k, source, cfg)
}

// SimulateStreamCycleLevelContext is SimulateStreamCycleLevel under a
// lifecycle: ctx is checked every 1024 simulated cycles and before every
// evolution hop.
func SimulateStreamCycleLevelContext(ctx context.Context, ev *Evolution, k AlgorithmKind, source VertexID, cfg UarchConfig) (*UarchStreamResult, error) {
	return uarch.RunStreamContext(ctx, ev, k, source, cfg)
}

// NewAlgorithm returns the Algorithm implementation for a kind.
func NewAlgorithm(k AlgorithmKind) Algorithm { return algo.New(k) }

// ParseAlgorithm converts a name such as "SSSP" to its kind.
func ParseAlgorithm(name string) (AlgorithmKind, error) { return algo.ParseKind(name) }

// Algorithms lists all built-in algorithm kinds.
func Algorithms() []AlgorithmKind { return algo.All }

// NewSchedule generates a schedule for the window under the given mode.
func NewSchedule(mode ScheduleMode, w *Window) (*Schedule, error) {
	return sched.New(mode, w)
}

// Solve computes the query fixpoint on a static graph with the
// event-driven engine. probe may be nil. It has no error to return, so a
// source that is not a vertex of g panics; SolveContext reports it.
func Solve(g *Graph, k AlgorithmKind, source VertexID, probe Probe) []float64 {
	if probe == nil {
		probe = engine.NopProbe{}
	}
	return engine.Solve(g, algo.New(k), source, probe)
}

// SolveContext is Solve under a lifecycle: ctx is checked every round, and
// lim (zero value = safe defaults) bounds the fixpoint iteration. A source
// that is not a vertex of g is ErrInvalidInput, for every algorithm.
func SolveContext(ctx context.Context, g *Graph, k AlgorithmKind, source VertexID, probe Probe, lim Limits) ([]float64, error) {
	if probe == nil {
		probe = engine.NopProbe{}
	}
	return engine.SolveContext(ctx, g, algo.New(k), source, probe, lim)
}

// Evaluate answers the evolving-graph query functionally: it runs the BOE
// schedule on the window and returns one value array per snapshot. probe
// may be used to collect execution statistics; pass nil to discard them.
func Evaluate(w *Window, k AlgorithmKind, source VertexID, probe ...Probe) ([][]float64, error) {
	return EvaluateContext(context.Background(), w, k, source, probe...)
}

// EvaluateContext is Evaluate under a lifecycle: ctx is checked at every
// batch and round boundary, and the divergence watchdog (safe defaults,
// see DefaultLimits) bounds the run. Use EvaluateLimits to tune it.
func EvaluateContext(ctx context.Context, w *Window, k AlgorithmKind, source VertexID, probe ...Probe) ([][]float64, error) {
	return EvaluateLimits(ctx, w, k, source, Limits{}, probe...)
}

// EvaluateLimits is EvaluateContext with an explicit watchdog
// configuration (zero fields take defaults; Unlimited disables a bound).
func EvaluateLimits(ctx context.Context, w *Window, k AlgorithmKind, source VertexID, lim Limits, probe ...Probe) ([][]float64, error) {
	var p Probe = engine.NopProbe{}
	if len(probe) > 0 && probe[0] != nil {
		p = probe[0]
	}
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewMulti(w, algo.New(k), source, p)
	if err != nil {
		return nil, err
	}
	if err := eng.RunContext(ctx, s, lim); err != nil {
		return nil, err
	}
	out := make([][]float64, w.NumSnapshots())
	for snap := range out {
		out[snap] = eng.SnapshotValues(s, snap)
	}
	return out, nil
}

// DefaultSimConfig returns the MEGA machine configuration (Table 3,
// scaled); JetStreamSimConfig returns the streaming baseline's.
func DefaultSimConfig() SimConfig   { return sim.DefaultConfig() }
func JetStreamSimConfig() SimConfig { return sim.JetStreamConfig() }

// Simulate runs the MEGA accelerator simulation of a workflow over the
// window and returns timing, memory-system and functional statistics.
func Simulate(w *Window, k AlgorithmKind, source VertexID, mode ScheduleMode, cfg SimConfig) (*SimResult, error) {
	return sim.RunMEGA(w, k, source, mode, cfg)
}

// SimulateContext is Simulate under a lifecycle: ctx is checked at every
// batch and round boundary and the divergence watchdog bounds the run.
func SimulateContext(ctx context.Context, w *Window, k AlgorithmKind, source VertexID, mode ScheduleMode, cfg SimConfig) (*SimResult, error) {
	return sim.RunMEGAContext(ctx, w, k, source, mode, cfg)
}

// SimulateJetStream runs the JetStream streaming baseline over the raw
// evolution (sequential hops with deletion invalidation).
func SimulateJetStream(ev *Evolution, k AlgorithmKind, source VertexID, cfg SimConfig) (*SimResult, error) {
	return sim.RunJetStream(ev, k, source, cfg)
}

// SimulateJetStreamContext is SimulateJetStream under a lifecycle: ctx is
// checked before every evolution hop.
func SimulateJetStreamContext(ctx context.Context, ev *Evolution, k AlgorithmKind, source VertexID, cfg SimConfig) (*SimResult, error) {
	return sim.RunJetStreamContext(ctx, ev, k, source, cfg)
}
