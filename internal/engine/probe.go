// Package engine implements the functional execution model shared by all
// of MEGA's workflows and baselines: asynchronous, event-driven,
// delta-accumulative incremental computation (DAIC) as introduced by
// GraphPulse and JetStream (§3). Events carry candidate values to
// destination vertices; a vertex applies a candidate when it improves the
// current value and then propagates along its out-edges; events to the same
// (vertex, context) coalesce, keeping the better candidate.
//
// The engine executes in rounds: all events queued at the start of a round
// are processed, and events they generate join the next round. Rounds match
// the paper's Figure 10 x-axis and are the hook for the simulator's timing
// model and for batch pipelining. The fixpoint reached is independent of
// event ordering because all five algorithms are monotone selections.
//
// Two engines are provided:
//
//   - Multi: the MEGA-side engine. It runs over the unified evolving-graph
//     CSR with any number of concurrent contexts (value-array instances)
//     and executes sched.Schedules (Direct-Hop, Work-Sharing, BOE).
//     Additions only — deletions never occur on this path.
//   - Stream: the JetStream baseline. Single graph instance, sequential
//     hops, supporting both edge additions and KickStarter-style deletion
//     processing (tag the dependence subtree, reset, recompute, propagate).
//
// Instrumentation is via the Probe interface; the timing simulator and the
// reuse analyses are Probe implementations, keeping functional behaviour
// and performance modeling strictly separated.
package engine

import "mega/internal/graph"

// Probe observes engine execution. Implementations must be cheap; the
// engine invokes callbacks on its hot path. All callbacks are sequential.
type Probe interface {
	// OpStart fires when an operation (batch application, initial solve,
	// deletion phase) begins. kind is a short label such as "init",
	// "add", "del", "copy". contexts is the number of concurrently
	// computing contexts.
	OpStart(kind string, batchEdges, contexts int)
	// RoundStart fires at the beginning of each event round.
	RoundStart(round int)
	// Event fires for each dequeued event: a candidate value examined at
	// vertex v in context ctx. applied reports whether it improved the
	// vertex value (vertex read always happens; write only when applied).
	Event(v graph.VertexID, ctx int, applied bool)
	// EdgeFetch fires when v's adjacency list is fetched: edges entries
	// served from one fetch shared by `shared` concurrently-updating
	// contexts (shared > 1 only under BOE-style concurrent execution).
	EdgeFetch(v graph.VertexID, edges, shared int)
	// Generated fires for each outgoing event enqueued for the next
	// round.
	Generated(dst graph.VertexID, ctx int)
	// ValueCopy fires when ctx values are bulk-copied between contexts
	// (shared-compute broadcast or Work-Sharing context cloning).
	ValueCopy(vertices, targets int)
	// RoundEnd fires after each round. live is the number of coalesced
	// events waiting in the next round.
	RoundEnd(live int)
	// OpEnd fires when the operation completes.
	OpEnd()
}

// NopProbe discards all observations.
type NopProbe struct{}

func (NopProbe) OpStart(string, int, int)        {}
func (NopProbe) RoundStart(int)                  {}
func (NopProbe) Event(graph.VertexID, int, bool) {}
func (NopProbe) EdgeFetch(graph.VertexID, int, int) {
}
func (NopProbe) Generated(graph.VertexID, int) {}
func (NopProbe) ValueCopy(int, int)            {}
func (NopProbe) RoundEnd(int)                  {}
func (NopProbe) OpEnd()                        {}

// Stats is a counting Probe capturing the aggregate measures the paper
// reports: events, vertex reads/writes, edge fetches and edges read,
// fetch sharing, generated events, rounds, and the per-round event series
// of the current operation (Figure 10).
type Stats struct {
	Ops             int
	Events          int64 // vertex reads
	Applied         int64 // vertex writes
	EdgeFetches     int64 // adjacency-list fetches
	EdgesRead       int64 // adjacency entries scanned (unique fetches)
	SharedServed    int64 // extra contexts served by an existing fetch
	SharedEdges     int64 // adjacency entries those extra contexts reused
	GeneratedEvents int64
	ValuesCopied    int64
	Rounds          int
	MaxLiveEvents   int

	// EventsPerRound holds the per-round processed-event counts of the
	// most recent operation when CaptureRounds is set.
	CaptureRounds  bool
	EventsPerRound []int64

	roundEvents int64
}

var _ Probe = (*Stats)(nil)

// OpStart implements Probe.
func (s *Stats) OpStart(string, int, int) {
	s.Ops++
	s.roundEvents = 0
	if s.CaptureRounds {
		s.EventsPerRound = s.EventsPerRound[:0]
	}
}

// RoundStart implements Probe. Events observed between rounds (batch
// seeding, deletion invalidation) fold into the next round, so the
// per-round counter resets at RoundEnd, not here.
func (s *Stats) RoundStart(int) {}

// Event implements Probe.
func (s *Stats) Event(_ graph.VertexID, _ int, applied bool) {
	s.Events++
	s.roundEvents++
	if applied {
		s.Applied++
	}
}

// EdgeFetch implements Probe.
func (s *Stats) EdgeFetch(_ graph.VertexID, edges, shared int) {
	s.EdgeFetches++
	s.EdgesRead += int64(edges)
	if shared > 1 {
		s.SharedServed += int64(shared - 1)
		s.SharedEdges += int64(edges) * int64(shared-1)
	}
}

// Generated implements Probe.
func (s *Stats) Generated(graph.VertexID, int) { s.GeneratedEvents++ }

// ValueCopy implements Probe.
func (s *Stats) ValueCopy(vertices, targets int) {
	s.ValuesCopied += int64(vertices) * int64(targets)
}

// RoundEnd implements Probe.
func (s *Stats) RoundEnd(live int) {
	s.Rounds++
	if live > s.MaxLiveEvents {
		s.MaxLiveEvents = live
	}
	if s.CaptureRounds {
		s.EventsPerRound = append(s.EventsPerRound, s.roundEvents)
	}
	s.roundEvents = 0
}

// OpEnd implements Probe.
func (s *Stats) OpEnd() {}

// multiProbe fans observations out to several probes.
type multiProbe []Probe

var _ Probe = multiProbe(nil)

// NewMultiProbe combines probes; all callbacks go to each in order.
func NewMultiProbe(probes ...Probe) Probe {
	return multiProbe(probes)
}

func (m multiProbe) OpStart(kind string, batchEdges, contexts int) {
	for _, p := range m {
		p.OpStart(kind, batchEdges, contexts)
	}
}
func (m multiProbe) RoundStart(r int) {
	for _, p := range m {
		p.RoundStart(r)
	}
}
func (m multiProbe) Event(v graph.VertexID, ctx int, applied bool) {
	for _, p := range m {
		p.Event(v, ctx, applied)
	}
}
func (m multiProbe) EdgeFetch(v graph.VertexID, edges, shared int) {
	for _, p := range m {
		p.EdgeFetch(v, edges, shared)
	}
}
func (m multiProbe) Generated(dst graph.VertexID, ctx int) {
	for _, p := range m {
		p.Generated(dst, ctx)
	}
}
func (m multiProbe) ValueCopy(vertices, targets int) {
	for _, p := range m {
		p.ValueCopy(vertices, targets)
	}
}
func (m multiProbe) RoundEnd(live int) {
	for _, p := range m {
		p.RoundEnd(live)
	}
}
func (m multiProbe) OpEnd() {
	for _, p := range m {
		p.OpEnd()
	}
}
