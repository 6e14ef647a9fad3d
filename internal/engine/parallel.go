package engine

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/fault"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/sched"
)

// Parallel is the shared-memory software implementation of schedule
// execution — the "software BOE" the paper evaluates on RisGraph (§5.2,
// Figure 14). Vertices are sharded across workers by edge-balanced
// contiguous ranges; each round, every worker processes the pending events
// of its own shard and posts the events it generates into per-destination
// chunked mailboxes, which the owning worker coalesces at the next round
// boundary. Workers only ever write their own shard's values and queue
// slots, so the execution is race-free without atomics; the coalescing
// queue's monotone semantics make the result identical to the sequential
// engine's fixpoint.
//
// Execution model (see DESIGN.md §"Parallel engine execution model"):
//
//   - One persistent goroutine per shard is started at RunContext entry and
//     driven through phase barriers (a command channel per worker plus a
//     shared WaitGroup) — no goroutine is spawned per round.
//   - Shard ranges come from graph.NewBalancedPartitioning over the union
//     CSR's degree prefix sums, so each shard owns ≈ equal out-edges even
//     on skewed RMAT degree distributions.
//   - Mailboxes are fixed-size event chunks recycled through a sync.Pool;
//     pending matrices use per-vertex context bitmasks. After warm-up, an
//     apply executes with zero steady-state heap allocations.
//   - Events are filtered at generation, seeds included, like the
//     sequential engine's when no Probe prices them: candidates for a
//     worker's own vertices (and all candidates on race-free paths) are
//     dropped unless they improve the current value, and cross-shard
//     emits dedup through a per-shard sender-side coalescing table
//     (senderTable, queue.go) so a hot vertex crosses the shard boundary
//     as one event per round instead of dozens.
//   - Rounds with heavy load imbalance hand touched-list tails from
//     overloaded shards to idle ones at the deliver→process barrier
//     (planSteal); donated segments are processed by the stealer but all
//     resulting events still travel the owner's delivery path.
//   - Phases whose total work is below inlinePhaseUnits run inline on the
//     coordinator: a barrier hand-off costs microseconds, which dominates
//     the short convergence-tail rounds.
//
// Like the paper's software BOE, Parallel gains parallelism from
// concurrent snapshots but no hardware fetch sharing.
type Parallel struct {
	w       *evolve.Window
	u       *graph.UnifiedCSR
	union   *graph.CSR
	a       algo.Algorithm
	ident   float64 // cached a.Identity()
	src     graph.VertexID
	workers int

	batchOf []int32
	part    *graph.Partitioning
	// ownerTab flattens part.PartOf into a direct vertex→shard lookup for
	// the per-edge routing in the seed and process loops.
	ownerTab []int32
	procs    int // runtime.GOMAXPROCS at construction; 1 disables barriers

	vals    [][]float64
	applied []batchSet
	evTotal int64

	numCtx   int
	ctxWords int // per-vertex context-mask words: (numCtx+63)/64

	shards    []*shard
	chunkPool sync.Pool // *pChunk recycling across shards and rounds

	// Worker pool state. cmd carries phase IDs to each worker; wg is the
	// phase barrier; exitWG joins worker goroutines at stopWorkers.
	cmd    []chan int
	wg     sync.WaitGroup
	exitWG sync.WaitGroup
	trap   *panicTrap

	// Per-phase arguments, set by the coordinator before releasing a
	// barrier (the channel send orders them before worker reads).
	curOps []sched.Op

	live []int // scratch list of shard indexes with work

	// Work-stealing coordinator state. stealRound is true for the current
	// process phase when planSteal handed off any segment (set before the
	// phase barrier, so workers read it race-free); the slices are planning
	// scratch reused across rounds.
	stealRound bool
	stealLoad  []int
	stealOrder []int

	// lifecycle state, set for the duration of RunContext.
	ran    bool
	ctx    context.Context
	limits Limits

	// fault injection and checkpoint/resume state. fp is nil on
	// fault-free runs; trackDirty (per-shard dirty-vertex tracking, needed
	// so checkpoints can replay sequential-engine broadcasts) is enabled
	// only when checkpointing is — by cadence or by EnableLiveCheckpoint —
	// keeping the steady-state process loop allocation-free otherwise.
	fp         *fault.Plan
	base       []float64 // CommonGraph solution, kept for checkpoints
	schedHash  uint64
	winFP      []ckptBatch // lazily cached window fingerprint
	ckptEvery  int
	ckptSink   func([]byte) error
	lastCkpt   []byte
	resume     *checkpointState
	curStage   int
	inRounds   bool
	curRound   int
	trackDirty bool

	// phaseErr collects the first transient fault injected inside a
	// worker phase; checked at every barrier alongside the panic trap.
	phaseMu  sync.Mutex
	phaseErr error

	// Observability. Queue-traffic counters live on the shards (each
	// written only by the goroutine that owns the coalesce decision, so
	// they need no atomics); these engine-level fields cover the
	// coordinator-side facts. chunkAllocs counts pool misses — sync.Pool
	// may call New concurrently, hence the atomic. phaseNanos accumulates
	// per-phase coordinator wall time (barrier-inclusive), collected only
	// when a registry is attached so unobserved runs skip the clock reads.
	chunkAllocs             atomic.Int64
	phaseNanos              [4]int64
	rounds                  int64
	ckptTaken, ckptRestored int64
	auditOn                 bool
	reg                     *metrics.Registry
}

// NewParallel builds a parallel engine with the given worker count
// (0 means GOMAXPROCS).
func NewParallel(w *evolve.Window, a algo.Algorithm, src graph.VertexID, workers int) (*Parallel, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > w.NumVertices() && w.NumVertices() > 0 {
		workers = w.NumVertices()
	}
	if err := checkSource(w, src); err != nil {
		return nil, err
	}
	batchOf, err := w.BatchOf()
	if err != nil {
		return nil, err
	}
	union := w.Unified().Union()
	part, err := graph.NewBalancedPartitioning(union.Offsets(), workers)
	if err != nil {
		return nil, err
	}
	p := &Parallel{
		w: w, u: w.Unified(), union: union, a: a, ident: a.Identity(),
		src: src, workers: workers, procs: runtime.GOMAXPROCS(0),
		batchOf: batchOf, part: part,
		trap:    &panicTrap{},
		auditOn: metrics.Strict(),
	}
	p.chunkPool.New = func() any {
		p.chunkAllocs.Add(1)
		return new(pChunk)
	}
	p.ownerTab = make([]int32, w.NumVertices())
	for v := range p.ownerTab {
		p.ownerTab[v] = int32(part.PartOf(graph.VertexID(v)))
	}
	return p, nil
}

// SeedBase primes the engine with a precomputed CommonGraph solution so
// Run skips the base solve (stable-vertex seeding). Same contract as the
// sequential engine's SeedBase: the values must be the exact converged
// solution for this algorithm, source, and CommonGraph content. Must
// precede Run; a checkpoint restore overrides the seed.
func (p *Parallel) SeedBase(base []float64) error {
	if p.ran {
		return megaerr.Invalidf("engine: SeedBase after Run")
	}
	if len(base) != p.w.NumVertices() {
		return megaerr.Invalidf("engine: SeedBase length %d, window has %d vertices", len(base), p.w.NumVertices())
	}
	p.base = append([]float64(nil), base...)
	return nil
}

// BaseValues returns the query solution on the CommonGraph (nil before
// Run unless seeded or restored). The returned slice must not be modified.
func (p *Parallel) BaseValues() []float64 { return p.base }

// pEvent carries one candidate value from a producing worker to the
// owning shard; entries are coalesced by the owner.
type pEvent struct {
	ctx int32
	dst graph.VertexID
	val float64
}

// pChunkLen sizes a mailbox chunk: 256 events × 16 bytes = 4 KiB, one
// transfer unit between producer outboxes and owner inboxes.
const pChunkLen = 256

// pChunk is a fixed-capacity event buffer. Chunks move between shards by
// pointer at exchange barriers (no event copying) and recycle through the
// engine's chunkPool, so steady-state rounds allocate nothing.
type pChunk struct {
	n  int
	ev [pChunkLen]pEvent
}

// inlinePhaseUnits is the work threshold (events or touched vertices,
// summed across live shards) below which the coordinator runs a phase
// inline instead of waking workers: a barrier hand-off costs microseconds
// while a unit of phase work costs tens of nanoseconds, so short
// convergence-tail rounds are cheaper single-threaded.
const inlinePhaseUnits = 512

// Worker phase IDs, sent over each worker's command channel.
const (
	phaseSeed = iota
	phaseDeliver
	phaseProcess
	phaseBroadcast
)

// shard is one worker's private state: the pending-candidate matrix for
// its vertex range plus chunked mailboxes.
type shard struct {
	id     int
	lo, hi graph.VertexID

	// pending[idx*numCtx+c] holds context c's coalesced candidate for
	// vertex lo+idx; ctxMask[idx*ctxWords+w] is the bitmask of contexts
	// with a live candidate. Vertex-major layout keeps one vertex's
	// contexts on the same cache lines for the processing loop.
	pending []float64
	ctxMask []uint64

	touched []graph.VertexID
	spare   []graph.VertexID // second touched buffer; swapped per round so
	// self-delivered events during processing never append into the list
	// being drained
	mark   []bool    // vertex-lo on touched list
	updCtx []int32   // scratch: contexts improved at the current vertex
	updVal []float64 // scratch: the improved values, parallel to updCtx

	inbox  []*pChunk   // chunks routed to this shard, drained at deliver
	outbox [][]*pChunk // open chunk lists, one per destination shard
	open   []*pChunk   // tail of each outbox list (nil when closed), so the
	// per-event emit skips the slice-tail lookup

	events int64

	// Cumulative queue-traffic counters, never reset (unlike events, which
	// drains into evTotal per stage). Each is written only by the goroutine
	// owning the coalesce decision: pushed at the generating shard's emit
	// (or at push on the destination for own-vertex, single-P direct, and
	// restore pushes), coalesced at owner-side merges, senderCoalesced at
	// sender-side drops and in-place merges, taken at process. The
	// conservation law is pushed − coalesced − senderCoalesced == taken.
	pushed, coalesced, taken int64

	// sender is the sender-side coalescing table for this shard's mailbox
	// emits; nil until the first emit (the single-P direct path never
	// allocates one). senderCoalesced counts events it absorbed.
	sender          *senderTable
	senderCoalesced int64

	// Work-stealing state, all written by the coordinator at the
	// deliver→process barrier (planSteal) and read by workers during the
	// process phase — barrier ordering makes that race-free. steals lists
	// the touched-vertex segments this shard processes on behalf of
	// victims this round; victim marks a shard that donated (it must route
	// every generated event through the mailboxes, since stealers
	// concurrently read its pending matrix and write its value rows).
	steals        []stealSeg
	victim        bool
	stealRanges   int64
	stealVertices int64

	// dirty lists the shard's vertices whose values changed during the
	// current stage, maintained only when the engine tracks dirt for
	// checkpoints (dirtyMark is nil otherwise).
	dirty     []graph.VertexID
	dirtyMark []bool
}

// stealSeg is a contiguous tail of a victim shard's touched list, handed
// to another shard for one process phase. The segment sub-slices the
// victim's touched array directly: the hand-off happens at a barrier, the
// victim's retained prefix and the donated tail are disjoint, and the
// segment is fully consumed before the next round mutates the array.
type stealSeg struct {
	victim int
	verts  []graph.VertexID
}

// Work-stealing thresholds. Stealing engages only when the process
// phase is big enough to dwarf the hand-off bookkeeping (stealMinUnits)
// and moves only segments large enough to matter (stealMinSeg) from
// shards above the ideal share to shards below it.
const (
	stealMinUnits = 2 * inlinePhaseUnits
	stealMinSeg   = 64
)

// SetCheckpointEvery enables automatic checkpoints: one at every stage
// boundary and one every n barrier rounds inside a stage (0 disables).
// Enabling checkpoints also enables dirty-vertex tracking, a small
// per-improvement cost in the process phase. Must be called before Run.
func (p *Parallel) SetCheckpointEvery(n int) { p.ckptEvery = n }

// SetCheckpointSink registers a destination for automatic checkpoints.
// A sink error aborts the run. See Multi.SetCheckpointSink.
func (p *Parallel) SetCheckpointSink(sink func([]byte) error) { p.ckptSink = sink }

// LastCheckpoint returns the most recent automatic checkpoint, or nil.
// It stays valid after any failure, including a worker panic: the bytes
// were serialized on the coordinator at an earlier consistent barrier.
func (p *Parallel) LastCheckpoint() []byte { return p.lastCkpt }

// EnableLiveCheckpoint keeps dirty-vertex tracking on without an
// automatic cadence, so a Checkpoint taken mid-stage — after a failure at
// a barrier-round boundary — restores into either engine. Must be called
// before Run.
func (p *Parallel) EnableLiveCheckpoint() { p.trackDirty = true }

// Checkpoint serializes the engine's state at its current consistent
// point: a barrier-round boundary (after a transient coordinator-side
// failure) or a stage boundary. Only valid once Run has started. It
// refuses, rather than serialize torn state, after a failure inside a
// worker phase (a panic or an injected phase fault) and mid-stage on an
// engine that was not tracking dirty vertices — use LastCheckpoint there.
func (p *Parallel) Checkpoint() ([]byte, error) {
	if !p.ran {
		return nil, megaerr.Invalidf("engine: Checkpoint before Run")
	}
	if err := p.phaseFailure(); err != nil {
		return nil, megaerr.Invalidf("engine: Checkpoint after a phase failure left state torn: %v", err)
	}
	if p.inRounds && !p.trackDirty {
		return nil, megaerr.Invalidf("engine: mid-stage Checkpoint without dirty tracking (SetCheckpointEvery or EnableLiveCheckpoint)")
	}
	return p.snapshotState().encode(), nil
}

// Restore primes a fresh engine to resume from checkpoint bytes, exactly
// like Multi.Restore — checkpoints are engine-portable, so bytes written
// by a sequential run restore into a parallel engine and vice versa.
func (p *Parallel) Restore(data []byte) error {
	if p.ran {
		return megaerr.Invalidf("engine: Restore after Run")
	}
	st, err := DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	if err := st.matchEngine(uint32(p.a.Kind()), uint32(p.src), p.w, p.windowFingerprint()); err != nil {
		return err
	}
	p.resume = st
	p.ckptRestored++
	return nil
}

// windowFingerprint caches the content fingerprint, mirroring
// Multi.windowFingerprint.
func (p *Parallel) windowFingerprint() []ckptBatch {
	if p.winFP == nil {
		p.winFP = fingerprintWindow(p.w)
	}
	return p.winFP
}

// snapshotState captures the run state at a coordinator-side consistent
// point. Mid-stage, the pending set for the upcoming round is split
// across shard pending matrices and undelivered mailbox chunks; both are
// dumped (restore re-coalesces, which is order-independent under the
// algorithm's strict Better order).
func (p *Parallel) snapshotState() *checkpointState {
	events := p.evTotal
	for _, sh := range p.shards {
		events += sh.events
	}
	st := &checkpointState{
		algoKind:   uint32(p.a.Kind()),
		source:     uint32(p.src),
		numVerts:   uint32(p.w.NumVertices()),
		numCtx:     uint32(len(p.vals)),
		batches:    p.windowFingerprint(),
		schedHash:  p.schedHash,
		stageStart: uint32(p.curStage),
		inRounds:   p.inRounds,
		events:     events,
		baseVals:   p.base,
		vals:       p.vals,
		applied:    p.applied,
	}
	if p.inRounds {
		st.round = uint32(p.curRound)
		st.queue = p.dumpPending()
		st.dirty = p.dumpDirty()
	}
	return st
}

// dumpPending lists every live pending candidate: coalesced matrix slots
// of touched vertices plus undelivered inbox events. The parallel engine
// does not track batch tags (they only feed the sequential engine's
// fetch-sharing probe accounting), so entries carry tag −1.
func (p *Parallel) dumpPending() []ckptEntry {
	var out []ckptEntry
	for _, sh := range p.shards {
		for _, v := range sh.touched {
			idx := int(v - sh.lo)
			mbase, pbase := idx*p.ctxWords, idx*p.numCtx
			for w := 0; w < p.ctxWords; w++ {
				m := sh.ctxMask[mbase+w]
				for m != 0 {
					c := w<<6 + bits.TrailingZeros64(m)
					m &= m - 1
					out = append(out, ckptEntry{ctx: int32(c), v: v, val: sh.pending[pbase+c], tag: -1})
				}
			}
		}
		for _, ck := range sh.inbox {
			for i := 0; i < ck.n; i++ {
				ev := &ck.ev[i]
				out = append(out, ckptEntry{ctx: ev.ctx, v: ev.dst, val: ev.val, tag: -1})
			}
		}
	}
	return out
}

// dumpDirty concatenates the shards' per-stage dirty lists.
func (p *Parallel) dumpDirty() []graph.VertexID {
	var out []graph.VertexID
	for _, sh := range p.shards {
		out = append(out, sh.dirty...)
	}
	return out
}

// takeCheckpoint encodes the current state, retains it, and forwards it
// to the sink when one is registered.
func (p *Parallel) takeCheckpoint() error {
	data := p.snapshotState().encode()
	p.lastCkpt = data
	p.ckptTaken++
	if p.ckptSink != nil {
		return p.ckptSink(data)
	}
	return nil
}

// notePhaseErr records the first injected phase fault; like the panic
// trap, it is drained at the next barrier.
func (p *Parallel) notePhaseErr(err error) {
	p.phaseMu.Lock()
	if p.phaseErr == nil {
		p.phaseErr = err
	}
	p.phaseMu.Unlock()
}

// phaseFailure returns the first worker panic or injected phase fault.
func (p *Parallel) phaseFailure() error {
	if err := p.trap.tripped(); err != nil {
		return err
	}
	p.phaseMu.Lock()
	defer p.phaseMu.Unlock()
	return p.phaseErr
}

// Run executes the schedule and returns nothing; use Values afterwards.
func (p *Parallel) Run(s *sched.Schedule) error {
	return p.RunContext(context.Background(), s, Limits{})
}

// RunContext is Run under a lifecycle: ctx is checked at every stage and
// barrier-round boundary, lim bounds the fixpoint loops (zero fields take
// DefaultLimits for the window), and a panic in any worker goroutine is
// contained — the barrier drains cleanly and the panic surfaces as a
// *megaerr.WorkerPanicError instead of killing the process.
func (p *Parallel) RunContext(ctx context.Context, s *sched.Schedule, lim Limits) error {
	if p.ran {
		return megaerr.Invalidf("engine: Run called twice")
	}
	p.ran = true
	p.ctx = ctx
	p.fp = fault.From(ctx)
	p.limits = lim.withDefaults(p.w.NumVertices(), s.NumContexts)
	if err := checkCtx(ctx, "parallel start"); err != nil {
		return err
	}
	st := p.resume
	p.resume = nil
	if st != nil {
		if err := st.matchSchedule(s); err != nil {
			return err
		}
	}
	p.schedHash = hashSchedule(s)
	n := p.w.NumVertices()
	p.numCtx = s.NumContexts
	p.ctxWords = (s.NumContexts + 63) / 64
	p.vals = make([][]float64, s.NumContexts)
	p.applied = make([]batchSet, s.NumContexts)
	p.trackDirty = p.trackDirty || p.ckptEvery > 0

	switch {
	case st != nil && st.baseVals != nil:
		p.base = st.baseVals
	case p.base != nil:
		// SeedBase primed the CommonGraph solution; skip the solve.
	default:
		base, err := SolveContext(ctx, p.w.CommonCSR(), p.a, p.src, NopProbe{}, p.limits)
		if err != nil {
			return err
		}
		p.base = base
	}

	p.shards = make([]*shard, p.workers)
	for i := range p.shards {
		lo, hi := p.part.Range(i)
		size := int(hi - lo)
		p.shards[i] = &shard{
			id: i, lo: lo, hi: hi,
			pending: make([]float64, size*p.numCtx),
			ctxMask: make([]uint64, size*p.ctxWords),
			mark:    make([]bool, size),
			outbox:  make([][]*pChunk, p.workers),
			open:    make([]*pChunk, p.workers),
		}
		if p.trackDirty {
			p.shards[i].dirtyMark = make([]bool, size)
		}
	}
	if st != nil {
		// Install the checkpointed state. Queue entries re-coalesce into
		// the owning shards' pending matrices; the first deliver of the
		// resumed round loop is then a no-op and processing picks up
		// exactly the checkpointed round's pending set.
		p.evTotal = st.events
		for c := range st.vals {
			if st.vals[c] != nil {
				p.vals[c] = st.vals[c]
				p.applied[c] = st.applied[c]
			}
		}
		for _, e := range st.queue {
			sh := p.shards[p.ownerTab[e.v]]
			p.push(sh, pEvent{ctx: e.ctx, dst: e.v, val: e.val})
		}
		if p.trackDirty {
			for _, v := range st.dirty {
				sh := p.shards[p.ownerTab[v]]
				idx := int(v - sh.lo)
				if !sh.dirtyMark[idx] {
					sh.dirtyMark[idx] = true
					sh.dirty = append(sh.dirty, v)
				}
			}
		}
	}
	p.startWorkers()
	defer p.stopWorkers()

	for i := 0; i < len(s.Ops); {
		if err := checkCtx(ctx, "parallel stage"); err != nil {
			return err
		}
		stageFirst := i
		stage := s.Ops[i].Stage
		var books, applies []sched.Op
		for ; i < len(s.Ops) && s.Ops[i].Stage == stage; i++ {
			op := s.Ops[i]
			if op.Kind == sched.OpApply {
				applies = append(applies, op)
			} else {
				books = append(books, op)
			}
		}
		if st != nil {
			if i <= int(st.stageStart) {
				continue // stage completed before the checkpoint
			}
			if stageFirst != int(st.stageStart) {
				return megaerr.Checkpointf("cursor op %d is not a stage boundary (stage starts at op %d)", st.stageStart, stageFirst)
			}
			if st.inRounds {
				round := int(st.round)
				st = nil
				p.curStage = stageFirst
				if err := p.resumeApplies(applies, round); err != nil {
					return err
				}
				continue
			}
			st = nil // stage-boundary checkpoint: run this stage normally
		}
		p.curStage = stageFirst
		if p.ckptEvery > 0 {
			if err := p.takeCheckpoint(); err != nil {
				return err
			}
		}
		for _, op := range books {
			switch op.Kind {
			case sched.OpInit:
				if p.vals[op.Ctx] == nil {
					p.vals[op.Ctx] = make([]float64, n)
					p.applied[op.Ctx] = newBatchSet(len(p.w.Batches()))
				}
				copy(p.vals[op.Ctx], p.base)
				p.applied[op.Ctx].clear()
			case sched.OpCopy:
				if p.vals[op.From] == nil {
					return megaerr.Invalidf("engine: OpCopy from uninitialized context %d", op.From)
				}
				if p.vals[op.Ctx] == nil {
					p.vals[op.Ctx] = make([]float64, n)
					p.applied[op.Ctx] = newBatchSet(len(p.w.Batches()))
				}
				copy(p.vals[op.Ctx], p.vals[op.From])
				p.applied[op.Ctx].copyFrom(p.applied[op.From])
			}
		}
		if len(applies) > 0 {
			if err := p.runApplies(applies); err != nil {
				return err
			}
		}
	}
	p.curStage = len(s.Ops)
	if p.reg != nil {
		p.RecordMetrics(p.reg)
	}
	if p.auditOn {
		for _, ar := range p.AuditQueues() {
			if err := ar.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetMetrics attaches a registry; RecordMetrics is called automatically at
// the end of a successful RunContext, and per-phase wall-time collection is
// enabled. May be nil (the default) to disable both. Must be called before
// Run.
func (p *Parallel) SetMetrics(reg *metrics.Registry) { p.reg = reg }

// QueueCounters sums the shards' queue traffic: pushes attempted (counted
// where the generating shard makes its first coalesce decision — at emit
// for mailbox traffic, at push for own-vertex, direct, and restore
// traffic), pushes that coalesced anywhere (owner-side merges plus
// sender-side drops and in-place merges), and takes. Valid between runs
// or after Run.
func (p *Parallel) QueueCounters() (pushed, coalesced, taken int64) {
	for _, sh := range p.shards {
		pushed += sh.pushed
		coalesced += sh.coalesced + sh.senderCoalesced
		taken += sh.taken
	}
	return
}

// StealCounters sums the work-stealing traffic: segments handed off and
// vertices processed on behalf of other shards. Valid after Run.
func (p *Parallel) StealCounters() (ranges, vertices int64) {
	for _, sh := range p.shards {
		ranges += sh.stealRanges
		vertices += sh.stealVertices
	}
	return
}

// CoalescedAtSender sums the events absorbed by the shards' sender-side
// coalescing tables before reaching a mailbox. Valid after Run.
func (p *Parallel) CoalescedAtSender() (n int64) {
	for _, sh := range p.shards {
		n += sh.senderCoalesced
	}
	return
}

// AuditQueues checks event conservation at quiescence: every counted push
// either coalesced or was taken, and no events remain in pending matrices,
// inboxes, or outboxes. Restored checkpoint entries re-enter through the
// counted push path, so the law holds across crash/resume. Only meaningful
// after a completed run.
func (p *Parallel) AuditQueues() []metrics.AuditResult {
	pushed, coalesced, taken := p.QueueCounters()
	live := 0
	for _, sh := range p.shards {
		live += len(sh.touched)
		for _, ck := range sh.inbox {
			live += ck.n
		}
		for _, chunks := range sh.outbox {
			for _, ck := range chunks {
				live += ck.n
			}
		}
	}
	sender := p.CoalescedAtSender()
	return []metrics.AuditResult{
		{
			Name: "engine.queue_conservation", OK: pushed-coalesced == taken,
			Detail: fmt.Sprintf("pushed %d - coalesced %d (owner %d + sender %d) = %d, taken %d",
				pushed, coalesced, coalesced-sender, sender, pushed-coalesced, taken),
		},
		{
			Name: "engine.queue_drained", OK: live == 0,
			Detail: fmt.Sprintf("%d events still queued at quiescence", live),
		},
	}
}

// parallelPhaseNames labels phaseNanos entries in metric output.
var parallelPhaseNames = [4]string{"seed", "deliver", "process", "broadcast"}

// RecordMetrics writes the engine's counters into reg under the shared
// metric taxonomy (DESIGN.md §10): queue traffic, per-phase wall time,
// chunk-pool allocations, per-shard event balance, and its audits.
func (p *Parallel) RecordMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	pushed, coalesced, taken := p.QueueCounters()
	reg.Counter("engine_rounds", "engine", "parallel").Add(p.rounds)
	reg.Counter("engine_events_processed", "engine", "parallel").Add(taken)
	reg.Counter("queue_pushed", "engine", "parallel").Add(pushed)
	reg.Counter("queue_coalesced", "engine", "parallel").Add(coalesced)
	reg.Counter("queue_coalesced_at_sender", "engine", "parallel").Add(p.CoalescedAtSender())
	reg.Counter("queue_taken", "engine", "parallel").Add(taken)
	stealRanges, stealVertices := p.StealCounters()
	reg.Counter("steal_ranges", "engine", "parallel").Add(stealRanges)
	reg.Counter("steal_vertices", "engine", "parallel").Add(stealVertices)
	reg.Counter("checkpoint_taken", "engine", "parallel").Add(p.ckptTaken)
	reg.Counter("checkpoint_restored", "engine", "parallel").Add(p.ckptRestored)
	reg.Counter("mailbox_chunk_allocs", "engine", "parallel").Add(p.chunkAllocs.Load())
	for ph, name := range parallelPhaseNames {
		reg.Gauge("phase_nanos", "engine", "parallel", "phase", name).Set(p.phaseNanos[ph])
	}
	for _, sh := range p.shards {
		reg.Gauge("shard_events", "engine", "parallel", "shard", strconv.Itoa(sh.id)).Set(sh.taken)
	}
	for _, ar := range p.AuditQueues() {
		reg.RecordAudit(ar)
	}
}

// Values returns context ctx's value array, or nil before Run or for an
// out-of-range context.
func (p *Parallel) Values(ctx int) []float64 {
	if ctx < 0 || ctx >= len(p.vals) {
		return nil
	}
	return p.vals[ctx]
}

// SnapshotValues returns snapshot snap's final values under schedule s,
// or nil before Run or for an out-of-range snapshot.
func (p *Parallel) SnapshotValues(s *sched.Schedule, snap int) []float64 {
	if snap < 0 || snap >= len(s.SnapshotCtx) {
		return nil
	}
	return p.Values(s.SnapshotCtx[snap])
}

// Events returns the total number of processed events.
func (p *Parallel) Events() int64 {
	// Events are only tallied inside shards during Run; recompute is not
	// possible afterwards, so Run accumulates into evTotal.
	return p.evTotal
}

// panicTrap collects the first panic recovered in any worker goroutine
// (or the coordinator's inline phase execution) of one batch application.
type panicTrap struct {
	mu    sync.Mutex
	err   error
	round int
}

// capture runs inside a deferred recover; it records the first panic as a
// typed WorkerPanicError, preserving the panicking goroutine's stack.
func (t *panicTrap) capture(shard int, r any) {
	t.mu.Lock()
	if t.err == nil {
		t.err = &megaerr.WorkerPanicError{
			Shard: shard, Round: t.round, Value: r, Stack: debug.Stack(),
		}
	}
	t.mu.Unlock()
}

func (t *panicTrap) tripped() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// startWorkers launches the persistent worker pool: one goroutine per
// shard, parked on its command channel between phases. Workers live until
// stopWorkers; RunContext pairs the two so no goroutine outlives a run.
func (p *Parallel) startWorkers() {
	p.cmd = make([]chan int, len(p.shards))
	for i := range p.cmd {
		p.cmd[i] = make(chan int, 1)
	}
	p.exitWG.Add(len(p.shards))
	for i := range p.shards {
		go p.workerLoop(i)
	}
}

// stopWorkers closes every command channel and joins the workers. Callers
// hold the barrier (no phase in flight), so close cannot race a send.
func (p *Parallel) stopWorkers() {
	for _, c := range p.cmd {
		close(c)
	}
	p.exitWG.Wait()
}

func (p *Parallel) workerLoop(si int) {
	defer p.exitWG.Done()
	for ph := range p.cmd[si] {
		p.phaseOn(si, ph)
		p.wg.Done()
	}
}

// phaseOn executes one phase for one shard, containing panics: a panic in
// user Algorithm code lands in the trap and the barrier still completes,
// whether the phase ran on a worker goroutine or inline.
func (p *Parallel) phaseOn(si, ph int) {
	defer func() {
		if r := recover(); r != nil {
			p.trap.capture(si, r)
		}
	}()
	if p.fp != nil {
		// Per-shard visit counting keeps shard-targeted injections
		// deterministic under phase interleaving. A transient fault skips
		// the phase's work and aborts the run at the barrier; a panic
		// exercises the trap's normal containment path.
		if err := p.fp.CheckShardCtx(p.ctx, fault.SiteParallelPhase, si); err != nil {
			p.notePhaseErr(err)
			return
		}
	}
	sh := p.shards[si]
	switch ph {
	case phaseSeed:
		p.seedShard(si, sh)
	case phaseDeliver:
		p.deliverShard(sh)
	case phaseProcess:
		p.processShard(sh)
	case phaseBroadcast:
		p.broadcastShard(sh)
	}
}

// runPhase drives one phase barrier over the given shard indexes. Small
// phases (one live shard, or total work under inlinePhaseUnits) run inline
// on the coordinator, as do all phases on a single-P runtime — with
// GOMAXPROCS=1 a barrier hand-off serializes through the scheduler anyway,
// so waking workers only adds context switches. Otherwise workers are
// woken and the WaitGroup is the barrier. Returns the first trapped panic,
// if any.
func (p *Parallel) runPhase(live []int, ph, units int) error {
	if len(live) == 0 {
		return p.phaseFailure()
	}
	var start time.Time
	if p.reg != nil {
		start = time.Now()
	}
	if p.procs == 1 || len(live) == 1 || units < inlinePhaseUnits {
		for _, si := range live {
			p.phaseOn(si, ph)
		}
	} else {
		p.wg.Add(len(live))
		for _, si := range live {
			p.cmd[si] <- ph
		}
		p.wg.Wait()
	}
	if p.reg != nil {
		p.phaseNanos[ph] += time.Since(start).Nanoseconds()
	}
	return p.phaseFailure()
}

// allShards returns the scratch live list filled with every shard index.
func (p *Parallel) allShards() []int {
	p.live = p.live[:0]
	for si := range p.shards {
		p.live = append(p.live, si)
	}
	return p.live
}

func (p *Parallel) runApplies(ops []sched.Op) (err error) {
	// The coordinator's own loops may also call user code via bookkeeping;
	// contain panics that escape phase execution the same way (Shard = -1).
	defer func() {
		if r := recover(); r != nil {
			p.trap.capture(-1, r)
			err = p.trap.tripped()
		}
	}()
	p.trap.round = 0

	// Validate targets and mark batches applied before seeding, so
	// propagation traverses the batches' edges from the first round.
	seedUnits := 0
	for _, op := range ops {
		if len(op.Targets) == 0 {
			return megaerr.Invalidf("engine: OpApply with no targets")
		}
		compute := op.Targets
		if op.SharedCompute {
			compute = op.Targets[:1]
		}
		for _, c := range compute {
			if p.vals[c] == nil {
				return megaerr.Invalidf("engine: OpApply to uninitialized context %d", c)
			}
			p.applied[c].add(op.Batch.ID)
		}
		seedUnits += len(op.Batch.Edges) * len(compute)
	}
	if p.trackDirty {
		for _, sh := range p.shards {
			// A shard's dirty list may name vertices it stole from another
			// shard, so the mark always resets through the owner.
			for _, v := range sh.dirty {
				own := p.shards[p.ownerTab[v]]
				own.dirtyMark[v-own.lo] = false
			}
			sh.dirty = sh.dirty[:0]
		}
	}
	// Values reset non-monotonically across stages (OpInit/OpCopy), so
	// best-sent caches from the previous stage are meaningless now.
	p.stealRound = false
	for _, sh := range p.shards {
		if sh.sender != nil {
			sh.sender.nextStage()
		}
	}

	// Seed: workers split each batch's edge list evenly and route the
	// resulting candidates to the owning shards through the mailboxes.
	p.curOps = ops
	if err := p.runPhase(p.allShards(), phaseSeed, seedUnits); err != nil {
		return err
	}
	p.exchange()

	return p.finishApplies(ops, 0)
}

// resumeApplies re-enters an interrupted stage at a round-boundary
// checkpoint: batch marking and seeding already happened before the
// checkpoint (their effects — applied bits, shard pending matrices, dirty
// lists — were restored by RunContext), so execution continues straight
// into the barrier-round loop.
func (p *Parallel) resumeApplies(ops []sched.Op, round int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.trap.capture(-1, r)
			err = p.trap.tripped()
		}
	}()
	p.trap.round = round
	p.curOps = ops
	return p.finishApplies(ops, round)
}

// finishApplies drives barrier rounds from startRound to quiescence, then
// replays shared-compute broadcasts. Each round: deliver, process,
// exchange. Phase work runs on the persistent workers (or inline when
// small); every phase recovers its own panics into the trap so the
// barrier can never deadlock.
func (p *Parallel) finishApplies(ops []sched.Op, startRound int) error {
	p.inRounds = true
	round := startRound
	events := p.evTotal
	for _, sh := range p.shards {
		events += sh.events
	}
	for {
		p.curRound = round
		if cerr := checkCtx(p.ctx, "parallel barrier"); cerr != nil {
			return cerr
		}
		if p.limits.roundsExceeded(round) || p.limits.eventsExceeded(events) {
			return p.divergence(round, events)
		}
		if p.ckptEvery > 0 && round%p.ckptEvery == 0 {
			if err := p.takeCheckpoint(); err != nil {
				return err
			}
		}
		if err := p.fp.CheckCtx(p.ctx, fault.SiteParallelRound); err != nil {
			return err
		}
		p.trap.round = round

		// Deliver inbox chunks into pending matrices.
		live, units := p.liveInbox()
		if err := p.runPhase(live, phaseDeliver, units); err != nil {
			return err
		}

		// Quiescence: no shard was touched by delivery.
		live, units = p.liveTouched()
		if len(live) == 0 {
			break
		}

		// Rebalance a skewed round: hand touched-list tails from
		// overloaded shards to idle ones for this process phase.
		if p.planSteal(units) {
			live = p.liveProcess()
		}

		// Process each live shard's touched vertices and stolen segments.
		if err := p.runPhase(live, phaseProcess, units); err != nil {
			return err
		}

		// Exchange outbox chunks (single-threaded pointer moves).
		p.exchange()
		events = p.evTotal
		for _, sh := range p.shards {
			events += sh.events
		}
		round++
		p.rounds++
	}

	for _, sh := range p.shards {
		p.evTotal += sh.events
		sh.events = 0
	}
	p.inRounds = false

	// Shared-compute broadcasts: values are settled, so each shard copies
	// its own vertex range of the source context into the targets.
	bcUnits := 0
	for _, op := range ops {
		if !op.SharedCompute || len(op.Targets) < 2 {
			continue
		}
		for _, c := range op.Targets[1:] {
			if p.vals[c] == nil {
				return megaerr.Invalidf("engine: broadcast to uninitialized context %d", c)
			}
			p.applied[c].add(op.Batch.ID)
			bcUnits += p.w.NumVertices()
		}
	}
	if bcUnits > 0 {
		if err := p.runPhase(p.allShards(), phaseBroadcast, bcUnits); err != nil {
			return err
		}
	}
	return nil
}

// liveInbox lists shards with undelivered chunks; units approximates the
// total buffered events.
func (p *Parallel) liveInbox() ([]int, int) {
	p.live = p.live[:0]
	units := 0
	for si, sh := range p.shards {
		if len(sh.inbox) > 0 {
			p.live = append(p.live, si)
			units += len(sh.inbox) * pChunkLen
		}
	}
	return p.live, units
}

// liveTouched lists shards with touched vertices; units is the total.
func (p *Parallel) liveTouched() ([]int, int) {
	p.live = p.live[:0]
	units := 0
	for si, sh := range p.shards {
		if len(sh.touched) > 0 {
			p.live = append(p.live, si)
			units += len(sh.touched)
		}
	}
	return p.live, units
}

// planSteal runs on the coordinator at the deliver→process barrier. When
// the round is large and skewed it hands contiguous tails of overloaded
// shards' touched lists to underloaded shards: donors above the ideal
// per-shard share give to recipients below it, largest imbalances first.
// Ownership of a donated segment transfers for exactly one process phase
// — the barrier orders the hand-off, donor and recipient touch disjoint
// per-vertex slots, and donors are flagged as victims so they (and the
// disabled direct path) never write state a stealer is draining. It
// returns whether any segment moved; stale assignments from earlier
// rounds are cleared unconditionally.
func (p *Parallel) planSteal(units int) bool {
	p.stealRound = false
	for _, sh := range p.shards {
		sh.steals = sh.steals[:0]
		sh.victim = false
	}
	n := len(p.shards)
	// With one P the phase runs sequentially anyway, so stealing would
	// only add mailbox round-trips for events the direct path handles.
	if n < 2 || p.procs == 1 || units < stealMinUnits {
		return false
	}
	load := p.stealLoad[:0]
	order := p.stealOrder[:0]
	for si, sh := range p.shards {
		load = append(load, len(sh.touched))
		order = append(order, si)
	}
	p.stealLoad, p.stealOrder = load, order
	// Insertion sort by load, descending: n is the worker count.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && load[order[j]] > load[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	target := units / n
	stole := false
	di, ri := 0, n-1
	for di < ri {
		d := order[di]
		surplus := load[d] - target
		if surplus < stealMinSeg {
			break // heaviest remaining donor is near the ideal share
		}
		r := order[ri]
		deficit := target - load[r]
		if deficit < stealMinSeg {
			break // lightest remaining recipient is near the ideal share
		}
		k := surplus
		if deficit < k {
			k = deficit
		}
		sd, sr := p.shards[d], p.shards[r]
		cut := len(sd.touched) - k
		sr.steals = append(sr.steals, stealSeg{victim: d, verts: sd.touched[cut:]})
		sd.touched = sd.touched[:cut]
		sd.victim = true
		sr.stealRanges++
		sr.stealVertices += int64(k)
		load[d] -= k
		load[r] += k
		stole = true
		if load[d]-target < stealMinSeg {
			di++
		}
		if target-load[r] < stealMinSeg {
			ri--
		}
	}
	p.stealRound = stole
	return stole
}

// liveProcess lists shards with touched vertices or stolen segments,
// used after planSteal moved work onto otherwise-idle shards.
func (p *Parallel) liveProcess() []int {
	p.live = p.live[:0]
	for si, sh := range p.shards {
		if len(sh.touched) > 0 || len(sh.steals) > 0 {
			p.live = append(p.live, si)
		}
	}
	return p.live
}

// exchange moves outbox chunk pointers to their destination inboxes. It
// runs on the coordinator between barriers, so no locking is needed, and
// it moves chunk pointers — never event payloads. Moving a shard's chunks
// invalidates its sender table's in-flight merge references.
func (p *Parallel) exchange() {
	for _, sh := range p.shards {
		moved := false
		for di, chunks := range sh.outbox {
			if len(chunks) == 0 {
				continue
			}
			dst := p.shards[di]
			dst.inbox = append(dst.inbox, chunks...)
			sh.outbox[di] = sh.outbox[di][:0]
			sh.open[di] = nil
			moved = true
		}
		if moved && sh.sender != nil {
			sh.sender.nextFlight()
		}
	}
}

// divergence builds the watchdog's diagnostic error from the shards'
// pending state.
func (p *Parallel) divergence(round int, events int64) error {
	tripped := "MaxRounds"
	if p.limits.eventsExceeded(events) {
		tripped = "MaxEvents"
	}
	// Pending work sits in touched lists right after delivery and in
	// inboxes right after an exchange; sample from whichever is live.
	sample := int64(-1)
	live := int64(0)
	for _, sh := range p.shards {
		live += int64(len(sh.touched))
		if sample < 0 && len(sh.touched) > 0 {
			sample = int64(sh.touched[0])
		}
		for _, ck := range sh.inbox {
			live += int64(ck.n)
			if sample < 0 && ck.n > 0 {
				sample = int64(ck.ev[0].dst)
			}
		}
	}
	return &megaerr.DivergenceError{
		Engine: "parallel", Limit: tripped, Rounds: round,
		Events: events, LiveEvents: live, SampleVertex: sample,
	}
}

// seedShard generates this worker's share of the stage's seed events:
// each batch's edge list is split evenly across workers (independent of
// vertex ownership) and candidates are routed to the owning shards via
// the chunked mailboxes, exactly like propagation events.
func (p *Parallel) seedShard(si int, sh *shard) {
	workers := len(p.shards)
	for _, op := range p.curOps {
		compute := op.Targets
		if op.SharedCompute {
			compute = op.Targets[:1]
		}
		edges := op.Batch.Edges
		lo := len(edges) * si / workers
		hi := len(edges) * (si + 1) / workers
		direct := p.procs == 1
		for _, e := range edges[lo:hi] {
			owner := int(p.ownerTab[e.Dst])
			for _, c := range compute {
				srcVal := p.vals[c][e.Src]
				if srcVal == p.ident {
					continue
				}
				cand := p.a.EdgeFunc(srcVal, e.Weight)
				// Generation filter, the one Multi.runApplies applies to its
				// own seeds when no Probe prices them (this engine has no
				// probe, so it always filters): during the seed phase no
				// worker writes values, so reading any destination's current
				// value is race-free, and a candidate that doesn't improve
				// it can never survive the coalescing take either. Filtered
				// candidates are never counted, in either engine.
				if !p.a.Better(cand, p.vals[c][e.Dst]) {
					continue
				}
				ev := pEvent{ctx: int32(c), dst: e.Dst, val: cand}
				if owner == sh.id {
					p.push(sh, ev) // own vertex: skip the mailbox round-trip
				} else if direct {
					p.push(p.shards[owner], ev)
				} else {
					p.emitCoalesced(sh, owner, ev)
				}
			}
		}
	}
}

// deliverShard coalesces the shard's inbox chunks into its pending matrix
// and recycles the chunks. The push logic is written out with hoisted
// slice headers: this loop handles every cross-shard event of every round
// and the per-event function-call and field-reload overhead is measurable.
func (p *Parallel) deliverShard(sh *shard) {
	a := p.a
	numCtx, ctxWords := p.numCtx, p.ctxWords
	pending, mask, mark := sh.pending, sh.ctxMask, sh.mark
	lo := sh.lo
	for _, ck := range sh.inbox {
		for i := 0; i < ck.n; i++ {
			ev := &ck.ev[i]
			idx := int(ev.dst - lo)
			word := idx*ctxWords + int(ev.ctx)>>6
			bit := uint64(1) << (uint(ev.ctx) & 63)
			slot := idx*numCtx + int(ev.ctx)
			if mask[word]&bit != 0 {
				sh.coalesced++
				if a.Better(ev.val, pending[slot]) {
					pending[slot] = ev.val
				}
			} else {
				mask[word] |= bit
				pending[slot] = ev.val
				if !mark[idx] {
					mark[idx] = true
					sh.touched = append(sh.touched, ev.dst)
				}
			}
		}
		ck.n = 0
		p.chunkPool.Put(ck)
	}
	sh.inbox = sh.inbox[:0]
}

// push coalesces an event into the shard's pending matrix.
func (p *Parallel) push(sh *shard, ev pEvent) {
	idx := int(ev.dst - sh.lo)
	word := idx*p.ctxWords + int(ev.ctx)>>6
	bit := uint64(1) << (uint(ev.ctx) & 63)
	slot := idx*p.numCtx + int(ev.ctx)
	sh.pushed++
	if sh.ctxMask[word]&bit != 0 {
		sh.coalesced++
		if p.a.Better(ev.val, sh.pending[slot]) {
			sh.pending[slot] = ev.val
		}
		return
	}
	sh.ctxMask[word] |= bit
	sh.pending[slot] = ev.val
	if !sh.mark[idx] {
		sh.mark[idx] = true
		sh.touched = append(sh.touched, ev.dst)
	}
}

// emit appends an event to the open chunk of sh's outbox for the owning
// shard, starting a fresh pooled chunk when the open one is full. It
// returns the chunk and event index so the sender table can merge later
// improvements in place while the chunk is still in this outbox.
func (p *Parallel) emit(sh *shard, owner int, ev pEvent) (*pChunk, int32) {
	ck := sh.open[owner]
	if ck == nil || ck.n == pChunkLen {
		ck = p.chunkPool.Get().(*pChunk)
		sh.outbox[owner] = append(sh.outbox[owner], ck)
		sh.open[owner] = ck
	}
	pos := int32(ck.n)
	ck.ev[ck.n] = ev
	ck.n++
	return ck, pos
}

// emitCoalesced routes an event into the owner's mailbox through the
// sender-side coalescing table. A candidate no better than the best value
// already sent to its (vertex, ctx) this stage is dropped: the sent value
// was appended to a chunk the owner is guaranteed to coalesce-and-apply
// within the stage, and Better is a strict total order, so the owner
// would discard this candidate anyway. An improving candidate overwrites
// the sent event's chunk slot in place when the chunk is still in this
// shard's outbox (no exchange since it was appended), otherwise it is
// re-emitted. Either way the cache records the best value in flight, so a
// vertex hammered many times in one round crosses the shard boundary as
// one event.
func (p *Parallel) emitCoalesced(sh *shard, owner int, ev pEvent) {
	sh.pushed++
	t := sh.sender
	if t == nil {
		t = newSenderTable()
		sh.sender = t
	}
	t.maybeGrow()
	key := uint64(ev.dst)<<32 | uint64(uint32(ev.ctx))
	s := t.find(key)
	if s.gen == t.gen && s.key == key {
		if !p.a.Better(ev.val, s.val) {
			sh.senderCoalesced++
			return
		}
		s.val = ev.val
		if s.fly == t.fly && s.ck != nil {
			s.ck.ev[s.pos].val = ev.val
			sh.senderCoalesced++
			return
		}
	} else {
		s.key, s.gen, s.val = key, t.gen, ev.val
		t.n++
	}
	s.ck, s.pos = p.emit(sh, owner, ev)
	s.fly = t.fly
}

// processShard drains the shard's touched vertices, then any stolen
// segments assigned by planSteal. The per-vertex context bitmask walks
// only contexts with live candidates, and one adjacency fetch serves
// every improved context of a vertex.
func (p *Parallel) processShard(sh *shard) {
	// Swap in the spare touched buffer: self-delivered events re-mark
	// vertices for the NEXT round by appending to sh.touched, which must
	// not alias the list being drained.
	touched := sh.touched
	sh.touched = sh.spare[:0]
	// A victim must not self-push either: stealers are concurrently
	// reading its pending matrix and marks for the stolen range, so every
	// event it generates goes through the mailboxes instead.
	p.processVerts(sh, sh, touched, p.stealRound && sh.victim)
	sh.spare = touched[:0]
	for _, seg := range sh.steals {
		p.processVerts(sh, p.shards[seg.victim], seg.verts, false)
	}
}

// processVerts takes the pending candidates of verts — owned by own,
// which is sh itself except when processing a stolen segment — applies
// improvements to the global value rows, and routes generated events.
// Ownership of stolen vertices was handed off at the deliver→process
// barrier and the per-vertex state slots of distinct vertices are
// disjoint, so the stealer reads/clears the victim's pending, mask, and
// dirty state and writes values race-free; everything it generates still
// reaches destination shards via the owner's delivery path (push for its
// own vertices, mailboxes otherwise). mailboxOnly forces every generated
// event through emitCoalesced (used by victims).
func (p *Parallel) processVerts(sh, own *shard, verts []graph.VertexID, mailboxOnly bool) {
	a := p.a
	numCtx, ctxWords := p.numCtx, p.ctxWords
	ctxMask, pending := own.ctxMask, own.pending
	vals, batchOf, ownerTab := p.vals, p.batchOf, p.ownerTab
	// On a single-P runtime every phase runs inline on the coordinator, so
	// shards are processed strictly sequentially and cross-shard events can
	// be pushed straight into the destination's pending matrix — the
	// chunked mailboxes only exist to keep concurrent workers race-free.
	// Direct pushes may be consumed later in the same round (if the target
	// shard processes after this one), which is safe for a monotone
	// coalescing fixpoint and only accelerates convergence. Steal rounds
	// disable the direct path: a destination may be a victim whose pending
	// matrix is being drained by its stealer.
	direct := p.procs == 1 && !p.stealRound
	shardLo := own.lo
	for _, v := range verts {
		idx := int(v - shardLo)
		own.mark[idx] = false
		upd := sh.updCtx[:0]
		updVal := sh.updVal[:0]
		mbase := idx * ctxWords
		pbase := idx * numCtx
		for w := 0; w < ctxWords; w++ {
			m := ctxMask[mbase+w]
			if m == 0 {
				continue
			}
			ctxMask[mbase+w] = 0
			for m != 0 {
				c := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				cand := pending[pbase+c]
				sh.events++
				sh.taken++
				if a.Better(cand, vals[c][v]) {
					vals[c][v] = cand
					upd = append(upd, int32(c))
					updVal = append(updVal, cand)
				}
			}
		}
		sh.updCtx, sh.updVal = upd[:0], updVal[:0]
		if len(upd) == 0 {
			continue
		}
		if own.dirtyMark != nil && !own.dirtyMark[idx] {
			own.dirtyMark[idx] = true
			sh.dirty = append(sh.dirty, v)
		}
		lo, _ := p.union.EdgeRange(v)
		dsts, ws := p.union.OutEdges(v)
		if len(upd) == 1 {
			// Overwhelmingly common in convergence tails: one context
			// improved, so hoist its state out of the edge loop.
			c, srcVal := upd[0], updVal[0]
			appliedC := p.applied[c]
			valsC := vals[c]
			for i, d := range dsts {
				if b := batchOf[lo+uint32(i)]; b >= 0 && !appliedC.has(int(b)) {
					continue
				}
				ev := pEvent{ctx: c, dst: d, val: a.EdgeFunc(srcVal, ws[i])}
				if owner := int(ownerTab[d]); owner == sh.id && !mailboxOnly {
					// Generation filter (mirrors Multi.runRounds): only this
					// goroutine writes its own vertices' values, so the read
					// is race-free and a non-improving candidate can be
					// dropped before it ever occupies a queue slot.
					if a.Better(ev.val, valsC[d]) {
						p.push(sh, ev) // own vertex: next round, no mailbox trip
					}
				} else if direct {
					if a.Better(ev.val, valsC[d]) {
						p.push(p.shards[owner], ev)
					}
				} else {
					p.emitCoalesced(sh, owner, ev)
				}
			}
			continue
		}
		for i, d := range dsts {
			b := batchOf[lo+uint32(i)]
			owner := int(ownerTab[d])
			for k, c := range upd {
				if b >= 0 && !p.applied[c].has(int(b)) {
					continue
				}
				ev := pEvent{
					ctx: c, dst: d, val: a.EdgeFunc(updVal[k], ws[i]),
				}
				if owner == sh.id && !mailboxOnly {
					if a.Better(ev.val, vals[c][d]) {
						p.push(sh, ev)
					}
				} else if direct {
					if a.Better(ev.val, vals[c][d]) {
						p.push(p.shards[owner], ev)
					}
				} else {
					p.emitCoalesced(sh, owner, ev)
				}
			}
		}
	}
}

// broadcastShard replays shared-compute results: for each broadcasting op
// the shard copies its own vertex range from the computed context into
// every remaining target with a single copy per target.
func (p *Parallel) broadcastShard(sh *shard) {
	lo, hi := int(sh.lo), int(sh.hi)
	if lo == hi {
		return
	}
	for _, op := range p.curOps {
		if !op.SharedCompute || len(op.Targets) < 2 {
			continue
		}
		src := p.vals[op.Targets[0]]
		for _, c := range op.Targets[1:] {
			copy(p.vals[c][lo:hi], src[lo:hi])
		}
	}
}
