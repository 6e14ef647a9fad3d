package engine

import (
	"context"
	"fmt"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/fault"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/sched"
)

// Multi is the MEGA-side engine: it evaluates a query over an evolving
// window by executing a schedule (Direct-Hop, Work-Sharing, or BOE) on the
// unified evolving-graph CSR. It maintains one value-array *context* per
// schedule context and can run many contexts concurrently within a single
// round loop — concurrently updating contexts share each vertex's adjacency
// fetch, which is the datapath behaviour that gives BOE its locality (§4.2:
// "edge prefetching is done by the first event destined to the vertex, but
// is reused by subsequent snapshots").
//
// Deletions never occur on this path: the CommonGraph formulation has
// converted them to additions.
type Multi struct {
	w     *evolve.Window
	u     *graph.UnifiedCSR
	a     algo.Algorithm
	src   graph.VertexID
	probe Probe

	// Multi-source batching (NewMultiSource): srcs lists every query
	// source sharing this run; nil or length 1 is the classic single-
	// source engine. nc is the unexpanded schedule's context count, so
	// source k's context c lives at global context k*nc+c.
	srcs    []graph.VertexID
	nc      int
	basePer [][]float64 // per-source CommonGraph solutions (index 0 aliases baseVals)

	// batchOf is the window's union-edge → batch tag map (Window.BatchOf),
	// shared and read-only.
	batchOf []int32

	baseVals []float64 // query solved on the CommonGraph (lazily built)

	vals    [][]float64
	applied []batchSet

	cur, next *roundQueue

	// lifecycle state, set for the duration of RunContext.
	ran    bool
	ctx    context.Context
	limits Limits
	events int64 // events processed across the run (watchdog)

	// fault injection (picked up from the run context) and
	// checkpoint/resume state. fp is nil on fault-free runs and ckptEvery
	// is 0 unless checkpointing was requested, so both features cost one
	// compare per round boundary when off.
	fp        *fault.Plan
	schedHash uint64
	winFP     []ckptBatch // lazily cached window fingerprint
	ckptEvery int
	ckptSink  func([]byte) error
	lastCkpt  []byte
	resume    *checkpointState
	curStage  int  // op index of the first op of the executing stage
	inRounds  bool // true between seeding and quiescence of a stage
	curRound  int  // next round to process, valid while inRounds

	// noFetchShare disables cross-context adjacency-fetch sharing (for
	// ablation studies): every updating context fetches separately, as if
	// the datapath had no prefetch reuse between snapshots.
	noFetchShare bool

	// Observability. qPushed/qCoalesced/qTaken count this engine's queue
	// traffic post-construction: every push call, the subset that merged
	// into an occupied slot, and every take. Restored checkpoint entries
	// are re-pushed through the counted path, so the conservation law
	// pushed − coalesced == taken holds across resume. Coalesced merges
	// are invisible to the Probe (Generated only fires on new-slot
	// pushes), which is why these live on the engine, not the probe.
	qPushed, qCoalesced, qTaken int64
	rounds                      int64
	ckptTaken, ckptRestored     int64
	auditOn                     bool
	reg                         *metrics.Registry

	// scratch state reused across ops.
	updating  []int
	updBatch  []int32
	dirty     []graph.VertexID
	dirtyMark []bool
}

// SetFetchSharing toggles cross-snapshot adjacency-fetch reuse (default
// on). Must be called before Run.
func (m *Multi) SetFetchSharing(enabled bool) { m.noFetchShare = !enabled }

// SetCheckpointEvery enables automatic checkpoints: one at every stage
// boundary and one every n round boundaries inside a stage (0 disables).
// Must be called before Run.
func (m *Multi) SetCheckpointEvery(n int) { m.ckptEvery = n }

// SetCheckpointSink registers a destination for automatic checkpoints
// (e.g. an atomic file write). A sink error aborts the run. The engine
// retains the latest checkpoint regardless; see LastCheckpoint.
func (m *Multi) SetCheckpointSink(sink func([]byte) error) { m.ckptSink = sink }

// LastCheckpoint returns the most recent automatic checkpoint, or nil if
// none was taken. The bytes are valid to Restore into a fresh engine even
// after this engine failed mid-run — including after a panic, since the
// checkpoint was serialized at an earlier consistent boundary.
func (m *Multi) LastCheckpoint() []byte { return m.lastCkpt }

// Checkpoint serializes the engine's state at its current consistent
// point: a round boundary (after a transient mid-stage failure) or a
// stage boundary (after a stage-level failure or a completed run). Only
// valid once Run has started; after a panic, use LastCheckpoint instead —
// the live state may be torn mid-round.
func (m *Multi) Checkpoint() ([]byte, error) {
	if !m.ran {
		return nil, megaerr.Invalidf("engine: Checkpoint before Run")
	}
	if len(m.srcs) > 1 {
		return nil, megaerr.Invalidf("engine: multi-source runs do not checkpoint")
	}
	return m.snapshotState().encode(), nil
}

// Restore primes a fresh engine to resume from checkpoint bytes. The
// checkpoint must match the engine's algorithm, source, and window
// (validated here) and the schedule later given to Run (validated there).
// Restore must precede Run.
func (m *Multi) Restore(data []byte) error {
	if m.ran {
		return megaerr.Invalidf("engine: Restore after Run")
	}
	st, err := DecodeCheckpoint(data)
	if err != nil {
		return err
	}
	if err := st.matchEngine(uint32(m.a.Kind()), uint32(m.src), m.w, m.windowFingerprint()); err != nil {
		return err
	}
	m.resume = st
	m.ckptRestored++
	return nil
}

// windowFingerprint computes the content fingerprint once per engine;
// fingerprinting iterates every batch edge, so per-checkpoint recompute
// would dominate small rounds.
func (m *Multi) windowFingerprint() []ckptBatch {
	if m.winFP == nil {
		m.winFP = fingerprintWindow(m.w)
	}
	return m.winFP
}

// snapshotState captures the engine's live state for encoding. At stage
// boundaries the queue is empty and the dirty list is stale scratch, so
// both are omitted.
func (m *Multi) snapshotState() *checkpointState {
	st := &checkpointState{
		algoKind:   uint32(m.a.Kind()),
		source:     uint32(m.src),
		numVerts:   uint32(m.w.NumVertices()),
		numCtx:     uint32(len(m.vals)),
		batches:    m.windowFingerprint(),
		schedHash:  m.schedHash,
		stageStart: uint32(m.curStage),
		inRounds:   m.inRounds,
		events:     m.events,
		baseVals:   m.baseVals,
		vals:       m.vals,
		applied:    m.applied,
	}
	if m.inRounds {
		st.round = uint32(m.curRound)
		st.queue = dumpRoundQueue(m.cur)
		st.dirty = m.dirty
	}
	return st
}

// dumpRoundQueue lists a queue's coalesced pending entries in touched
// order (ties within a vertex by ascending context).
func dumpRoundQueue(q *roundQueue) []ckptEntry {
	out := make([]ckptEntry, 0, q.count)
	for _, v := range q.touched {
		for c := range q.has {
			if q.has[c][v] {
				out = append(out, ckptEntry{ctx: int32(c), v: v, val: q.pending[c][v], tag: q.batch[c][v]})
			}
		}
	}
	return out
}

// takeCheckpoint encodes the current state, retains it, and forwards it
// to the sink when one is registered.
func (m *Multi) takeCheckpoint() error {
	data := m.snapshotState().encode()
	m.lastCkpt = data
	m.ckptTaken++
	if m.ckptSink != nil {
		return m.ckptSink(data)
	}
	return nil
}

// NewMulti builds an engine for the window. src is the query source
// vertex. probe may be nil. Construction is O(V): everything that depends
// only on the window (the unified CSR, its batch tags) lives on the Window.
// It fails if the window's batch tags do (see Window.BatchOf).
func NewMulti(w *evolve.Window, a algo.Algorithm, src graph.VertexID, probe Probe) (*Multi, error) {
	if probe == nil {
		probe = NopProbe{}
	}
	if err := checkSource(w, src); err != nil {
		return nil, err
	}
	batchOf, err := w.BatchOf()
	if err != nil {
		return nil, err
	}
	return &Multi{
		w:         w,
		u:         w.Unified(),
		a:         a,
		src:       src,
		probe:     probe,
		batchOf:   batchOf,
		updating:  make([]int, 0, 8),
		dirtyMark: make([]bool, w.NumVertices()),
		auditOn:   metrics.Strict(),
	}, nil
}

// checkSource refuses a query source outside the window's vertex range.
func checkSource(w *evolve.Window, src graph.VertexID) error {
	if int(src) >= w.NumVertices() {
		return megaerr.Invalidf("engine: source vertex %d outside [0,%d)", src, w.NumVertices())
	}
	return nil
}

// NewMultiSource builds one engine that answers the same query for
// several source vertices in a single run — the cross-query half of BOE's
// compute sharing. The schedule's contexts are replicated once per source
// (context c of source k lives at global context k*nc+c) and every
// non-shared batch application becomes one op whose target list spans all
// sources, so each batch's edge stream is read once and seeds events for
// every query, and the round loop's adjacency-fetch sharing extends
// across queries. Contexts of different sources never interact, so each
// source's results are bit-identical to its own single-source run.
// Multi-source engines refuse Restore and SetCheckpointEvery: a batched
// run that fails is simply re-run or split by the caller.
func NewMultiSource(w *evolve.Window, a algo.Algorithm, srcs []graph.VertexID, probe Probe) (*Multi, error) {
	if len(srcs) == 0 {
		return nil, megaerr.Invalidf("engine: NewMultiSource with no sources")
	}
	seen := make(map[graph.VertexID]bool, len(srcs))
	for _, src := range srcs {
		if err := checkSource(w, src); err != nil {
			return nil, err
		}
		if seen[src] {
			return nil, megaerr.Invalidf("engine: duplicate source vertex %d", src)
		}
		seen[src] = true
	}
	m, err := NewMulti(w, a, srcs[0], probe)
	if err != nil {
		return nil, err
	}
	m.srcs = append([]graph.VertexID(nil), srcs...)
	return m, nil
}

// SeedBase primes the engine with a precomputed CommonGraph solution so
// Run skips the base solve (stable-vertex seeding). The values must be
// the exact converged solution for this engine's algorithm, source, and
// CommonGraph content — callers establish that by Fingerprint equality,
// which makes the seed bit-identical to what the skipped solve would have
// produced. Must precede Run; single-source engines only.
func (m *Multi) SeedBase(base []float64) error {
	if m.ran {
		return megaerr.Invalidf("engine: SeedBase after Run")
	}
	if len(m.srcs) > 1 {
		return megaerr.Invalidf("engine: SeedBase on a multi-source engine")
	}
	if len(base) != m.w.NumVertices() {
		return megaerr.Invalidf("engine: SeedBase length %d, window has %d vertices", len(base), m.w.NumVertices())
	}
	m.baseVals = append([]float64(nil), base...)
	return nil
}

// expandSchedule replicates a schedule once per source: bookkeeping ops
// are cloned per source with remapped contexts, a non-shared apply
// becomes ONE op targeting every source's contexts (single batch read,
// shared fetches), and shared-compute applies stay per-source because
// each broadcast replays only its own group's computation. Stage indices
// are preserved, so the stage loop merges the clones exactly as it merges
// the originals.
func expandSchedule(s *sched.Schedule, k int) *sched.Schedule {
	nc := s.NumContexts
	out := &sched.Schedule{
		Mode:        s.Mode,
		NumContexts: nc * k,
		SnapshotCtx: append([]int(nil), s.SnapshotCtx...),
		Ops:         make([]sched.Op, 0, len(s.Ops)*k),
	}
	for _, op := range s.Ops {
		switch {
		case op.Kind == sched.OpApply && !op.SharedCompute:
			c := op
			ts := make([]int, 0, len(op.Targets)*k)
			for i := 0; i < k; i++ {
				for _, t := range op.Targets {
					ts = append(ts, i*nc+t)
				}
			}
			c.Targets = ts
			out.Ops = append(out.Ops, c)
		case op.Kind == sched.OpApply:
			for i := 0; i < k; i++ {
				c := op
				ts := make([]int, len(op.Targets))
				for j, t := range op.Targets {
					ts[j] = i*nc + t
				}
				c.Targets = ts
				out.Ops = append(out.Ops, c)
			}
		default: // OpInit, OpCopy
			for i := 0; i < k; i++ {
				c := op
				c.Ctx = i*nc + op.Ctx
				if op.Kind == sched.OpCopy {
					c.From = i*nc + op.From
				}
				out.Ops = append(out.Ops, c)
			}
		}
	}
	return out
}

// countPush records one queue push attempt: ok means the event landed in a
// new slot, !ok that it coalesced into an occupied one. Returns ok so push
// sites stay one-line.
func (m *Multi) countPush(ok bool) bool {
	m.qPushed++
	if !ok {
		m.qCoalesced++
	}
	return ok
}

// SetMetrics attaches a registry; RecordMetrics is called automatically at
// the end of a successful RunContext. May be nil (the default) to disable.
func (m *Multi) SetMetrics(reg *metrics.Registry) { m.reg = reg }

// QueueCounters exposes the engine's post-construction queue traffic:
// pushes attempted, pushes that coalesced, and takes.
func (m *Multi) QueueCounters() (pushed, coalesced, taken int64) {
	return m.qPushed, m.qCoalesced, m.qTaken
}

// AuditQueues checks the engine's event-conservation law at quiescence:
// every push attempt either merged or was eventually taken, and no events
// remain queued. Restored checkpoint entries re-enter through the counted
// push path, so the law holds across crash/resume. Only meaningful after a
// completed run (mid-run, in-flight events make the imbalance legitimate).
func (m *Multi) AuditQueues() []metrics.AuditResult {
	out := make([]metrics.AuditResult, 0, 2)
	live := 0
	if m.cur != nil {
		live += m.cur.count
	}
	if m.next != nil {
		live += m.next.count
	}
	ok := m.qPushed-m.qCoalesced == m.qTaken
	detail := fmt.Sprintf("pushed %d - coalesced %d = %d, taken %d",
		m.qPushed, m.qCoalesced, m.qPushed-m.qCoalesced, m.qTaken)
	out = append(out, metrics.AuditResult{Name: "engine.queue_conservation", OK: ok, Detail: detail})
	out = append(out, metrics.AuditResult{
		Name: "engine.queue_drained", OK: live == 0,
		Detail: fmt.Sprintf("%d events still queued at quiescence", live),
	})
	return out
}

// RecordMetrics writes the engine's counters into reg under the shared
// metric taxonomy (DESIGN.md §10) and records its audits.
func (m *Multi) RecordMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("engine_rounds", "engine", "multi").Add(m.rounds)
	reg.Counter("engine_events_processed", "engine", "multi").Add(m.qTaken)
	reg.Counter("queue_pushed", "engine", "multi").Add(m.qPushed)
	reg.Counter("queue_coalesced", "engine", "multi").Add(m.qCoalesced)
	reg.Counter("queue_taken", "engine", "multi").Add(m.qTaken)
	reg.Counter("checkpoint_taken", "engine", "multi").Add(m.ckptTaken)
	reg.Counter("checkpoint_restored", "engine", "multi").Add(m.ckptRestored)
	for _, ar := range m.AuditQueues() {
		reg.RecordAudit(ar)
	}
}

// BatchOf exposes the window's union-edge-index → batch-ID map (see
// Window.BatchOf). Do not modify.
func (m *Multi) BatchOf() []int32 { return m.batchOf }

// BaseValues returns the query solution on the CommonGraph, computing it
// on first use. The returned slice must not be modified.
func (m *Multi) BaseValues() []float64 {
	if m.baseVals == nil {
		m.baseVals = Solve(m.w.CommonCSR(), m.a, m.src, NopProbe{})
	}
	return m.baseVals
}

// ensureBase is BaseValues under the run's lifecycle: the CommonGraph
// solve honours cancellation and the divergence watchdog.
func (m *Multi) ensureBase() ([]float64, error) {
	if m.baseVals == nil {
		base, err := SolveContext(m.ctx, m.w.CommonCSR(), m.a, m.src, NopProbe{}, m.limits)
		if err != nil {
			return nil, err
		}
		m.baseVals = base
	}
	return m.baseVals, nil
}

// ensureBaseFor resolves source index k's CommonGraph solution (k derives
// from the global context an OpInit targets). Index 0 is the classic
// single-source base.
func (m *Multi) ensureBaseFor(k int) ([]float64, error) {
	if k == 0 {
		return m.ensureBase()
	}
	if m.basePer == nil {
		m.basePer = make([][]float64, len(m.srcs))
	}
	if m.basePer[k] == nil {
		base, err := SolveContext(m.ctx, m.w.CommonCSR(), m.a, m.srcs[k], NopProbe{}, m.limits)
		if err != nil {
			return nil, err
		}
		m.basePer[k] = base
	}
	return m.basePer[k], nil
}

// Run executes the schedule. Afterwards Values/SnapshotValues expose the
// per-context and per-snapshot results. Run may be called once per engine.
func (m *Multi) Run(s *sched.Schedule) error {
	return m.RunContext(context.Background(), s, Limits{})
}

// RunContext is Run under a lifecycle: ctx is checked at every stage and
// round boundary (a cancellation surfaces as megaerr.ErrCanceled wrapping
// ctx.Err()), and lim bounds the fixpoint loops (zero fields take
// DefaultLimits for the window; exceeding a bound surfaces
// megaerr.ErrDivergence).
func (m *Multi) RunContext(ctx context.Context, s *sched.Schedule, lim Limits) error {
	if m.ran {
		return megaerr.Invalidf("engine: Run called twice")
	}
	m.ran = true
	m.nc = s.NumContexts
	if len(m.srcs) > 1 {
		if m.resume != nil {
			return megaerr.Invalidf("engine: multi-source runs do not resume")
		}
		if m.ckptEvery > 0 {
			return megaerr.Invalidf("engine: multi-source runs do not checkpoint")
		}
		s = expandSchedule(s, len(m.srcs))
	}
	m.ctx = ctx
	m.fp = fault.From(ctx)
	m.limits = lim.withDefaults(m.w.NumVertices(), s.NumContexts)
	if err := checkCtx(ctx, "engine start"); err != nil {
		return err
	}
	st := m.resume
	m.resume = nil
	if st != nil {
		if err := st.matchSchedule(s); err != nil {
			return err
		}
	}
	m.schedHash = hashSchedule(s)
	n := m.w.NumVertices()
	m.vals = make([][]float64, s.NumContexts)
	m.applied = make([]batchSet, s.NumContexts)
	m.cur = newRoundQueue(s.NumContexts, n)
	m.next = newRoundQueue(s.NumContexts, n)
	if st != nil {
		// Install the checkpointed state: values, applied sets, the base
		// solution, the watchdog's event count, and — when the checkpoint
		// was taken mid-stage — the pending queue and dirty list.
		m.events = st.events
		if st.baseVals != nil {
			m.baseVals = st.baseVals
		}
		for c := range st.vals {
			if st.vals[c] != nil {
				m.vals[c] = st.vals[c]
				m.applied[c] = st.applied[c]
			}
		}
		for _, e := range st.queue {
			m.countPush(m.cur.push(m.a, int(e.ctx), e.v, e.val, e.tag))
		}
		m.dirty = append(m.dirty[:0], st.dirty...)
		for _, v := range st.dirty {
			m.dirtyMark[v] = true
		}
	}
	// Ops of one stage run concurrently on the accelerator: the stage's
	// bookkeeping ops (init/copy) execute first, then all of its batch
	// applications merge into one multi-context round loop — MEGA's
	// multiple-active-snapshots execution (§4.2). Stages with one apply
	// degenerate to sequential execution.
	for i := 0; i < len(s.Ops); {
		if err := checkCtx(m.ctx, "engine stage"); err != nil {
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
				// Mid-stage checkpoint: bookkeeping, batch marking, and
				// seeding all happened before it was taken; their effects
				// were restored above. Re-enter the round loop directly.
				round := int(st.round)
				st = nil
				m.curStage = stageFirst
				if err := m.resumeApplies(applies, round); err != nil {
					return err
				}
				continue
			}
			st = nil // stage-boundary checkpoint: run this stage normally
		}
		m.curStage = stageFirst
		if err := m.fp.CheckCtx(m.ctx, fault.SiteEngineOp); err != nil {
			return err
		}
		if m.ckptEvery > 0 {
			if err := m.takeCheckpoint(); err != nil {
				return err
			}
		}
		for _, op := range books {
			if err := m.runOp(op); err != nil {
				return err
			}
		}
		if len(applies) > 0 {
			if err := m.runApplies(applies); err != nil {
				return err
			}
		}
	}
	m.curStage = len(s.Ops)
	if m.reg != nil {
		m.RecordMetrics(m.reg)
	}
	if m.auditOn {
		for _, ar := range m.AuditQueues() {
			if err := ar.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Values returns context ctx's value array (nil if never initialized or
// before Run).
func (m *Multi) Values(ctx int) []float64 {
	if ctx < 0 || ctx >= len(m.vals) {
		return nil
	}
	return m.vals[ctx]
}

// SnapshotValues returns snapshot snap's final values under schedule s,
// or nil before Run or for an out-of-range snapshot.
func (m *Multi) SnapshotValues(s *sched.Schedule, snap int) []float64 {
	if snap < 0 || snap >= len(s.SnapshotCtx) {
		return nil
	}
	return m.Values(s.SnapshotCtx[snap])
}

// SnapshotValuesFor is SnapshotValues for source index srcIdx of a
// multi-source run. s is the ORIGINAL (unexpanded) schedule the caller
// passed to Run; srcIdx 0 matches the single-source accessor.
func (m *Multi) SnapshotValuesFor(s *sched.Schedule, srcIdx, snap int) []float64 {
	if snap < 0 || snap >= len(s.SnapshotCtx) || srcIdx < 0 {
		return nil
	}
	n := len(m.srcs)
	if n == 0 {
		n = 1
	}
	if srcIdx >= n {
		return nil
	}
	return m.Values(srcIdx*m.nc + s.SnapshotCtx[snap])
}

func (m *Multi) runOp(op sched.Op) error {
	switch op.Kind {
	case sched.OpInit:
		if op.Ctx >= len(m.vals) {
			return megaerr.Invalidf("engine: OpInit context %d out of range", op.Ctx)
		}
		srcIdx := 0
		if len(m.srcs) > 1 {
			srcIdx = op.Ctx / m.nc
		}
		base, err := m.ensureBaseFor(srcIdx)
		if err != nil {
			return err
		}
		if m.vals[op.Ctx] == nil {
			m.vals[op.Ctx] = make([]float64, len(base))
			m.applied[op.Ctx] = newBatchSet(len(m.w.Batches()))
		}
		copy(m.vals[op.Ctx], base)
		m.applied[op.Ctx].clear()
		m.probe.OpStart("init", 0, 1)
		m.probe.ValueCopy(len(base), 1)
		m.probe.OpEnd()
		return nil

	case sched.OpCopy:
		if m.vals[op.From] == nil {
			return megaerr.Invalidf("engine: OpCopy from uninitialized context %d", op.From)
		}
		if m.vals[op.Ctx] == nil {
			m.vals[op.Ctx] = make([]float64, len(m.vals[op.From]))
			m.applied[op.Ctx] = newBatchSet(len(m.w.Batches()))
		}
		copy(m.vals[op.Ctx], m.vals[op.From])
		m.applied[op.Ctx].copyFrom(m.applied[op.From])
		m.probe.OpStart("copy", 0, 1)
		m.probe.ValueCopy(len(m.vals[op.Ctx]), 1)
		m.probe.OpEnd()
		return nil

	case sched.OpApply:
		return m.runApplies([]sched.Op{op})

	default:
		return megaerr.Invalidf("engine: unknown op kind %d", int(op.Kind))
	}
}

// runApplies executes one stage's batch applications concurrently: all
// computing contexts share one round loop, so events of different contexts
// for the same vertex land in the same round and share that vertex's
// adjacency fetch. The ops' computing-context sets must be disjoint (true
// for every schedule this package executes: Direct-Hop and Work-Sharing
// stages target distinct contexts, and a BOE stage's Δ− computes on
// context j while Δ+ computes on j+1..N−1).
func (m *Multi) runApplies(ops []sched.Op) error {
	compute, totalEdges, err := m.applyCompute(ops)
	if err != nil {
		return err
	}
	m.probe.OpStart("add", totalEdges, len(compute))

	// Mark batches applied first so propagation traverses their edges,
	// then seed: the batch reader streams each batch and generates one
	// event per (edge, computing context) whose source side is reachable.
	// As in the hardware, seeds that do not improve their target are
	// processed and discarded at the PEs, not filtered at generation —
	// that is the work a Probe prices. With nobody pricing it (NopProbe)
	// such a seed is dropped here, the filter runRounds applies to
	// propagated events: it could only be taken and discarded, or lose its
	// slot to an improving seed, so no value changes.
	_, unpriced := m.probe.(NopProbe)
	for _, op := range ops {
		opCompute := op.Targets
		if op.SharedCompute {
			opCompute = op.Targets[:1]
		}
		for _, c := range opCompute {
			m.applied[c].add(op.Batch.ID)
		}
		for _, e := range op.Batch.Edges {
			for _, c := range opCompute {
				srcVal := m.vals[c][e.Src]
				if srcVal == m.a.Identity() {
					continue
				}
				cand := m.a.EdgeFunc(srcVal, e.Weight)
				if unpriced && !m.a.Better(cand, m.vals[c][e.Dst]) {
					continue
				}
				if m.countPush(m.cur.push(m.a, c, e.Dst, cand, int32(op.Batch.ID))) {
					m.probe.Generated(e.Dst, c)
				}
			}
		}
	}

	m.dirty = m.dirty[:0]
	return m.finishApplies(ops, compute, 0)
}

// resumeApplies re-enters an interrupted stage at a round-boundary
// checkpoint: batch marking and seeding already happened before the
// checkpoint was taken (their effects — applied bits, the pending queue,
// the dirty list — were restored by RunContext), so the stage continues
// straight into the round loop.
func (m *Multi) resumeApplies(ops []sched.Op, round int) error {
	compute, totalEdges, err := m.applyCompute(ops)
	if err != nil {
		return err
	}
	m.probe.OpStart("add", totalEdges, len(compute))
	return m.finishApplies(ops, compute, round)
}

// applyCompute validates a stage's apply ops and derives its computing
// context set and streamed-edge total.
func (m *Multi) applyCompute(ops []sched.Op) (compute []int, totalEdges int, err error) {
	seen := make(map[int]int) // context -> number of ops computing on it
	for _, op := range ops {
		if len(op.Targets) == 0 {
			return nil, 0, megaerr.Invalidf("engine: OpApply with no targets")
		}
		opCompute := op.Targets
		if op.SharedCompute {
			opCompute = op.Targets[:1]
		}
		for _, c := range opCompute {
			if m.vals[c] == nil {
				return nil, 0, megaerr.Invalidf("engine: OpApply to uninitialized context %d", c)
			}
			if seen[c] == 0 {
				compute = append(compute, c)
			}
			seen[c]++
		}
		// The batch reader streams each batch once; events for all
		// computing contexts are generated from the single read.
		totalEdges += len(op.Batch.Edges)
	}
	// A shared-compute op's broadcast replays exactly its own batch's
	// effect, so its computing context must not also receive another
	// op's seeds within this stage.
	for _, op := range ops {
		if op.SharedCompute && seen[op.Targets[0]] > 1 {
			return nil, 0, megaerr.Invalidf("engine: shared-compute context %d also computed by another op of the stage", op.Targets[0])
		}
	}
	return compute, totalEdges, nil
}

// finishApplies drains the stage's round loop from startRound and replays
// shared-compute broadcasts. Both entry points (fresh and resumed stages)
// converge here with the queue seeded and batches marked.
func (m *Multi) finishApplies(ops []sched.Op, compute []int, startRound int) error {
	if err := m.runRounds(compute, startRound); err != nil {
		m.probe.OpEnd()
		return err
	}

	// Broadcasts: a shared-compute op's targets were state-identical
	// before the stage and only Targets[0] computed, so copying the
	// changed values (and the batch bit) reproduces the computation for
	// every remaining target.
	for _, op := range ops {
		if !op.SharedCompute || len(op.Targets) < 2 {
			continue
		}
		src := op.Targets[0]
		changed := 0
		for _, c := range op.Targets[1:] {
			if m.vals[c] == nil {
				m.probe.OpEnd()
				return megaerr.Invalidf("engine: broadcast to uninitialized context %d", c)
			}
			for _, v := range m.dirty {
				if m.vals[c][v] != m.vals[src][v] {
					m.vals[c][v] = m.vals[src][v]
					changed++
				}
			}
			m.applied[c].add(op.Batch.ID)
		}
		m.probe.ValueCopy(changed, 1)
	}
	m.probe.OpEnd()
	return nil
}

// runRounds drains the current queue to quiescence for the given computing
// contexts, recording vertices whose values changed in m.dirty. Each round
// boundary checks the run's context and the divergence watchdog.
func (m *Multi) runRounds(compute []int, startRound int) error {
	m.inRounds = true
	round := startRound
	for m.cur.count > 0 {
		m.curRound = round
		if err := checkCtx(m.ctx, "engine round"); err != nil {
			return err
		}
		if m.limits.roundsExceeded(round) || m.limits.eventsExceeded(m.events) {
			return m.divergence("engine", round)
		}
		if m.ckptEvery > 0 && round%m.ckptEvery == 0 {
			if err := m.takeCheckpoint(); err != nil {
				return err
			}
		}
		if err := m.fp.CheckCtx(m.ctx, fault.SiteEngineRound); err != nil {
			return err
		}
		m.probe.RoundStart(round)
		for _, v := range m.cur.touched {
			m.updating = m.updating[:0]
			m.updBatch = m.updBatch[:0]
			for _, c := range compute {
				cand, tag, ok := m.cur.take(c, v)
				if !ok {
					continue
				}
				applied := m.a.Better(cand, m.vals[c][v])
				m.events++
				m.qTaken++
				m.probe.Event(v, c, applied)
				if applied {
					m.vals[c][v] = cand
					m.updating = append(m.updating, c)
					m.updBatch = append(m.updBatch, tag)
					if !m.dirtyMark[v] {
						m.dirtyMark[v] = true
						m.dirty = append(m.dirty, v)
					}
				}
			}
			if len(m.updating) == 0 {
				continue
			}
			lo, _ := m.u.Union().EdgeRange(v)
			dsts, ws, _ := m.u.OutEdges(v)
			// One adjacency fetch serves every updating context working
			// on the *same batch* (§4.2: the first event's prefetch is
			// reused by subsequent snapshots); contexts on different
			// batches reach v at different times and fetch separately.
			if m.noFetchShare {
				for range m.updating {
					m.probe.EdgeFetch(v, len(dsts), 1)
				}
			} else {
				for i, tag := range m.updBatch {
					shared := 0
					for j := 0; j < i; j++ {
						if m.updBatch[j] == tag {
							shared = -1
							break
						}
					}
					if shared < 0 {
						continue // fetched by an earlier context of this batch
					}
					for j := i; j < len(m.updBatch); j++ {
						if m.updBatch[j] == tag {
							shared++
						}
					}
					m.probe.EdgeFetch(v, len(dsts), shared)
				}
			}
			for i, d := range dsts {
				edgeIdx := lo + uint32(i)
				b := m.batchOf[edgeIdx]
				for ui, c := range m.updating {
					if b >= 0 && !m.applied[c].has(int(b)) {
						continue
					}
					cand := m.a.EdgeFunc(m.vals[c][v], ws[i])
					if m.a.Better(cand, m.vals[c][d]) {
						if m.countPush(m.next.push(m.a, c, d, cand, m.updBatch[ui])) {
							m.probe.Generated(d, c)
						}
					}
				}
			}
		}
		m.cur.resetTouched()
		m.probe.RoundEnd(m.next.count)
		m.cur, m.next = m.next, m.cur
		round++
		m.rounds++
	}
	for _, v := range m.dirty {
		m.dirtyMark[v] = false
	}
	m.inRounds = false
	return nil
}

// divergence builds the watchdog's diagnostic error from the engine's
// current queue state.
func (m *Multi) divergence(engine string, round int) error {
	tripped := "MaxRounds"
	if m.limits.eventsExceeded(m.events) {
		tripped = "MaxEvents"
	}
	sample := int64(-1)
	if len(m.cur.touched) > 0 {
		sample = int64(m.cur.touched[0])
	}
	return &megaerr.DivergenceError{
		Engine: engine, Limit: tripped, Rounds: round,
		Events: m.events, LiveEvents: int64(m.cur.count), SampleVertex: sample,
	}
}

// Solve computes the query fixpoint on a static CSR graph with a
// single-context event loop (used for the CommonGraph base solution and by
// tests). probe must not be nil. It runs without a lifecycle — no
// cancellation and no divergence watchdog; production callers should use
// SolveContext.
func Solve(g *graph.CSR, a algo.Algorithm, src graph.VertexID, probe Probe) []float64 {
	vals, err := SolveContext(context.Background(), g, a, src, probe,
		Limits{MaxRounds: Unlimited, MaxEvents: Unlimited})
	if err != nil {
		// Unreachable: the background context never cancels and both
		// watchdog bounds are disabled.
		panic(fmt.Sprintf("engine: unlimited Solve failed: %v", err))
	}
	return vals
}

// SolveContext is Solve under a lifecycle: ctx is checked at every round
// boundary and lim bounds the fixpoint (zero fields take DefaultLimits
// for the graph).
func SolveContext(ctx context.Context, g *graph.CSR, a algo.Algorithm, src graph.VertexID, probe Probe, lim Limits) ([]float64, error) {
	if _, nop := probe.(NopProbe); nop {
		// Probe-free fast path: the instrumented loop below pays four
		// dynamic probe calls per event, which is measurable when the base
		// solve runs once per engine run with nothing listening.
		return solveNoProbe(ctx, g, a, src, lim)
	}
	lim = lim.withDefaults(g.NumVertices(), 1)
	vals := make([]float64, g.NumVertices())
	for i := range vals {
		vals[i] = a.Identity()
	}
	if g.NumVertices() == 0 {
		return vals, nil
	}
	fp := fault.From(ctx)
	probe.OpStart("solve", 0, 1)
	cur := newRoundQueue(1, g.NumVertices())
	next := newRoundQueue(1, g.NumVertices())
	if ss, ok := a.(algo.SelfSeeding); ok {
		for v := 0; v < g.NumVertices(); v++ {
			cur.push(a, 0, graph.VertexID(v), ss.VertexInit(uint32(v)), -1)
			probe.Generated(graph.VertexID(v), 0)
		}
	} else {
		cur.push(a, 0, src, a.SourceValue(), -1)
		probe.Generated(src, 0)
	}
	round := 0
	events := int64(0)
	for cur.count > 0 {
		if err := checkCtx(ctx, "solve round"); err != nil {
			probe.OpEnd()
			return nil, err
		}
		if lim.roundsExceeded(round) || lim.eventsExceeded(events) {
			probe.OpEnd()
			tripped := "MaxRounds"
			if lim.eventsExceeded(events) {
				tripped = "MaxEvents"
			}
			sample := int64(-1)
			if len(cur.touched) > 0 {
				sample = int64(cur.touched[0])
			}
			return nil, &megaerr.DivergenceError{
				Engine: "engine", Limit: tripped, Rounds: round,
				Events: events, LiveEvents: int64(cur.count), SampleVertex: sample,
			}
		}
		if err := fp.CheckCtx(ctx, fault.SiteSolveRound); err != nil {
			probe.OpEnd()
			return nil, err
		}
		probe.RoundStart(round)
		for _, v := range cur.touched {
			cand, _, ok := cur.take(0, v)
			if !ok {
				continue
			}
			applied := a.Better(cand, vals[v])
			events++
			probe.Event(v, 0, applied)
			if !applied {
				continue
			}
			vals[v] = cand
			dsts, ws := g.OutEdges(v)
			probe.EdgeFetch(v, len(dsts), 1)
			for i, d := range dsts {
				c := a.EdgeFunc(cand, ws[i])
				if a.Better(c, vals[d]) {
					if next.push(a, 0, d, c, -1) {
						probe.Generated(d, 0)
					}
				}
			}
		}
		cur.resetTouched()
		probe.RoundEnd(next.count)
		cur, next = next, cur
		round++
	}
	probe.OpEnd()
	return vals, nil
}

// solveNoProbe is SolveContext specialized for NopProbe: the same fixpoint
// loop with the probe calls removed and the queue state hoisted into
// locals. Semantics (round structure, lifecycle checks, divergence
// diagnostics) are identical to the instrumented loop.
func solveNoProbe(ctx context.Context, g *graph.CSR, a algo.Algorithm, src graph.VertexID, lim Limits) ([]float64, error) {
	lim = lim.withDefaults(g.NumVertices(), 1)
	vals := make([]float64, g.NumVertices())
	ident := a.Identity()
	for i := range vals {
		vals[i] = ident
	}
	if g.NumVertices() == 0 {
		return vals, nil
	}
	fp := fault.From(ctx)
	cur := newRoundQueue(1, g.NumVertices())
	next := newRoundQueue(1, g.NumVertices())
	if ss, ok := a.(algo.SelfSeeding); ok {
		for v := 0; v < g.NumVertices(); v++ {
			cur.push(a, 0, graph.VertexID(v), ss.VertexInit(uint32(v)), -1)
		}
	} else {
		cur.push(a, 0, src, a.SourceValue(), -1)
	}
	round := 0
	events := int64(0)
	for cur.count > 0 {
		if err := checkCtx(ctx, "solve round"); err != nil {
			return nil, err
		}
		if lim.roundsExceeded(round) || lim.eventsExceeded(events) {
			tripped := "MaxRounds"
			if lim.eventsExceeded(events) {
				tripped = "MaxEvents"
			}
			sample := int64(-1)
			if len(cur.touched) > 0 {
				sample = int64(cur.touched[0])
			}
			return nil, &megaerr.DivergenceError{
				Engine: "engine", Limit: tripped, Rounds: round,
				Events: events, LiveEvents: int64(cur.count), SampleVertex: sample,
			}
		}
		if err := fp.CheckCtx(ctx, fault.SiteSolveRound); err != nil {
			return nil, err
		}
		has, pending := cur.has[0], cur.pending[0]
		nhas, npending, nmark := next.has[0], next.pending[0], next.mark
		for _, v := range cur.touched {
			if !has[v] {
				continue
			}
			has[v] = false
			cur.count--
			cand := pending[v]
			events++
			if !a.Better(cand, vals[v]) {
				continue
			}
			vals[v] = cand
			dsts, ws := g.OutEdges(v)
			for i, d := range dsts {
				c := a.EdgeFunc(cand, ws[i])
				if !a.Better(c, vals[d]) {
					continue
				}
				// next.push with the queue arrays hoisted out of the loop.
				if nhas[d] {
					if a.Better(c, npending[d]) {
						npending[d] = c
					}
					continue
				}
				nhas[d] = true
				npending[d] = c
				next.count++
				if !nmark[d] {
					nmark[d] = true
					next.touched = append(next.touched, d)
				}
			}
		}
		cur.resetTouched()
		cur, next = next, cur
		round++
	}
	return vals, nil
}
