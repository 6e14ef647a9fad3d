package engine

import (
	"context"
	"fmt"
	"math/bits"

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

	// Run state, vertex-major: everything the round loop reads or writes
	// for one vertex — every context's value, pending candidate and tag —
	// sits in that vertex's row, so relaxing an edge for all the contexts of
	// a Δ+ stage touches a row at each end rather than one array per
	// context. numCtx is the row length (the expanded schedule's context
	// count) and words the mask words that many contexts need.
	numCtx   int
	words    int
	vals     []float64 // [v*numCtx+c]
	inited   []bool    // context c holds values (OpInit, OpCopy or a restore)
	batchCtx []uint64  // [b*words+c/64] bit c%64: context c has applied batch b

	// cols is vals transposed into one contiguous slice per initialised
	// context — what Values hands out and checkpoints encode. Every write
	// to vals clears colsFresh; while colsPartial, the rows written since
	// cols was last current are all on the dirty list, so bringing it up to
	// date again copies those rows, not the matrix.
	cols        [][]float64
	colsFresh   bool
	colsPartial bool

	cur, next *ctxQueue

	// Which of the two round loops runs is fixed at construction from what
	// the engine can observe. served: nobody prices the run (NopProbe) and
	// the algorithm is one of algo's built-ins, so the loops use its ops by
	// value, walk the set bits of a row's mask and drop seeds that do not
	// improve their target. Otherwise the instrumented loops run: interface
	// ops, the hardware's seed loop, compute-order iteration and every
	// probe callback.
	served bool
	o      ops

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

	// scratch state reused across ops and stages.
	books, applies []sched.Op
	moves          []bookMove
	compute        []int
	stageMask      []uint64 // contexts computed by one op of the stage, then by two
	upd            []uint64 // served loop: contexts that improved at the current vertex
	updating       []int
	updBatch       []int32
	dirty          []graph.VertexID
	dirtyMark      []bool
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
// The checkpoint format is per context, so the values are transposed and
// the per-batch context masks gathered into per-context batch sets.
func (m *Multi) snapshotState() *checkpointState {
	m.transpose()
	st := &checkpointState{
		algoKind:   uint32(m.a.Kind()),
		source:     uint32(m.src),
		numVerts:   uint32(m.w.NumVertices()),
		numCtx:     uint32(m.numCtx),
		batches:    m.windowFingerprint(),
		schedHash:  m.schedHash,
		stageStart: uint32(m.curStage),
		inRounds:   m.inRounds,
		events:     m.events,
		baseVals:   m.baseVals,
		vals:       m.cols,
		applied:    m.appliedSets(),
	}
	if m.inRounds {
		st.round = uint32(m.curRound)
		st.queue = m.cur.dump()
		st.dirty = m.dirty
	}
	return st
}

// transpose brings cols up to date with vals: the dirty rows when those are
// known to be all that changed, otherwise the whole matrix, one block of
// rows at a time so that a block is read from cache once per context it is
// written to.
func (m *Multi) transpose() {
	if m.colsFresh {
		return
	}
	n, nc := m.w.NumVertices(), m.numCtx
	m.colsFresh = true
	if m.colsPartial {
		for _, v := range m.dirty {
			for c, col := range m.cols {
				if col != nil {
					col[v] = m.vals[int(v)*nc+c]
				}
			}
		}
		return
	}
	m.colsPartial = true
	if m.cols == nil {
		m.cols = make([][]float64, nc)
	}
	var backing []float64
	for c, ok := range m.inited {
		if ok && m.cols[c] == nil {
			if backing == nil {
				backing = make([]float64, n*nc)
			}
			m.cols[c] = backing[c*n : (c+1)*n : (c+1)*n]
		}
	}
	block := max(1, 1024/max(nc, 1))
	for v0 := 0; v0 < n; v0 += block {
		v1 := min(v0+block, n)
		for c, col := range m.cols {
			if col == nil {
				continue
			}
			for v := v0; v < v1; v++ {
				col[v] = m.vals[v*nc+c]
			}
		}
	}
}

// appliedSets gathers each initialised context's applied batches out of
// the per-batch context masks.
func (m *Multi) appliedSets() []batchSet {
	numBatches := len(m.w.Batches())
	setWords := (numBatches + 63) / 64
	out := make([]batchSet, m.numCtx)
	backing := make(batchSet, m.numCtx*setWords)
	for c, ok := range m.inited {
		if !ok {
			continue
		}
		out[c] = backing[c*setWords : (c+1)*setWords]
		for b := 0; b < numBatches; b++ {
			if m.hasApplied(c, b) {
				out[c].add(b)
			}
		}
	}
	return out
}

// hasApplied reports whether context c has applied batch b.
func (m *Multi) hasApplied(c, b int) bool {
	return m.batchCtx[b*m.words+c>>6]&(1<<(uint(c)&63)) != 0
}

// setApplied records (on) or forgets that context c has applied batch b.
func (m *Multi) setApplied(c, b int, on bool) {
	w, bit := b*m.words+c>>6, uint64(1)<<(uint(c)&63)
	if on {
		m.batchCtx[w] |= bit
	} else {
		m.batchCtx[w] &^= bit
	}
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
	o, served := servedOps(a, probe)
	return &Multi{
		w:         w,
		u:         w.Unified(),
		a:         a,
		src:       src,
		probe:     probe,
		batchOf:   batchOf,
		served:    served,
		o:         o,
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
		live = m.cur.count + m.next.count
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
	m.numCtx = s.NumContexts
	m.words = (m.numCtx + 63) / 64
	m.vals = make([]float64, n*m.numCtx)
	m.inited = make([]bool, m.numCtx)
	m.batchCtx = make([]uint64, len(m.w.Batches())*m.words)
	scratch := make([]uint64, 3*m.words)
	m.stageMask, m.upd = scratch[:2*m.words], scratch[2*m.words:]
	m.cur = newCtxQueue(m.numCtx, n, 0)
	m.next = newCtxQueue(m.numCtx, n, 0)
	if st != nil {
		// Install the checkpointed state: values, applied sets, the base
		// solution, the watchdog's event count, and — when the checkpoint
		// was taken mid-stage — the pending queue and dirty list.
		m.events = st.events
		if st.baseVals != nil {
			m.baseVals = st.baseVals
		}
		for c, col := range st.vals {
			if col == nil {
				continue
			}
			m.inited[c] = true
			for v, x := range col {
				m.vals[v*m.numCtx+c] = x
			}
			for b := range m.w.Batches() {
				m.setApplied(c, b, st.applied[c].has(b))
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
		books, applies := m.books[:0], m.applies[:0]
		for ; i < len(s.Ops) && s.Ops[i].Stage == stage; i++ {
			op := s.Ops[i]
			if op.Kind == sched.OpApply {
				applies = append(applies, op)
			} else {
				books = append(books, op)
			}
		}
		m.books, m.applies = books, applies
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
		if err := m.runBooks(books); err != nil {
			return err
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
// before Run). The per-context arrays are materialised from the engine's
// vertex-major state by one transpose on first use after the run.
func (m *Multi) Values(ctx int) []float64 {
	if ctx < 0 || ctx >= len(m.inited) || !m.inited[ctx] {
		return nil
	}
	m.transpose()
	return m.cols[ctx]
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

// runBooks executes a stage's bookkeeping ops (init/copy). Validation, the
// applied sets and the probe callbacks go op by op; the values move in one
// pass over the rows with every op applied to a row in order, which is the
// same as applying each op to the whole matrix in turn (an op reads and
// writes only its own row) and touches each row once instead of once per op.
func (m *Multi) runBooks(books []sched.Op) error {
	if len(books) == 0 {
		return nil
	}
	n, nc := m.w.NumVertices(), m.numCtx
	moves := m.moves[:0]
	for _, op := range books {
		mv := bookMove{ctx: op.Ctx, from: op.From}
		switch op.Kind {
		case sched.OpInit:
			if op.Ctx >= nc {
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
			mv.base = base
			for b := range m.w.Batches() {
				m.setApplied(op.Ctx, b, false)
			}
			m.probe.OpStart("init", 0, 1)
		case sched.OpCopy:
			if !m.inited[op.From] {
				return megaerr.Invalidf("engine: OpCopy from uninitialized context %d", op.From)
			}
			for b := range m.w.Batches() {
				m.setApplied(op.Ctx, b, m.hasApplied(op.From, b))
			}
			m.probe.OpStart("copy", 0, 1)
		default:
			return megaerr.Invalidf("engine: unknown op kind %d", int(op.Kind))
		}
		m.inited[op.Ctx] = true
		m.probe.ValueCopy(n, 1)
		m.probe.OpEnd()
		moves = append(moves, mv)
	}
	m.moves = moves
	m.colsFresh, m.colsPartial = false, false
	for v := 0; v < n; v++ {
		row := m.vals[v*nc : (v+1)*nc]
		for _, mv := range moves {
			if mv.base != nil {
				row[mv.ctx] = mv.base[v]
			} else {
				row[mv.ctx] = row[mv.from]
			}
		}
	}
	return nil
}

// bookMove is one bookkeeping op as the row pass applies it: context ctx
// takes base's value for the row's vertex, or context from's when base is
// nil.
type bookMove struct {
	ctx, from int
	base      []float64
}

// computing returns the contexts that run op's incremental update: all of
// its targets, or only the first when the result is broadcast.
func computing(op sched.Op) []int {
	if op.SharedCompute {
		return op.Targets[:1]
	}
	return op.Targets
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
	for _, op := range ops {
		for _, c := range computing(op) {
			m.setApplied(c, op.Batch.ID, true)
		}
		if m.served {
			m.seedServed(op)
		} else {
			m.seed(op)
		}
	}

	// The dirty list starts over: rows it held that cols has not seen yet
	// can only be caught up with by a whole transpose.
	m.colsPartial = m.colsPartial && m.colsFresh
	m.dirty = m.dirty[:0]
	return m.finishApplies(ops, compute, 0)
}

// seed is the hardware's seed loop: seeds that do not improve their target
// are processed and discarded at the PEs, not filtered at generation — that
// is the work a Probe prices.
func (m *Multi) seed(op sched.Op) {
	nc, compute := m.numCtx, computing(op)
	for _, e := range op.Batch.Edges {
		for _, c := range compute {
			srcVal := m.vals[int(e.Src)*nc+c]
			if srcVal == m.a.Identity() {
				continue
			}
			cand := m.a.EdgeFunc(srcVal, e.Weight)
			if m.countPush(m.cur.push(m.a, c, e.Dst, cand, int32(op.Batch.ID))) {
				m.probe.Generated(e.Dst, c)
			}
		}
	}
}

// seedServed is the seed loop with nobody pricing it: a seed that does not
// improve its target is dropped here, the filter the round loop applies to
// propagated events. It could only be taken and discarded, or lose its slot
// to an improving seed, so no value changes.
func (m *Multi) seedServed(op sched.Op) {
	o, nc, ident := m.o, m.numCtx, m.a.Identity()
	compute, tag := computing(op), int32(op.Batch.ID)
	for _, e := range op.Batch.Edges {
		from := m.vals[int(e.Src)*nc : (int(e.Src)+1)*nc]
		to := m.vals[int(e.Dst)*nc : (int(e.Dst)+1)*nc]
		for _, c := range compute {
			if from[c] == ident {
				continue
			}
			if cand := o.edge(from[c], e.Weight); o.better(cand, to[c]) {
				m.countPush(m.cur.pushBuiltin(o, c, e.Dst, cand, tag))
			}
		}
	}
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
	once, twice := m.stageMask[:m.words], m.stageMask[m.words:]
	clear(m.stageMask)
	compute = m.compute[:0]
	for _, op := range ops {
		if len(op.Targets) == 0 {
			return nil, 0, megaerr.Invalidf("engine: OpApply with no targets")
		}
		for _, c := range computing(op) {
			if !m.inited[c] {
				return nil, 0, megaerr.Invalidf("engine: OpApply to uninitialized context %d", c)
			}
			bit := uint64(1) << (uint(c) & 63)
			if once[c>>6]&bit == 0 {
				compute = append(compute, c)
			}
			twice[c>>6] |= once[c>>6] & bit
			once[c>>6] |= bit
		}
		// The batch reader streams each batch once; events for all
		// computing contexts are generated from the single read.
		totalEdges += len(op.Batch.Edges)
	}
	m.compute = compute
	// A shared-compute op's broadcast replays exactly its own batch's
	// effect, so its computing context must not also receive another
	// op's seeds within this stage.
	for _, op := range ops {
		if c := op.Targets[0]; op.SharedCompute && twice[c>>6]&(1<<(uint(c)&63)) != 0 {
			return nil, 0, megaerr.Invalidf("engine: shared-compute context %d also computed by another op of the stage", c)
		}
	}
	return compute, totalEdges, nil
}

// finishApplies drains the stage's round loop from startRound and replays
// shared-compute broadcasts. Both entry points (fresh and resumed stages)
// converge here with the queue seeded and batches marked.
func (m *Multi) finishApplies(ops []sched.Op, compute []int, startRound int) error {
	var err error
	if m.served {
		err = m.runRoundsServed(startRound)
	} else {
		err = m.runRounds(compute, startRound)
	}
	if err != nil {
		m.probe.OpEnd()
		return err
	}

	// Broadcasts: a shared-compute op's targets were state-identical
	// before the stage and only Targets[0] computed, so copying the
	// changed values (and the batch bit) reproduces the computation for
	// every remaining target.
	nc := m.numCtx
	for _, op := range ops {
		if !op.SharedCompute || len(op.Targets) < 2 {
			continue
		}
		src, rest := op.Targets[0], op.Targets[1:]
		for _, c := range rest {
			if !m.inited[c] {
				m.probe.OpEnd()
				return megaerr.Invalidf("engine: broadcast to uninitialized context %d", c)
			}
			m.setApplied(c, op.Batch.ID, true)
		}
		changed := 0
		m.colsFresh = false
		for _, v := range m.dirty {
			row := m.vals[int(v)*nc : (int(v)+1)*nc]
			for _, c := range rest {
				if row[c] != row[src] {
					row[c] = row[src]
					changed++
				}
			}
		}
		m.probe.ValueCopy(changed, 1)
	}
	m.probe.OpEnd()
	return nil
}

// roundBoundary is the top of a round in either loop: the run's context,
// the divergence watchdog, the checkpoint cadence and the round fault site,
// in that order.
func (m *Multi) roundBoundary(round int) error {
	m.curRound = round
	if err := checkCtx(m.ctx, "engine round"); err != nil {
		return err
	}
	if m.limits.roundsExceeded(round) || m.limits.eventsExceeded(m.events) {
		return divergence(m.limits, round, m.events, m.cur)
	}
	if m.ckptEvery > 0 && round%m.ckptEvery == 0 {
		if err := m.takeCheckpoint(); err != nil {
			return err
		}
	}
	return m.fp.CheckCtx(m.ctx, fault.SiteEngineRound)
}

// markDirty records that v's value changed in the executing stage.
func (m *Multi) markDirty(v graph.VertexID) {
	m.colsFresh = false
	if !m.dirtyMark[v] {
		m.dirtyMark[v] = true
		m.dirty = append(m.dirty, v)
	}
}

// endRounds closes a stage's round loop at quiescence.
func (m *Multi) endRounds() {
	for _, v := range m.dirty {
		m.dirtyMark[v] = false
	}
	m.inRounds = false
}

// runRounds drains the current queue to quiescence for the given computing
// contexts, recording vertices whose values changed in m.dirty. Each round
// boundary checks the run's context and the divergence watchdog. This is
// the instrumented loop: every probe callback, in compute order.
func (m *Multi) runRounds(compute []int, startRound int) error {
	nc := m.numCtx
	m.inRounds = true
	for round := startRound; m.cur.count > 0; round++ {
		if err := m.roundBoundary(round); err != nil {
			return err
		}
		m.probe.RoundStart(round)
		for r, v := range m.cur.touched {
			row := m.vals[int(v)*nc : (int(v)+1)*nc]
			m.updating = m.updating[:0]
			m.updBatch = m.updBatch[:0]
			for _, c := range compute {
				cand, tag, ok := m.cur.take(c, r)
				if !ok {
					continue
				}
				applied := m.a.Better(cand, row[c])
				m.events++
				m.qTaken++
				m.probe.Event(v, c, applied)
				if applied {
					row[c] = cand
					m.updating = append(m.updating, c)
					m.updBatch = append(m.updBatch, tag)
					m.markDirty(v)
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
				b := m.batchOf[lo+uint32(i)]
				to := m.vals[int(d)*nc : (int(d)+1)*nc]
				for ui, c := range m.updating {
					if b >= 0 && !m.hasApplied(c, int(b)) {
						continue
					}
					cand := m.a.EdgeFunc(row[c], ws[i])
					if m.a.Better(cand, to[c]) {
						if m.countPush(m.next.push(m.a, c, d, cand, m.updBatch[ui])) {
							m.probe.Generated(d, c)
						}
					}
				}
			}
		}
		m.cur.reset()
		m.probe.RoundEnd(m.next.count)
		m.cur, m.next = m.next, m.cur
		m.rounds++
	}
	m.endRounds()
	return nil
}

// runRoundsServed is the round loop of a served query: the same rounds,
// boundaries, events and queue traffic as runRounds with nothing observing
// them. A vertex's pending events are the set bits of its mask row, taken
// for the stage's computing contexts (any other is left for reset to drop,
// as runRounds leaves it); the contexts that improve form a mask too, and an edge of batch b
// relaxes for that mask ANDed with the contexts that have applied b. A
// propagated event inherits the tag of the event it was taken with, which
// the current queue's row still holds.
func (m *Multi) runRoundsServed(startRound int) error {
	o, nc, words := m.o, m.numCtx, m.words
	vals, upd, computing := m.vals, m.upd, m.stageMask[:words]
	m.inRounds = true
	for round := startRound; m.cur.count > 0; round++ {
		if err := m.roundBoundary(round); err != nil {
			return err
		}
		cur, next := m.cur, m.next
		taken := 0
		for r, v := range cur.touched {
			row := vals[int(v)*nc : (int(v)+1)*nc]
			cand := cur.pending[r*nc : (r+1)*nc]
			improved := false
			for w := 0; w < words; w++ {
				pend := cur.mask[r*words+w] & computing[w]
				taken += bits.OnesCount64(pend)
				upd[w] = 0
				for ; pend != 0; pend &= pend - 1 {
					c := w<<6 + bits.TrailingZeros64(pend)
					if o.better(cand[c], row[c]) {
						row[c] = cand[c]
						upd[w] |= pend & -pend
						improved = true
					}
				}
			}
			if !improved {
				continue
			}
			m.markDirty(v)
			tags := cur.tag[r*nc : (r+1)*nc]
			lo, _ := m.u.Union().EdgeRange(v)
			dsts, ws, _ := m.u.OutEdges(v)
			for i, d := range dsts {
				b := m.batchOf[lo+uint32(i)]
				to := vals[int(d)*nc : (int(d)+1)*nc]
				for w := 0; w < words; w++ {
					live := upd[w]
					if b >= 0 {
						live &= m.batchCtx[int(b)*words+w]
					}
					for ; live != 0; live &= live - 1 {
						c := w<<6 + bits.TrailingZeros64(live)
						if x := o.edge(row[c], ws[i]); o.better(x, to[c]) {
							m.countPush(next.pushBuiltin(o, c, d, x, tags[c]))
						}
					}
				}
			}
		}
		m.events += int64(taken)
		m.qTaken += int64(taken)
		cur.reset()
		m.cur, m.next = next, cur
		m.rounds++
	}
	m.endRounds()
	return nil
}

// divergence builds the watchdog's diagnostic error from a loop's current
// queue state.
func divergence(lim Limits, round int, events int64, cur *ctxQueue) error {
	sample := int64(-1)
	if len(cur.touched) > 0 {
		sample = int64(cur.touched[0])
	}
	return divergenceError(lim, round, events, int64(cur.count), sample)
}

// divergenceError is the watchdog's diagnostic error: what tripped, how far
// the loop got, how much is still pending and one vertex of it.
func divergenceError(lim Limits, round int, events, live, sample int64) error {
	tripped := "MaxRounds"
	if lim.eventsExceeded(events) {
		tripped = "MaxEvents"
	}
	return &megaerr.DivergenceError{
		Engine: "engine", Limit: tripped, Rounds: round,
		Events: events, LiveEvents: live, SampleVertex: sample,
	}
}

// Solve computes the query fixpoint on a static CSR graph with a
// single-context event loop (used for the CommonGraph base solution and by
// tests). probe must not be nil. It runs without a lifecycle — no
// cancellation and no divergence watchdog — and has no error to return, so
// it panics on a source outside the graph; production callers should use
// SolveContext.
func Solve(g *graph.CSR, a algo.Algorithm, src graph.VertexID, probe Probe) []float64 {
	vals, err := SolveContext(context.Background(), g, a, src, probe,
		Limits{MaxRounds: Unlimited, MaxEvents: Unlimited})
	if err != nil {
		// Only an invalid source gets here: the background context never
		// cancels and both watchdog bounds are disabled.
		panic(fmt.Sprintf("engine: unlimited Solve failed: %v", err))
	}
	return vals
}

// SolveContext is Solve under a lifecycle: ctx is checked at every round
// boundary and lim bounds the fixpoint (zero fields take DefaultLimits
// for the graph). A source outside the graph is megaerr.ErrInvalidInput,
// for self-seeding algorithms too; the empty graph has no vertex to name
// and solves to an empty result. With nothing listening (NopProbe) and a
// built-in algorithm the solve is best-first, not round by round
// (solveServed): same values, each reachable vertex expanded once, and a
// "round" of its lifecycle is solveCadence expansions.
func SolveContext(ctx context.Context, g *graph.CSR, a algo.Algorithm, src graph.VertexID, probe Probe, lim Limits) ([]float64, error) {
	n := g.NumVertices()
	lim = lim.withDefaults(n, 1)
	vals := make([]float64, n)
	ident := a.Identity()
	for i := range vals {
		vals[i] = ident
	}
	if n == 0 {
		return vals, nil
	}
	if int(src) >= n {
		return nil, megaerr.Invalidf("engine: source vertex %d outside [0,%d)", src, n)
	}
	if o, served := servedOps(a, probe); served { // the choice of loop Multi makes
		if _, _, err := solveServed(ctx, g, a, o, src, vals, lim); err != nil {
			return nil, err
		}
		return vals, nil
	}

	fp := fault.From(ctx)
	probe.OpStart("solve", 0, 1)
	// One context makes a row 24 bytes, and a static solve's frontier grows
	// to a large share of the graph: size the queues for it once.
	cur, next := newCtxQueue(1, n, n), newCtxQueue(1, n, n)
	if ss, ok := a.(algo.SelfSeeding); ok {
		for v := 0; v < n; v++ {
			cur.push(a, 0, graph.VertexID(v), ss.VertexInit(uint32(v)), -1)
			probe.Generated(graph.VertexID(v), 0)
		}
	} else {
		cur.push(a, 0, src, a.SourceValue(), -1)
		probe.Generated(src, 0)
	}
	events := int64(0)
	for round := 0; cur.count > 0; round++ {
		err := checkCtx(ctx, "solve round")
		if err == nil && (lim.roundsExceeded(round) || lim.eventsExceeded(events)) {
			err = divergence(lim, round, events, cur)
		}
		if err == nil {
			err = fp.CheckCtx(ctx, fault.SiteSolveRound)
		}
		if err != nil {
			probe.OpEnd()
			return nil, err
		}
		events += int64(cur.count)
		solveRound(g, a, probe, round, vals, cur, next)
		cur, next = next, cur
	}
	probe.OpEnd()
	return vals, nil
}

// solveRound processes one round of the instrumented single-context loop.
func solveRound(g *graph.CSR, a algo.Algorithm, probe Probe, round int, vals []float64, cur, next *ctxQueue) {
	probe.RoundStart(round)
	for r, v := range cur.touched {
		cand, _, _ := cur.take(0, r)
		applied := a.Better(cand, vals[v])
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
	cur.reset()
	probe.RoundEnd(next.count)
}
