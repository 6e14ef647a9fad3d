// Package uarch is a cycle-by-cycle microarchitectural simulator of the
// MEGA datapath (Figure 12), complementing the aggregate per-round timing
// model in internal/sim. Where sim charges each round the maximum of its
// resource occupancies, uarch actually moves every event through explicit
// components each cycle:
//
//	batch reader → NoC ports → coalescing queue bins → scheduler →
//	processing engines → edge unit (cache + banked DRAM) →
//	event generation streams → NoC → bins …
//
// The simulation *executes* the query itself (it is not trace-driven): PEs
// update vertex values, so the final snapshot results are checked against
// the functional engine in tests, and the cycle counts cross-validate the
// aggregate model (the ablation-uarch experiment).
//
// Scope: the Batch-Oriented-Execution workflow with batch pipelining on an
// unpartitioned configuration (the headline MEGA mode). As §4.1 describes
// the hardware, the batch reader creates events for each of a batch's
// active snapshots directly, so stage overlap under batch pipelining is
// unconditionally correct (values merge monotonically).
package uarch

import (
	"context"
	"math"
	"strconv"

	"mega/internal/algo"
	"mega/internal/engine"
	"mega/internal/evolve"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/sched"
)

// Config holds the microarchitectural parameters.
type Config struct {
	// PEs is the processing-engine count (paper: 8).
	PEs int
	// GenStreamsPerPE bounds events emitted per PE per cycle (paper: 4).
	GenStreamsPerPE int
	// QueueBins is the number of coalescing event bins; one NoC port
	// feeds each bin at one insert per cycle, and each bin emits at most
	// one event per cycle to the scheduler (dual-ported).
	QueueBins int
	// EdgeCacheBytes is the edge-cache capacity.
	EdgeCacheBytes int64
	// EdgeEntryBytes is the size of one adjacency entry.
	EdgeEntryBytes int64
	// DRAMLatencyCycles is the fixed access latency of an edge fetch
	// that misses the cache.
	DRAMLatencyCycles int64
	// DRAMChannels and DRAMChannelBytesPerCycle define banked bandwidth.
	DRAMChannels             int
	DRAMChannelBytesPerCycle int64
	// BatchEdgesPerCycle is the batch reader's streaming rate.
	BatchEdgesPerCycle int
	// BPThresholdEvents triggers the next stage when live events drop
	// below it (0 = strictly sequential stages).
	BPThresholdEvents int
	// MaxCycles is the divergence watchdog: exceeding it aborts the run
	// with megaerr.ErrDivergence. 0 derives a safe ceiling from the
	// problem size (see engine.DefaultLimits); use engine.Unlimited (-1)
	// to disable the watchdog entirely.
	MaxCycles int64
}

// DefaultConfig mirrors sim.DefaultConfig at the microarchitectural level.
func DefaultConfig() Config {
	return Config{
		PEs:                      8,
		GenStreamsPerPE:          4,
		QueueBins:                16,
		EdgeCacheBytes:           8 << 10,
		EdgeEntryBytes:           12,
		DRAMLatencyCycles:        48,
		DRAMChannels:             4,
		DRAMChannelBytesPerCycle: 17,
		BatchEdgesPerCycle:       4,
		BPThresholdEvents:        256,
	}
}

// Result is a microarchitectural run's outcome.
type Result struct {
	Cycles         int64
	Events         int64 // events dispatched to PEs
	Applied        int64 // events that improved their vertex
	Generated      int64 // events injected into the NoC
	Coalesced      int64 // events merged into occupied slots
	Retired        int64 // events fully accounted (applied, filtered, or displaced)
	Fetches        int64 // adjacency fetches issued
	CacheHits      int64
	Evictions      int64 // edge-cache blocks evicted or demoted
	DRAMBytes      int64
	ChannelBytes   []int64 // DRAMBytes attributed per channel
	PEBusyCycles   int64   // summed busy cycles across PEs
	MaxLiveEvents  int64
	NoCBacklogMax  int64 // peak events queued across all NoC ports
	NoCBacklogSum  int64 // Σ over cycles of queued NoC events (mean = sum/cycles)
	SnapshotValues [][]float64
	Audits         []metrics.AuditResult // invariant checks run at the run boundary
}

// RecordMetrics publishes the result into a metrics registry under the
// uarch family names used by `megasim -metrics` for cycle-level modes.
func (r *Result) RecordMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("engine_events_processed").Add(r.Events)
	reg.Counter("engine_events_applied").Add(r.Applied)
	reg.Counter("engine_events_generated").Add(r.Generated)
	reg.Counter("queue_pushed").Add(r.Generated)
	reg.Counter("queue_coalesced").Add(r.Coalesced)
	reg.Counter("queue_taken").Add(r.Events)
	reg.Counter("engine_edge_fetches").Add(r.Fetches)
	reg.Counter("cache_hits").Add(r.CacheHits)
	reg.Counter("cache_misses").Add(r.Fetches - r.CacheHits)
	reg.Counter("cache_evictions").Add(r.Evictions)
	reg.Counter("dram_bytes", "component", "edge_miss").Add(r.DRAMBytes)
	for ch, b := range r.ChannelBytes {
		reg.Counter("dram_channel_bytes", "channel", strconv.Itoa(ch)).Add(b)
	}
	reg.Gauge("uarch_cycles").Set(r.Cycles)
	reg.Gauge("uarch_pe_busy_cycles").Set(r.PEBusyCycles)
	reg.Gauge("uarch_max_live_events").Set(r.MaxLiveEvents)
	reg.Gauge("noc_backlog_max").Set(r.NoCBacklogMax)
	reg.Gauge("noc_backlog_sum").Set(r.NoCBacklogSum)
	for _, a := range r.Audits {
		reg.RecordAudit(a)
	}
}

// Utilization returns the mean PE busy fraction.
func (r *Result) Utilization(cfg Config) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.PEBusyCycles) / float64(r.Cycles*int64(cfg.PEs))
}

// event is one in-flight delta message.
type event struct {
	ctx   int32
	stage int32
	dst   graph.VertexID
	val   float64
}

// slot identifies an occupied coalescing cell.
type slot struct {
	ctx   int32
	stage int32
	dst   graph.VertexID
}

// bin is one direct-mapped coalescing queue bank: per (context, local
// vertex) at most one pending candidate; occupied slots drain FIFO.
type bin struct {
	val  [][]float64 // [ctx][localIdx]
	has  [][]bool
	tag  [][]int32 // stage of the pending candidate
	fifo []slot
}

// pe is one processing engine. After applying an event it waits for the
// adjacency fetch, then spends ceil(deg/genStreams) cycles generating.
type pe struct {
	busy    bool
	readyAt int64 // cycle at which generation may start (fetch done)
	ctx     int32
	stage   int32
	srcVal  float64
	edgeLo  uint32
	edgeHi  uint32
	vertex  graph.VertexID
}

// Run executes the BOE schedule for the window on the microarchitectural
// model and returns cycle counts plus per-snapshot results.
func Run(w *evolve.Window, kind algo.Kind, src graph.VertexID, cfg Config) (*Result, error) {
	return RunContext(context.Background(), w, kind, src, cfg)
}

// RunContext is Run under a lifecycle: ctx is checked every ctxCheckCycles
// cycles (amortized — the tick loop is the hot path) and the MaxCycles
// watchdog aborts runaway simulations with megaerr.ErrDivergence.
func RunContext(ctx context.Context, w *evolve.Window, kind algo.Kind, src graph.VertexID, cfg Config) (*Result, error) {
	return RunAlgorithm(ctx, w, algo.New(kind), src, cfg)
}

// RunAlgorithm is RunContext for a caller-supplied Algorithm — the §3.2
// extension point at cycle fidelity. Non-monotone algorithms trip the
// MaxCycles watchdog instead of spinning.
func RunAlgorithm(ctx context.Context, w *evolve.Window, a algo.Algorithm, src graph.VertexID, cfg Config) (*Result, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		return nil, err
	}
	m, err := newMachine(w, a, src, cfg)
	if err != nil {
		return nil, err
	}
	if m.cfg.MaxCycles == 0 {
		m.cfg.MaxCycles = defaultMaxCycles(w.NumVertices(), w.NumSnapshots(), cfg)
	}
	if err := m.run(ctx, s); err != nil {
		return nil, err
	}
	res := m.result()
	res.Audits = m.audit()
	if m.auditOn {
		for _, ar := range res.Audits {
			if err := ar.Err(); err != nil {
				return nil, err
			}
		}
	}
	for snap := 0; snap < w.NumSnapshots(); snap++ {
		res.SnapshotValues = append(res.SnapshotValues, m.vals[s.SnapshotCtx[snap]])
	}
	return res, nil
}

// ctxCheckCycles is the amortization interval of the tick loop's context
// checks: one atomic load every 1024 simulated cycles.
const ctxCheckCycles = 1024

// defaultMaxCycles derives the divergence watchdog's cycle ceiling: the
// engine-level event bound times the worst per-event stall (DRAM latency
// plus a transfer allowance). Converging runs retire events far faster,
// so the ceiling only trips genuinely diverging simulations.
func defaultMaxCycles(numVertices, contexts int, cfg Config) int64 {
	events := engine.DefaultLimits(numVertices, contexts).MaxEvents
	perEvent := cfg.DRAMLatencyCycles + 64
	if perEvent < 1 {
		perEvent = 64
	}
	if events > math.MaxInt64/perEvent {
		return math.MaxInt64
	}
	return events * perEvent
}

func validate(cfg Config) error {
	switch {
	case cfg.PEs < 1:
		return megaerr.Invalidf("uarch: PEs %d < 1", cfg.PEs)
	case cfg.GenStreamsPerPE < 1:
		return megaerr.Invalidf("uarch: gen streams %d < 1", cfg.GenStreamsPerPE)
	case cfg.QueueBins < 1:
		return megaerr.Invalidf("uarch: queue bins %d < 1", cfg.QueueBins)
	case cfg.DRAMChannels < 1 || cfg.DRAMChannelBytesPerCycle < 1:
		return megaerr.Invalidf("uarch: invalid DRAM configuration")
	case cfg.BatchEdgesPerCycle < 1:
		return megaerr.Invalidf("uarch: batch reader rate %d < 1", cfg.BatchEdgesPerCycle)
	case cfg.EdgeEntryBytes < 1:
		return megaerr.Invalidf("uarch: edge entry bytes %d < 1", cfg.EdgeEntryBytes)
	case cfg.EdgeCacheBytes < 0:
		return megaerr.Invalidf("uarch: edge cache bytes %d < 0", cfg.EdgeCacheBytes)
	case cfg.DRAMLatencyCycles < 0:
		return megaerr.Invalidf("uarch: DRAM latency %d < 0", cfg.DRAMLatencyCycles)
	}
	return nil
}

// stageState tracks one BOE stage through the pipeline.
type stageState struct {
	ops         []sched.Op
	seedCursor  int // next (op, edge, ctx) seed to read
	outstanding int64
	readerDone  bool
}

type machine struct {
	cfg  Config
	a    algo.Algorithm
	u    *graph.UnifiedCSR
	src  graph.VertexID
	win  *evolve.Window
	vals [][]float64

	batchOf []int32
	applied []appliedSet

	bins  []*bin
	ports [][]event // NoC input FIFO per bin
	pes   []*pe

	cache     *lru
	chanBusy  []int64 // per-channel busy-until cycle
	chanBytes []int64 // cumulative bytes transferred per channel

	stages    []*stageState
	nextStage int

	now  int64
	live int64

	// statistics
	events, appliedN, generated, coalesced, retired int64
	fetches, cacheHits, dramBytes                   int64
	peBusy, maxLive                                 int64
	nocBacklogMax, nocBacklogSum                    int64

	// auditOn caches metrics.Strict() at construction; lastBytes is the
	// audit's external truth — each block's most recently fetched true
	// size — maintained only when auditing.
	auditOn   bool
	lastBytes map[uint32]int64
}

// appliedSet is a bitset over batch IDs.
type appliedSet []uint64

func newAppliedSet(n int) appliedSet { return make(appliedSet, (n+63)/64) }
func (b appliedSet) add(i int)       { b[i/64] |= 1 << uint(i%64) }
func (b appliedSet) has(i int) bool  { return b[i/64]&(1<<uint(i%64)) != 0 }
func newMachine(w *evolve.Window, a algo.Algorithm, src graph.VertexID, cfg Config) (*machine, error) {
	if int(src) >= w.NumVertices() {
		return nil, megaerr.Invalidf("uarch: source vertex %d outside [0,%d)", src, w.NumVertices())
	}
	batchOf, err := w.BatchOf()
	if err != nil {
		return nil, err
	}
	m := &machine{
		cfg:       cfg,
		a:         a,
		u:         w.Unified(),
		src:       src,
		win:       w,
		batchOf:   batchOf,
		cache:     newLRU(cfg.EdgeCacheBytes),
		chanBusy:  make([]int64, cfg.DRAMChannels),
		chanBytes: make([]int64, cfg.DRAMChannels),
		ports:     make([][]event, cfg.QueueBins),
		pes:       make([]*pe, cfg.PEs),
		auditOn:   metrics.Strict(),
	}
	if m.auditOn {
		m.lastBytes = make(map[uint32]int64)
	}
	for i := range m.pes {
		m.pes[i] = &pe{}
	}
	return m, nil
}

func (m *machine) result() *Result {
	return &Result{
		Cycles: m.now, Events: m.events, Applied: m.appliedN,
		Generated: m.generated, Coalesced: m.coalesced, Retired: m.retired,
		Fetches: m.fetches, CacheHits: m.cacheHits, Evictions: m.cache.evictions,
		DRAMBytes: m.dramBytes, ChannelBytes: append([]int64(nil), m.chanBytes...),
		PEBusyCycles: m.peBusy, MaxLiveEvents: m.maxLive,
		NoCBacklogMax: m.nocBacklogMax, NoCBacklogSum: m.nocBacklogSum,
	}
}

// audit checks the machine's conservation laws at the run boundary:
// every generated event was retired (none leaked), DRAM bytes are fully
// attributed to channels, and the edge cache's residency is consistent
// with the true adjacency sizes last fetched.
func (m *machine) audit() []metrics.AuditResult {
	toResult := func(name string, err error) metrics.AuditResult {
		if err != nil {
			return metrics.AuditResult{Name: name, OK: false, Detail: err.Error()}
		}
		return metrics.AuditResult{Name: name, OK: true}
	}
	var evErr error
	if m.live != 0 || m.generated != m.retired {
		evErr = megaerr.Auditf("uarch.event_conservation",
			"generated %d, retired %d, live %d at run end",
			m.generated, m.retired, m.live)
	}
	var chanSum int64
	for _, b := range m.chanBytes {
		chanSum += b
	}
	var dramErr error
	if chanSum != m.dramBytes {
		dramErr = megaerr.Auditf("uarch.dram_attribution",
			"dramBytes %d != sum of channel bytes %d", m.dramBytes, chanSum)
	}
	return []metrics.AuditResult{
		toResult("uarch.event_conservation", evErr),
		toResult("uarch.dram_attribution", dramErr),
		toResult("uarch.cache.used", m.cache.audit(m.lastBytes)),
	}
}
