// Package serve is the concurrent query service: a long-lived admission
// layer that runs many evolving-graph evaluations over shared Windows
// while keeping hard robustness guarantees under load.
//
// The service is a bounded system, by construction:
//
//   - Admission control. At most Capacity queries run concurrently and at
//     most QueueDepth wait; a request that fits neither is rejected
//     immediately with a megaerr.ErrOverload-matching error instead of
//     queueing unboundedly.
//   - Per-query lifecycle. Every query runs under its caller's context
//     plus an optional per-request deadline covering queue time and run
//     time; queued requests whose deadline or queue-timeout expires fail
//     with a deadline error without ever starting.
//   - Load shedding. When the queue is full, an arriving request may
//     displace ("shed") a queued request — waiters of tenants over their
//     own quota go first, then strictly lower-priority waiters (the
//     lowest-priority, youngest first) — so high-priority work is never
//     locked out by a backlog of low-priority work and no tenant loses
//     work to another tenant's burst while under its own quota.
//   - Tenant isolation. Every request carries a tenant identity (empty =
//     "default"); run slots are granted by weighted-fair scheduling
//     across per-tenant queues (priority preserved within a tenant), and
//     per-tenant MaxRunning/MaxQueued caps bound what any one tenant can
//     occupy regardless of offered load.
//   - Panic containment. A query whose evaluation panics fails alone,
//     with a *megaerr.WorkerPanicError; the service keeps serving.
//   - Graceful shutdown. Close stops admission, fails queued requests,
//     drains in-flight queries up to the caller's deadline, then cancels
//     stragglers and joins them — goroutine-leak-free.
//
// The service is engine-agnostic: the actual evaluation is a RunFunc
// supplied at construction (the root mega package wires EvaluateRecover,
// tests wire stubs). Accounting is a checked invariant: every admitted
// request terminates in exactly one of completed/failed/canceled/shed,
// and Close records (and in strict mode enforces) the conservation law
// admitted == completed + failed + canceled + shed — in aggregate and
// per tenant.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"sync"

	"mega/internal/algo"
	"mega/internal/ckptstore"
	"mega/internal/engine"
	"mega/internal/evolve"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/qcache"
)

// Priority orders queued requests and drives the shed policy. Higher
// values are served first and shed last.
type Priority uint8

const (
	// PriorityLow is sacrificed first under load.
	PriorityLow Priority = iota
	// PriorityNormal is the default.
	PriorityNormal
	// PriorityHigh is served first and can displace queued lower-priority
	// requests when the queue is full.
	PriorityHigh
)

// String names the priority as ParsePriority spells it.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", uint8(p))
	}
}

// ParsePriority converts "low", "normal", or "high" to its Priority.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "low":
		return PriorityLow, nil
	case "normal", "":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	default:
		return PriorityNormal, megaerr.Invalidf("serve: unknown priority %q (want low, normal, or high)", s)
	}
}

// Request describes one evolving-graph query submitted to the service.
type Request struct {
	// Window is the shared evolving-graph window to answer over. Windows
	// are immutable after construction, so many concurrent queries may
	// share one.
	Window *evolve.Window
	// Algo selects the query algorithm.
	Algo algo.Kind
	// Source is the query's source vertex.
	Source graph.VertexID
	// Tenant names the principal the query is accounted against; empty
	// selects DefaultTenantName. Admission, scheduling weight, quotas,
	// and shed decisions are tenant-scoped.
	Tenant string
	// Priority orders the tenant's wait queue and the shed policy.
	// Priority never crosses tenants: a tenant's high-priority flood
	// cannot starve another tenant's low-priority work.
	Priority Priority
	// Deadline, when nonzero, bounds the query's total time in the
	// service — queue wait plus run time. A queued request past its
	// deadline fails without ever starting.
	Deadline time.Duration
	// QueueTimeout, when nonzero, bounds only the time spent waiting for
	// a run slot.
	QueueTimeout time.Duration
	// Label tags the request in reports; the service does not interpret it.
	Label string
}

// RunReport is what a RunFunc tells the service about one evaluation.
type RunReport struct {
	// Attempts counts engine runs inside the evaluation (retries included).
	Attempts int
	// Resumed is true when the evaluation's first attempt restored a
	// checkpoint from the durable store — the query picked up work a
	// previous process (or a previous failed query) left behind.
	Resumed bool
}

// RunFunc evaluates one query. Implementations must honor ctx and return
// typed megaerr errors; panics are contained by the service and surface as
// *megaerr.WorkerPanicError.
type RunFunc func(ctx context.Context, req *Request) ([][]float64, RunReport, error)

// Report describes how the service executed one admitted query.
type Report struct {
	// Engine is what produced the result: "sequential" (an engine run) or
	// "cache" (no engine ran).
	Engine string
	// Cache describes the sharing layer's involvement: "" (the query's own
	// engine run), "hit" (served from the result cache), or "coalesced"
	// (attached to an identical in-flight query).
	Cache string
	// Attempts and Resumed come from the evaluation's RunReport; Resumed
	// marks a durable-checkpoint resume.
	Attempts int
	Resumed  bool
	// QueueWait is the time spent waiting for a run slot.
	QueueWait time.Duration
	// RunTime is the evaluation's wall time.
	RunTime time.Duration
}

// Result is a successful query's values and execution report.
type Result struct {
	// Values holds one value array per snapshot of the window.
	Values [][]float64
	// Report describes how the query was executed.
	Report Report
}

// Config parameterizes a Service. The zero value of every field selects a
// safe default; Run is required.
type Config struct {
	// Run evaluates one query (required).
	Run RunFunc
	// Capacity bounds concurrently running queries (0 = 4).
	Capacity int
	// QueueDepth bounds waiting queries (0 = 64).
	QueueDepth int
	// DefaultDeadline applies to requests with Deadline == 0 (0 = none).
	DefaultDeadline time.Duration
	// DefaultQueueTimeout applies to requests with QueueTimeout == 0
	// (0 = none).
	DefaultQueueTimeout time.Duration
	// Tenants maps tenant names to their QoS contracts. Tenants absent
	// from the table (and the "default" tenant itself, unless listed) get
	// DefaultTenant. A nil map is a single-tenant service that behaves
	// exactly like the pre-tenancy one.
	Tenants map[string]TenantConfig
	// DefaultTenant is the contract applied to tenants not in Tenants.
	// Its zero value is weight 1 with no per-tenant caps.
	DefaultTenant TenantConfig
	// Metrics, when non-nil, receives the service's gauges, counters,
	// histograms, and the Close-time accounting audits.
	Metrics *metrics.Registry
	// CacheBytes, when > 0, enables the cross-query sharing layer with a
	// result cache bounded to this many resident value bytes. Zero
	// disables caching and coalescing entirely.
	CacheBytes int64
	// Store, when non-nil, is the durable checkpoint store the RunFunc
	// spools into. The service takes ownership: Close closes the store
	// (joining its ckptstore.accounting audit under strict mode), Stats
	// embeds its books, and RecoverOrphans rescans it after a restart to
	// re-admit resumable work.
	Store *ckptstore.Store
}

// Service states.
const (
	stateServing = iota
	stateDraining
	stateClosed
)

// Service is a concurrent query service. Construct with New; Submit is
// safe for concurrent use; Close drains and shuts down.
type Service struct {
	run    RunFunc
	cfg    Config
	reg    *metrics.Registry
	strict bool
	now    func() time.Time // injectable clock (tests)

	// qc is the cross-query result cache; nil when CacheBytes == 0, which
	// disables the whole sharing layer (flights stays empty).
	qc *qcache.Cache

	// store is the durable checkpoint store (nil without one); orphanWG
	// joins the background re-submissions RecoverOrphans spawns so Close
	// never leaks them.
	store    *ckptstore.Store
	orphanWG sync.WaitGroup

	mu          sync.Mutex
	state       int
	running     int
	queuedTotal int // waiters across every tenant queue; bounded by QueueDepth
	tenants     map[string]*tenantState
	flights     map[flightKey]*flight
	vnow        uint64 // weighted-fair virtual clock (see chargeGrantLocked)
	seq         uint64
	active      map[*waiter]context.CancelFunc
	drained     chan struct{}

	// Accounting. Terminal states are counted by whichever goroutine
	// removes the request from the service, always under mu, so the
	// conservation law admitted == completed + failed + canceled + shed
	// is checkable at any quiescent point — in aggregate here and per
	// tenant in each tenantState.
	admitted, completed, failed, canceled uint64
	rejected, shed, deadlineExceeded      uint64
	cacheHits, coalesced, engineRuns      uint64

	mQueued, mRunning, mDraining           *metrics.Gauge
	cAdmitted, cRejected, cShed, cDeadline *metrics.Counter
	cCompleted, cFailed, cCanceled         *metrics.Counter
	cCacheHits, cCoalesced, cEngineRuns    *metrics.Counter
	hQueueWait, hRunTime                   *metrics.Histogram
}

// New builds a Service from cfg. It returns an error when cfg.Run is nil
// or a bound is negative.
func New(cfg Config) (*Service, error) {
	if cfg.Run == nil {
		return nil, megaerr.Invalidf("serve: Config.Run is required")
	}
	if cfg.Capacity < 0 || cfg.QueueDepth < 0 {
		return nil, megaerr.Invalidf("serve: negative Capacity (%d) or QueueDepth (%d)", cfg.Capacity, cfg.QueueDepth)
	}
	if cfg.DefaultDeadline < 0 || cfg.DefaultQueueTimeout < 0 {
		return nil, megaerr.Invalidf("serve: negative duration (DefaultDeadline=%s DefaultQueueTimeout=%s)",
			cfg.DefaultDeadline, cfg.DefaultQueueTimeout)
	}
	if cfg.CacheBytes < 0 {
		return nil, megaerr.Invalidf("serve: negative CacheBytes (%d)", cfg.CacheBytes)
	}
	if err := validTenantConfig("DefaultTenant", cfg.DefaultTenant); err != nil {
		return nil, err
	}
	for name, tc := range cfg.Tenants {
		if name == "" {
			return nil, megaerr.Invalidf("serve: Tenants has an empty name (use DefaultTenant or %q)", DefaultTenantName)
		}
		if err := ValidateTenant(name); err != nil {
			return nil, err
		}
		if err := validTenantConfig(name, tc); err != nil {
			return nil, err
		}
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New() // private registry: instruments always resolvable
	}
	s := &Service{
		run:     cfg.Run,
		cfg:     cfg,
		reg:     reg,
		strict:  metrics.Strict(),
		now:     time.Now,
		store:   cfg.Store,
		active:  make(map[*waiter]context.CancelFunc),
		tenants: make(map[string]*tenantState),
		flights: make(map[flightKey]*flight),

		mQueued:     reg.Gauge("serve_queued"),
		mRunning:    reg.Gauge("serve_running"),
		mDraining:   reg.Gauge("serve_draining"),
		cAdmitted:   reg.Counter("serve_admitted"),
		cRejected:   reg.Counter("serve_rejected"),
		cShed:       reg.Counter("serve_shed"),
		cDeadline:   reg.Counter("serve_deadline_exceeded"),
		cCompleted:  reg.Counter("serve_queries", "state", "completed"),
		cFailed:     reg.Counter("serve_queries", "state", "failed"),
		cCanceled:   reg.Counter("serve_queries", "state", "canceled"),
		cCacheHits:  reg.Counter("serve_cache_hits"),
		cCoalesced:  reg.Counter("serve_coalesced"),
		cEngineRuns: reg.Counter("serve_engine_runs"),
		hQueueWait:  reg.Histogram("serve_queue_wait_nanos"),
		hRunTime:    reg.Histogram("serve_run_nanos"),
	}
	if cfg.CacheBytes > 0 {
		tb := make(map[string]int64)
		for name, tc := range cfg.Tenants {
			if tc.CacheBytes > 0 {
				tb[name] = tc.CacheBytes
			}
		}
		qc, err := qcache.New(qcache.Config{
			MaxBytes:           cfg.CacheBytes,
			TenantBytes:        tb,
			DefaultTenantBytes: cfg.DefaultTenant.CacheBytes,
			Metrics:            reg,
		})
		if err != nil {
			return nil, err
		}
		s.qc = qc
	}
	// Materialize configured tenants eagerly so per-tenant stats and
	// metrics are visible before their first request. No concurrency yet:
	// the service has not been published.
	for name := range cfg.Tenants {
		s.tenantLocked(name)
	}
	return s, nil
}

// validTenantConfig rejects negative tenant bounds; zero always means
// "default" (weight 1, no cap).
func validTenantConfig(name string, tc TenantConfig) error {
	if tc.Weight < 0 || tc.MaxRunning < 0 || tc.MaxQueued < 0 || tc.Burst < 0 || tc.CacheBytes < 0 {
		return megaerr.Invalidf("serve: tenant %s: negative bound (Weight=%d MaxRunning=%d MaxQueued=%d Burst=%d CacheBytes=%d)",
			name, tc.Weight, tc.MaxRunning, tc.MaxQueued, tc.Burst, tc.CacheBytes)
	}
	if tc.Burst > 0 && tc.MaxQueued == 0 {
		return megaerr.Invalidf("serve: tenant %s: Burst=%d without MaxQueued (burst extends an explicit queue cap)", name, tc.Burst)
	}
	return nil
}

// waiter is one admitted request waiting for (or holding) a run slot.
type waiter struct {
	tenant *tenantState
	prio   Priority
	seq    uint64
	index  int // heap index; -1 once off the queue
	grant  chan error
	cancel context.CancelFunc
}

// waiterHeap orders waiters by priority (high first), FIFO within one
// priority.
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old) - 1
	w := old[n]
	old[n] = nil
	*h = old[:n]
	w.index = -1
	return w
}

// Submit runs one query through the service and blocks until it resolves:
// a successful Result, a typed error (ErrOverload on rejection or shed,
// ErrCanceled on deadline/cancellation, or the evaluation's own failure).
// Safe for concurrent use from any number of goroutines.
func (s *Service) Submit(ctx context.Context, req Request) (*Result, error) {
	if req.Priority > PriorityHigh {
		return nil, megaerr.Invalidf("serve: priority %d out of range", req.Priority)
	}
	if err := ValidateTenant(req.Tenant); err != nil {
		return nil, err
	}
	submitted := s.now()
	deadline := req.Deadline
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	if s.shareable(ctx, &req) {
		return s.submitShared(ctx, &req, cancel, submitted)
	}
	return s.submitSolo(ctx, &req, submitted)
}

// submitSolo is the classic single-query path: admit, wait for a slot,
// run under the caller's context, account, report. The sharing layer
// routes here for chaos queries, windowless requests, unschedulable
// windows, and folded-key collisions.
func (s *Service) submitSolo(ctx context.Context, req *Request, submitted time.Time) (*Result, error) {
	// ctx already carries the request deadline; its cancel is run by
	// Submit's defer. The waiter needs its own cancel handle for Close's
	// straggler sweep, derived (not detached) from ctx.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w, err := s.admit(req, cancel)
	if err != nil {
		return nil, err
	}
	if err := s.awaitSlot(ctx, req, w); err != nil {
		return nil, err
	}
	queueWait := s.now().Sub(submitted)
	s.hQueueWait.Observe(queueWait.Nanoseconds())

	start := s.now()
	vals, rep, runErr := s.runContained(ctx, req)
	runTime := s.now().Sub(start)
	s.hRunTime.Observe(runTime.Nanoseconds())
	s.noteEngineRun()
	s.finish(w, runErr)
	if runErr != nil {
		return nil, runErr
	}
	return &Result{
		Values: vals,
		Report: Report{
			Engine:    "sequential",
			Attempts:  rep.Attempts,
			Resumed:   rep.Resumed,
			QueueWait: queueWait,
			RunTime:   runTime,
		},
	}, nil
}

// admit either grants a run slot immediately, enqueues the request on its
// tenant's queue, sheds a queued waiter to make room (over-quota tenants
// first, then strictly lower priority), or rejects with ErrOverload. The
// returned waiter always resolves through its grant channel.
func (s *Service) admit(req *Request, cancel context.CancelFunc) (*waiter, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateServing {
		reason := "service draining"
		if s.state == stateClosed {
			reason = "service closed"
		}
		s.rejected++
		s.cRejected.Inc()
		return nil, &megaerr.OverloadError{
			Reason: reason, Capacity: s.cfg.Capacity, Queued: s.queuedTotal,
			RetryAfter: retryAfterEstimate(s.cfg.Capacity, s.queuedTotal, time.Duration(s.hRunTime.Quantile(0.5))),
		}
	}
	t := s.tenantLocked(req.Tenant)
	// A tenant re-entering after idleness joins at the current virtual
	// time: no banked credit from its quiet past, no penalty either.
	if t.running == 0 && t.queue.Len() == 0 && t.vtime < s.vnow {
		t.vtime = s.vnow
	}
	s.seq++
	w := &waiter{tenant: t, prio: req.Priority, seq: s.seq, index: -1, grant: make(chan error, 1), cancel: cancel}

	// Direct grant. dispatchLocked keeps the invariant that whenever mu
	// is released, either the service is at Capacity or every tenant with
	// queued work is at its own run cap — so a free global slot plus a
	// free tenant slot means no queued waiter outranks this arrival.
	if s.running < s.cfg.Capacity && t.running < t.runCap(s.cfg.Capacity) {
		s.admitted++
		t.admitted++
		s.cAdmitted.Inc()
		t.cAdmitted.Inc()
		s.chargeGrantLocked(t)
		s.grantLocked(w)
		return w, nil
	}

	// Per-tenant queue cap (explicit contracts only; implicit quotas are
	// enforced by the shed passes below, never by rejecting under-quota
	// tenants while the global queue has room).
	if t.cfg.MaxQueued > 0 && t.queue.Len() >= s.allowedQueueLocked(t) {
		victim := lowestWaiter(t.queue)
		if victim == nil || victim.prio >= req.Priority {
			s.rejected++
			t.rejected++
			s.cRejected.Inc()
			t.cRejected.Inc()
			return nil, &megaerr.OverloadError{
				Reason: "tenant queue full", Tenant: t.name,
				Capacity: s.cfg.Capacity, Queued: t.queue.Len(),
				RetryAfter: s.retryHintLocked(t),
			}
		}
		s.shedLocked(victim, "shed by same-tenant higher-priority request")
	}
	if s.queuedTotal >= s.cfg.QueueDepth && !s.makeRoomLocked(t, req.Priority) {
		s.rejected++
		t.rejected++
		s.cRejected.Inc()
		t.cRejected.Inc()
		return nil, &megaerr.OverloadError{
			Reason: "queue full", Tenant: tenantLabel(t),
			Capacity: s.cfg.Capacity, Queued: s.queuedTotal,
			RetryAfter: s.retryHintLocked(t),
		}
	}
	s.admitted++
	t.admitted++
	s.cAdmitted.Inc()
	t.cAdmitted.Inc()
	heap.Push(&t.queue, w)
	s.queuedTotal++
	t.mQueued.Set(int64(t.queue.Len()))
	s.mQueued.Set(int64(s.queuedTotal))
	s.dispatchLocked()
	return w, nil
}

// tenantLabel is the tenant name carried on errors: explicit tenants by
// name, the implicit default tenant as "" so single-tenant deployments
// keep the pre-tenancy error messages.
func tenantLabel(t *tenantState) string {
	if t.name == DefaultTenantName {
		return ""
	}
	return t.name
}

// lowestWaiter returns h's lowest-priority, youngest waiter (nil when h
// is empty) — the shed policy's victim order within one tenant.
func lowestWaiter(h waiterHeap) *waiter {
	var victim *waiter
	for _, w := range h {
		if victim == nil || w.prio < victim.prio || (w.prio == victim.prio && w.seq > victim.seq) {
			victim = w
		}
	}
	return victim
}

// makeRoomLocked frees one global queue slot for an arrival of the given
// tenant and priority, or reports that it cannot. Victims are chosen in
// isolation order:
//
//  1. a tenant other than the arrival's that is over its own quota — the
//     one with the most queued work (tie-break by name) loses its
//     lowest-priority, youngest waiter regardless of the arrival's
//     priority (quota enforcement, not priority preemption);
//  2. the arrival's own tenant when over quota, but only a strictly
//     lower-priority waiter (a tenant never sheds its own equal-priority
//     work to admit more);
//  3. legacy global shed: the lowest-priority, youngest waiter anywhere,
//     only if strictly below the arrival's priority.
//
// Caller holds mu.
func (s *Service) makeRoomLocked(t *tenantState, prio Priority) bool {
	aw := s.activeWeightLocked(t)
	var overQuota *tenantState
	for _, o := range s.tenants {
		if o == t || o.queue.Len() == 0 || !s.overQuotaLocked(o, aw) {
			continue
		}
		if overQuota == nil || o.queue.Len() > overQuota.queue.Len() ||
			(o.queue.Len() == overQuota.queue.Len() && o.name < overQuota.name) {
			overQuota = o
		}
	}
	if overQuota != nil {
		s.shedLocked(lowestWaiter(overQuota.queue), "shed over tenant quota")
		return true
	}
	if s.overQuotaLocked(t, aw) {
		if v := lowestWaiter(t.queue); v != nil && v.prio < prio {
			s.shedLocked(v, "shed by same-tenant higher-priority request")
			return true
		}
		return false
	}
	var victim *waiter
	for _, o := range s.tenants {
		w := lowestWaiter(o.queue)
		if w == nil {
			continue
		}
		if victim == nil || w.prio < victim.prio || (w.prio == victim.prio && w.seq > victim.seq) {
			victim = w
		}
	}
	if victim != nil && victim.prio < prio {
		s.shedLocked(victim, "shed by higher-priority request")
		return true
	}
	return false
}

// shedLocked removes victim from its tenant's queue and resolves it with
// a tenant-labeled overload error. Shed is a terminal accounting class of
// its own: the victim was admitted, so it must land in exactly one of
// completed/failed/canceled/shed — this is the shed. Caller holds mu.
func (s *Service) shedLocked(victim *waiter, reason string) {
	vt := victim.tenant
	heap.Remove(&vt.queue, victim.index)
	s.queuedTotal--
	vt.mQueued.Set(int64(vt.queue.Len()))
	s.mQueued.Set(int64(s.queuedTotal))
	s.shed++
	vt.shed++
	s.cShed.Inc()
	vt.cShed.Inc()
	victim.grant <- &megaerr.OverloadError{
		Reason: reason, Tenant: tenantLabel(vt),
		Capacity: s.cfg.Capacity, Queued: s.queuedTotal,
		RetryAfter: s.retryHintLocked(vt),
	}
}

// dispatchLocked grants free run slots to queued waiters in weighted-fair
// order: while capacity remains, the eligible tenant with the smallest
// virtual time gives up its top-priority waiter. On return, either the
// service is at Capacity or every tenant with queued work is at its own
// run cap. Caller holds mu.
func (s *Service) dispatchLocked() {
	if s.state != stateServing {
		return
	}
	for s.running < s.cfg.Capacity {
		t := s.nextTenantLocked()
		if t == nil {
			return
		}
		w := heap.Pop(&t.queue).(*waiter)
		s.queuedTotal--
		t.mQueued.Set(int64(t.queue.Len()))
		s.mQueued.Set(int64(s.queuedTotal))
		s.chargeGrantLocked(t)
		s.grantLocked(w)
	}
}

// grantLocked hands w a run slot. Caller holds mu.
func (s *Service) grantLocked(w *waiter) {
	s.running++
	w.tenant.running++
	s.mRunning.Set(int64(s.running))
	w.tenant.mRunning.Set(int64(w.tenant.running))
	s.active[w] = w.cancel
	w.grant <- nil
}

// awaitSlot blocks until the admitted request owns a run slot, or resolves
// it as canceled/timed-out/shed. A non-nil return has already been
// accounted.
func (s *Service) awaitSlot(ctx context.Context, req *Request, w *waiter) error {
	qt := req.QueueTimeout
	if qt == 0 {
		qt = s.cfg.DefaultQueueTimeout
	}
	var timeoutC <-chan time.Time
	if qt > 0 {
		timer := time.NewTimer(qt)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case err := <-w.grant:
		return err // nil = slot owned; non-nil = shed or drained (accounted by remover)
	case <-ctx.Done():
		return s.abandon(w, megaerr.Canceled("serve: canceled while queued", ctx.Err()))
	case <-timeoutC:
		return s.abandon(w, megaerr.Canceled("serve: queue timeout", context.DeadlineExceeded))
	}
}

// abandon resolves a waiter whose wait was interrupted. If the waiter is
// still queued it is removed and accounted with cause; if a grant or shed
// raced ahead, the grant is consumed — a won slot is released unused.
func (s *Service) abandon(w *waiter, cause error) error {
	s.mu.Lock()
	if w.index >= 0 {
		heap.Remove(&w.tenant.queue, w.index)
		s.queuedTotal--
		w.tenant.mQueued.Set(int64(w.tenant.queue.Len()))
		s.mQueued.Set(int64(s.queuedTotal))
		s.accountTerminalLocked(w.tenant, cause)
		s.mu.Unlock()
		return cause
	}
	s.mu.Unlock()
	err := <-w.grant // buffered: the popper has sent or is about to send
	if err != nil {
		return err // shed/drained; already accounted
	}
	s.finish(w, cause) // slot won after interruption: release it unused
	return cause
}

// finish releases w's run slot, accounts the terminal outcome, grants the
// next waiters, and signals the drain when the service empties.
func (s *Service) finish(w *waiter, outcome error) {
	s.mu.Lock()
	s.finishLocked(w, outcome)
	s.mu.Unlock()
}

// finishLocked is finish's body for callers already holding mu (flight
// resolution releases the slot in the same locked step that publishes the
// result).
func (s *Service) finishLocked(w *waiter, outcome error) {
	delete(s.active, w)
	s.running--
	w.tenant.running--
	w.tenant.mRunning.Set(int64(w.tenant.running))
	s.accountTerminalLocked(w.tenant, outcome)
	s.dispatchLocked()
	s.mRunning.Set(int64(s.running))
	if s.state == stateDraining && s.running == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// noteEngineRun counts one real engine run — the denominator of the
// sharing layer's effectiveness (admitted queries per engine run).
func (s *Service) noteEngineRun() {
	s.mu.Lock()
	s.engineRuns++
	s.cEngineRuns.Inc()
	s.mu.Unlock()
}

// accountTerminalLocked classifies one admitted request's terminal
// outcome against its tenant and the aggregate. Caller holds mu. Every
// admitted request reaches exactly one terminal state: completed,
// canceled (deadline/cancellation, including while queued), failed
// (evaluation errors), or shed (counted by shedLocked, not here).
func (s *Service) accountTerminalLocked(t *tenantState, err error) {
	switch {
	case err == nil:
		s.completed++
		t.completed++
		s.cCompleted.Inc()
		t.cCompleted.Inc()
	case errors.Is(err, megaerr.ErrCanceled):
		s.canceled++
		t.canceled++
		s.cCanceled.Inc()
		t.cCanceled.Inc()
	default:
		s.failed++
		t.failed++
		s.cFailed.Inc()
		t.cFailed.Inc()
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		s.deadlineExceeded++
		s.cDeadline.Inc()
	}
}

// runContained invokes the RunFunc, converting an escaping panic into a
// *megaerr.WorkerPanicError so one poisoned query cannot take down the
// service.
func (s *Service) runContained(ctx context.Context, req *Request) (vals [][]float64, rep RunReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &megaerr.WorkerPanicError{Shard: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return s.run(ctx, req)
}

// Close stops admission, fails every queued request, drains in-flight
// queries until ctx expires, then cancels stragglers and joins them. It
// records the accounting audits (admitted == completed + failed +
// canceled + shed, aggregate and per tenant) in the metrics registry and,
// in strict mode, returns them as an ErrAudit error if violated. Close is
// idempotent; Submit after Close fails with ErrOverload.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.state == stateClosed {
		s.mu.Unlock()
		return nil
	}
	var drained chan struct{}
	if s.state == stateServing {
		s.state = stateDraining
		s.mDraining.Set(1)
		for _, t := range s.tenants {
			for t.queue.Len() > 0 {
				w := heap.Pop(&t.queue).(*waiter)
				s.queuedTotal--
				derr := megaerr.Canceled("serve: drained while queued", context.Canceled)
				s.accountTerminalLocked(t, derr)
				w.grant <- derr
			}
			t.mQueued.Set(0)
		}
		s.mQueued.Set(0)
		if s.running > 0 {
			s.drained = make(chan struct{})
		}
	}
	drained = s.drained
	s.mu.Unlock()

	if drained != nil {
		select {
		case <-drained:
		case <-ctx.Done():
			// Drain deadline expired: cancel the stragglers and join them.
			// The engines observe cancellation at their next round
			// boundary, so this wait is short and leak-free.
			s.mu.Lock()
			for _, cancel := range s.active {
				cancel()
			}
			s.mu.Unlock()
			<-drained
		}
	}

	// Join RecoverOrphans' background re-submissions: once draining set
	// in, a not-yet-admitted orphan is rejected immediately and the rest
	// resolved with the drain above, so this wait is bounded.
	s.orphanWG.Wait()

	s.mu.Lock()
	s.state = stateClosed
	s.mDraining.Set(0)
	audit := s.auditLocked()
	tenantAudit := s.tenantAuditLocked()
	s.reg.RecordAudit(audit)
	s.reg.RecordAudit(tenantAudit)
	strict := s.strict
	s.mu.Unlock()
	cacheAudit := metrics.AuditResult{Name: "cache.accounting", OK: true}
	if s.qc != nil {
		// Invalidate every cached result and audit the cache's own
		// conservation law (hits + misses == lookups, bytes within budget)
		// alongside the admission audits.
		cacheAudit = s.qc.Close()
		s.reg.RecordAudit(cacheAudit)
	}
	var storeErr error
	if s.store != nil {
		// The store audits its own books (ckptstore.accounting: every
		// segment in exactly one terminal class, byte ledger == disk) and
		// records the result in its registry; strict mode surfaces a
		// violation as part of Close's error.
		storeErr = s.store.Close()
	}
	if strict {
		return errors.Join(audit.Err(), tenantAudit.Err(), cacheAudit.Err(), storeErr)
	}
	return nil
}

// RecoverOrphans rescans the durable checkpoint store for work a dead
// process left behind: every stored entry whose window fingerprint
// matches win is re-submitted in the background under its original
// tenant, resuming from its last durable checkpoint and completing (or
// cleanly failing) under this service's admission control. It returns
// how many orphans were re-admitted. Entries for other windows are left
// alone — a later restart with their window (or the byte-budget GC)
// handles them. Call it once after New, before heavy traffic.
func (s *Service) RecoverOrphans(ctx context.Context, win *evolve.Window) (int, error) {
	if s.store == nil || win == nil {
		return 0, nil
	}
	fp, err := engine.FingerprintBOE(win)
	if err != nil {
		return 0, err
	}
	key := fp.Key()
	n := 0
	for _, e := range s.store.Entries() {
		if e.ID.Win != key {
			continue
		}
		if e.ID.Source >= uint64ToU32Cap(win.NumVertices()) {
			continue // stale entry from a differently-sized ancestor
		}
		req := Request{
			Window: win,
			Algo:   algo.Kind(e.ID.Algo),
			Source: graph.VertexID(e.ID.Source),
			Tenant: e.ID.Tenant,
			Label:  "recovered-orphan",
		}
		n++
		s.orphanWG.Add(1)
		// Detach from the caller's context: orphan recovery outlives the
		// cold-start call that triggered it, bounded by Close's drain.
		rctx := context.WithoutCancel(ctx)
		go func(req Request) {
			defer s.orphanWG.Done()
			// The result is discarded: success deletes the store entry
			// and seeds the result cache; failure is accounted like any
			// other failed query.
			_, _ = s.Submit(rctx, req)
		}(req)
	}
	return n, nil
}

// uint64ToU32Cap clamps a vertex count to the uint32 id space.
func uint64ToU32Cap(n int) uint32 {
	if n < 0 {
		return 0
	}
	if uint64(n) > uint64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(n)
}

// auditLocked computes the aggregate accounting conservation audit.
// Caller holds mu.
func (s *Service) auditLocked() metrics.AuditResult {
	terminal := s.completed + s.failed + s.canceled + s.shed
	res := metrics.AuditResult{Name: "serve.accounting", OK: s.admitted == terminal}
	if !res.OK {
		res.Detail = fmt.Sprintf("admitted=%d != completed=%d + failed=%d + canceled=%d + shed=%d (=%d)",
			s.admitted, s.completed, s.failed, s.canceled, s.shed, terminal)
	}
	return res
}

// Stats is a point-in-time snapshot of the service's accounting.
type Stats struct {
	// State is "serving", "draining", or "closed".
	State string
	// Capacity is the concurrent-run bound the service admits against.
	Capacity int
	// Running and Queued are the live occupancy.
	Running, Queued int
	// RunP50 is the (bucketed, upper-bound) median evaluation wall time
	// observed so far; zero before any query completes. RetryAfterHint
	// turns it into an overload back-off estimate.
	RunP50 time.Duration
	// Admitted counts requests that entered the service; every one
	// terminates as exactly one of Completed, Failed, Canceled, or Shed.
	Admitted, Completed, Failed, Canceled uint64
	// Rejected counts requests refused at admission (never admitted).
	Rejected uint64
	// Shed counts queued requests displaced by higher-priority arrivals
	// or tenant-quota enforcement — a terminal class of its own.
	Shed uint64
	// DeadlineExceeded counts terminals caused by a deadline.
	DeadlineExceeded uint64
	// CacheHits counts queries answered from the result cache with no
	// engine involvement; CoalescedQueries attached to an identical
	// in-flight run. Both are zero when the sharing layer is disabled.
	CacheHits, CoalescedQueries uint64
	// BatchedQueries is always 0; kept for the frozen harness (benchmark/), removed by ROADMAP item 1.
	BatchedQueries uint64
	// EngineRuns counts real engine runs; admitted minus the sharing
	// counters above should track it.
	EngineRuns uint64
	// Cache is the result cache's own accounting (zero MaxBytes =
	// disabled).
	Cache qcache.Stats
	// Store is the durable checkpoint store's accounting (zero MaxBytes
	// = no store configured).
	Store ckptstore.Stats
	// Tenants is the per-tenant breakdown, sorted by name. Empty only
	// before any request (and with no configured tenants).
	Tenants []TenantStats
}

// Stats returns the service's current accounting snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Capacity: s.cfg.Capacity,
		Running:  s.running, Queued: s.queuedTotal,
		RunP50:   time.Duration(s.hRunTime.Quantile(0.5)),
		Admitted: s.admitted, Completed: s.completed, Failed: s.failed, Canceled: s.canceled,
		Rejected: s.rejected, Shed: s.shed, DeadlineExceeded: s.deadlineExceeded,
		CacheHits: s.cacheHits, CoalescedQueries: s.coalesced, EngineRuns: s.engineRuns,
		Tenants: s.tenantStatsLocked(),
	}
	if s.qc != nil {
		st.Cache = s.qc.Stats()
	}
	if s.store != nil {
		st.Store = s.store.Stats()
	}
	switch s.state {
	case stateServing:
		st.State = "serving"
	case stateDraining:
		st.State = "draining"
	default:
		st.State = "closed"
	}
	return st
}

// Audit returns the accounting conservation audit at this instant; it is
// guaranteed to pass at any quiescent point (no queued or running
// queries) and always checked at Close.
func (s *Service) Audit() metrics.AuditResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auditLocked()
}

// TenantAudit returns the per-tenant conservation audit: every tenant's
// admitted == completed + failed + canceled + shed, and the tenant sums
// reproduce the aggregate counters. Same quiescence guarantee as Audit.
func (s *Service) TenantAudit() metrics.AuditResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantAuditLocked()
}

// Retry-hint clamp bounds: even an empty service suggests waiting a
// beat before retrying, and even a deeply backlogged one never asks a
// caller to stay away for more than half a minute.
const (
	retryAfterMin = 100 * time.Millisecond
	retryAfterMax = 30 * time.Second
)

// RetryAfterHint estimates how long a rejected caller should wait before
// retrying: long enough for the backlog ahead of it to drain — one run
// "wave" per Capacity queued requests (plus the retry itself), each wave
// costing the observed median run time — clamped to [100ms, 30s]. With no
// run history yet (RunP50 == 0) a wave is assumed to cost one second.
// OverloadError.RetryAfter carries the same estimate, and the HTTP front
// end surfaces it as a 429 Retry-After header.
func RetryAfterHint(st Stats) time.Duration {
	return retryAfterEstimate(st.Capacity, st.Queued, st.RunP50)
}

// retryAfterEstimate is the hint core shared by the aggregate
// RetryAfterHint and the tenant-scoped hints, which substitute the
// tenant's own backlog and its weighted share of capacity.
func retryAfterEstimate(capacity, queued int, p50 time.Duration) time.Duration {
	if capacity <= 0 {
		capacity = 1
	}
	if p50 <= 0 {
		p50 = time.Second
	}
	waves := (queued + capacity) / capacity // ceil((queued+1)/capacity)
	// Clamp before multiplying: an extreme backlog times a large p50 can
	// overflow time.Duration and wrap negative, which would fall out as
	// retryAfterMin — the opposite of the right answer.
	if int64(waves) > int64(retryAfterMax/p50) {
		return retryAfterMax
	}
	d := time.Duration(waves) * p50
	if d < retryAfterMin {
		return retryAfterMin
	}
	if d > retryAfterMax {
		return retryAfterMax
	}
	return d
}
