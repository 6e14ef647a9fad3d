package mega

import (
	"context"
	"sync"
	"time"

	"mega/internal/engine"
	"mega/internal/megaerr"
	"mega/internal/serve"
)

// Concurrent query service (internal/serve re-exported). A QueryService
// is a long-lived front door for many concurrent evaluations over shared
// Windows: bounded admission with a priority wait queue, per-query
// deadlines and cancellation, load shedding, and a graceful drain on
// Close. Every admitted query runs through EvaluateRecover, so transient
// faults retry from checkpoints and a panicking query fails alone.
type (
	// QueryService is the concurrent query service; construct with
	// NewQueryService.
	QueryService = serve.Service
	// QueryRequest describes one query submitted to the service.
	QueryRequest = serve.Request
	// QueryResult is a successful query's values and execution report.
	QueryResult = serve.Result
	// QueryReport describes how the service executed one query.
	QueryReport = serve.Report
	// QueryPriority orders the wait queue and the shed policy.
	QueryPriority = serve.Priority
	// QueryServiceStats is a point-in-time accounting snapshot.
	QueryServiceStats = serve.Stats
	// TenantConfig is one tenant's QoS contract: scheduling weight plus
	// optional per-tenant running/queued caps and a burst allowance.
	TenantConfig = serve.TenantConfig
	// TenantStats is one tenant's slice of the service accounting.
	TenantStats = serve.TenantStats
)

// DefaultTenantName is the tenant untagged requests are accounted under.
const DefaultTenantName = serve.DefaultTenantName

// Query priorities.
const (
	// QueryPriorityLow is sacrificed first under load.
	QueryPriorityLow = serve.PriorityLow
	// QueryPriorityNormal is the default.
	QueryPriorityNormal = serve.PriorityNormal
	// QueryPriorityHigh is served first and can shed queued lower-priority
	// requests when the queue is full.
	QueryPriorityHigh = serve.PriorityHigh
)

// Overload contract: requests refused by admission control match
// ErrOverload under errors.Is; errors.As recovers the *OverloadError
// detail (reason, capacity, queue length).
var ErrOverload = megaerr.ErrOverload

// OverloadError carries the admission-control rejection detail.
type OverloadError = megaerr.OverloadError

// ParseQueryPriority converts "low", "normal", or "high" (or "") to its
// QueryPriority.
func ParseQueryPriority(s string) (QueryPriority, error) { return serve.ParsePriority(s) }

// ValidateQueryTenant reports whether s is a well-formed tenant
// identifier ("" selects the default tenant).
func ValidateQueryTenant(s string) error { return serve.ValidateTenant(s) }

// ParseTenantSpec parses one
// "name:weight[:maxrun[:maxqueue[:burst[:cachebytes]]]]" tenant spec (the
// megaserve -tenants grammar).
func ParseTenantSpec(spec string) (string, TenantConfig, error) { return serve.ParseTenantSpec(spec) }

// ServeOptions configures NewQueryService. The zero value serves with
// safe defaults: 4 concurrent runs, a 64-deep wait queue, no default
// deadlines, resuming retries per RecoverOptions defaults.
type ServeOptions struct {
	// Capacity bounds concurrently running queries (0 = 4).
	Capacity int
	// QueueDepth bounds waiting queries (0 = 64).
	QueueDepth int
	// DefaultDeadline applies to requests with Deadline == 0 (0 = none).
	DefaultDeadline time.Duration
	// DefaultQueueTimeout applies to requests with QueueTimeout == 0
	// (0 = none).
	DefaultQueueTimeout time.Duration
	// Tenants maps tenant names to their QoS contracts; tenants absent
	// from the table get DefaultTenant. Nil = single-tenant service.
	Tenants map[string]TenantConfig
	// DefaultTenant is the contract applied to unlisted tenants (zero
	// value = weight 1, no caps).
	DefaultTenant TenantConfig

	// CheckpointEvery, MaxRetries, Backoff, and Limits parameterize each
	// query's EvaluateRecover run (zero values = RecoverOptions defaults).
	// The CheckpointEvery cadence applies only when Store consumes the
	// checkpoints; without one a fault-free query encodes none and a retry
	// resumes from a checkpoint taken at the failure.
	CheckpointEvery int
	MaxRetries      int
	Backoff         time.Duration
	Limits          Limits

	// CacheBytes, when > 0, enables the cross-query sharing layer: a
	// result cache of this many bytes keyed on window content + algorithm
	// + source (hits return Float64bits-identical snapshots with no engine
	// run) and single-flight coalescing of concurrent identical queries.
	// Zero disables both. Per-tenant cache budgets come from
	// TenantConfig.CacheBytes.
	CacheBytes int64

	// Metrics, when non-nil, receives the service's gauges, counters, and
	// histograms, each query's recovery counters, and the Close-time
	// accounting audit.
	Metrics *MetricsRegistry

	// Store, when non-nil, durably spools every query's checkpoints so a
	// killed process resumes instead of recomputing. The service takes
	// ownership: Close closes the store (joining its accounting audit in
	// strict mode), Stats embeds its books, and RecoverOrphans re-admits
	// work a dead process left behind. Open one with
	// OpenCheckpointStore.
	Store *CheckpointStore
}

// NewQueryService builds a QueryService whose queries evaluate through
// EvaluateRecover on BOE schedules: checkpointed retries for transient
// faults, panics contained per query. Close(ctx) drains it; see the serve
// package for the full lifecycle.
func NewQueryService(opt ServeOptions) (*QueryService, error) {
	// The admission-layer bounds (Capacity, QueueDepth, durations) are
	// validated by serve.New; the per-query recovery knobs
	// are consumed here, so negative values must be refused here too
	// instead of silently misbehaving inside every evaluation.
	if opt.CheckpointEvery < 0 || opt.MaxRetries < 0 || opt.Backoff < 0 {
		return nil, megaerr.Invalidf(
			"mega: negative ServeOptions (CheckpointEvery=%d MaxRetries=%d Backoff=%s)",
			opt.CheckpointEvery, opt.MaxRetries, opt.Backoff)
	}
	// Durable-store identities fold the window's content fingerprint with
	// algo/source/tenant; fingerprinting iterates every edge, so memoize
	// per Window for the service's lifetime (windows are immutable).
	var fpMemo sync.Map // *Window -> uint64 fingerprint key
	storeID := func(req *QueryRequest) (CheckpointQueryID, bool) {
		if opt.Store == nil || req.Window == nil {
			return CheckpointQueryID{}, false
		}
		var key uint64
		if v, ok := fpMemo.Load(req.Window); ok {
			key = v.(uint64)
		} else {
			fp, err := engine.FingerprintBOE(req.Window)
			if err != nil {
				return CheckpointQueryID{}, false
			}
			key = fp.Key()
			fpMemo.Store(req.Window, key)
		}
		tenant := req.Tenant
		if tenant == "" {
			tenant = DefaultTenantName
		}
		return CheckpointQueryID{Win: key, Algo: uint32(req.Algo), Source: uint32(req.Source), Tenant: tenant}, true
	}
	run := func(ctx context.Context, req *QueryRequest) ([][]float64, serve.RunReport, error) {
		ropt := RecoverOptions{
			CheckpointEvery: opt.CheckpointEvery,
			MaxRetries:      opt.MaxRetries,
			Backoff:         opt.Backoff,
			Limits:          opt.Limits,
			Metrics:         opt.Metrics,
		}
		if id, ok := storeID(req); ok {
			ropt.Store = opt.Store
			ropt.StoreID = id
		}
		vals, rec, err := EvaluateRecover(ctx, req.Window, req.Algo, req.Source, BOE, ropt)
		var rep serve.RunReport
		if rec != nil {
			rep.Attempts = rec.Attempts
			rep.Resumed = rec.DurableResume
		}
		return vals, rep, err
	}
	return serve.New(serve.Config{
		Run:                 run,
		Capacity:            opt.Capacity,
		QueueDepth:          opt.QueueDepth,
		DefaultDeadline:     opt.DefaultDeadline,
		DefaultQueueTimeout: opt.DefaultQueueTimeout,
		Tenants:             opt.Tenants,
		DefaultTenant:       opt.DefaultTenant,
		Metrics:             opt.Metrics,
		CacheBytes:          opt.CacheBytes,
		Store:               opt.Store,
	})
}
