package mega

import (
	"mega/internal/megaerr"
	"mega/internal/metrics"
)

// Observability surface (internal/metrics re-exported). A MetricsRegistry
// collects the counters, gauges, and histograms every layer of the
// reproduction emits — engine queue traffic, cache and DRAM-channel
// behaviour, recovery retries — together with the named invariant audits
// (conservation laws) those layers check at op and run boundaries.
// Snapshots are deterministic and JSON-serializable; see `megasim -metrics`
// and DESIGN.md §10 for the metric taxonomy.
type (
	// MetricsRegistry holds one run's instruments and audits.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time JSON-serializable registry view.
	MetricsSnapshot = metrics.Snapshot
	// AuditResult is the recorded outcome of one invariant audit.
	AuditResult = metrics.AuditResult
	// AuditError carries the name and detail of a violated invariant.
	AuditError = megaerr.AuditError
)

// ErrAudit marks invariant-audit violations; test for it with
// errors.Is(err, mega.ErrAudit).
var ErrAudit = megaerr.ErrAudit

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// ValidateMetricsJSON parses data as a metrics snapshot and checks that
// every required family is present and no recorded audit failed. It
// returns an ErrInvalidInput error for malformed or incomplete snapshots
// and an ErrAudit error for failed audits.
func ValidateMetricsJSON(data []byte, requiredFamilies ...string) error {
	return metrics.ValidateSnapshotJSON(data, requiredFamilies...)
}

// StrictAudits reports whether invariant audits are running always-on
// (true inside `go test` binaries and under MEGA_CHAOS/MEGA_AUDIT); in
// strict mode a violated invariant fails the run with an ErrAudit error
// instead of only being recorded in snapshots.
func StrictAudits() bool { return metrics.Strict() }
