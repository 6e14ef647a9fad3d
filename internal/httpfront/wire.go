// Package httpfront is the hardened HTTP front end for the concurrent
// query service: a thin stdlib-only protocol adapter that exposes
// serve.Service over POST /v1/query plus health, readiness, metrics, and
// stats endpoints — robustness-first.
//
// The wire contract's core promise is taxonomy fidelity: every failure
// mode the lower layers distinguish (the internal/megaerr sentinels,
// overload with retry hints, drain-in-progress, contained panics)
// survives the HTTP round trip intact. The server maps typed errors to
// status codes plus a structured JSON error body; the companion Client
// reconstructs errors that still match the original sentinels under
// errors.Is (and, for *megaerr.OverloadError, carry the original fields
// under errors.As). Remote callers therefore keep the exact in-process
// error contract.
//
// Status-code mapping (mirrored by the megasim/megaserve exit-code
// table in the README):
//
//	400 invalid      megaerr.ErrInvalidInput (bad spec, unknown fields, oversized body)
//	422 divergence   megaerr.ErrDivergence (non-monotone algorithm)
//	429 overload     megaerr.ErrOverload while serving (queue full, shed); Retry-After set
//	499 canceled     megaerr.ErrCanceled without a deadline (caller went away)
//	503 draining     admission refused or query unwound because the service is draining/closed
//	504 deadline     megaerr.ErrCanceled carrying context.DeadlineExceeded (deadline, queue timeout)
//	500 transient / checkpoint / audit / panic / internal
//
// Result values travel as little-endian IEEE-754 bits rather than JSON
// numbers: algorithm identities include ±Inf, which JSON cannot
// represent, and the contract demands Float64bits-identical values end to
// end. A 200 from POST /v1/query has two forms, picked by the request's
// Accept header (codec.go writes both in one pass, the values going from
// []float64 to the socket through a fixed-size buffer, and a 200 always
// carries Content-Length):
//
//   - JSON, the default: the object encoding/json would write for
//     {"snapshots":N,"values_b64":[...],"report":{...},"request_id":"..."},
//     byte for byte, one base64 string per snapshot. Every client that can
//     read JSON can read it, so curl and anything that did not ask for
//     more keep getting exactly what they always got.
//   - Binary, application/vnd.mega.values, only when Accept names that
//     type with a q other than 0 (a wildcard does not): a uint32 LE
//     envelope length, the envelope {"lengths":[...],"report":{...},
//     "request_id":"..."} by encoding/json, then the values raw, 8 bytes
//     each. Nothing to base64-encode or decode, and a quarter smaller.
//
// Both carry Vary: Accept. Error responses are JSON whatever Accept says.
// The Client always asks for the binary form and refuses any other 200.
// wire_ref_test.go keeps the encoding/json path as the reference the JSON
// bytes and the binary round trip are tested against.
package httpfront

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"mega/internal/megaerr"
	"mega/internal/serve"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for a request whose caller went away before the query resolved. There
// is no stdlib constant for it.
const StatusClientClosedRequest = 499

// TenantHeader carries the caller's tenant identity. It rides as a
// header, not a body field, because tenancy is transport-level identity
// (in a production deployment the auth layer would stamp it), and the
// server validates it before the body is even decoded. Absent header =
// the default tenant; a present-but-malformed value is a 400.
const TenantHeader = "X-Mega-Tenant"

// Duration is a time.Duration that marshals as a Go duration string
// ("1.5s") and unmarshals from either a duration string or an integer
// nanosecond count.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// QuerySpec is the JSON body of POST /v1/query: one evolving-graph query
// against the server's shared window.
type QuerySpec struct {
	// Algo names the query algorithm (BFS, SSSP, SSWP, SSNP, Viterbi, CC).
	Algo string `json:"algo"`
	// Source is the query's source vertex; must be in [0, vertices).
	Source int64 `json:"source"`
	// Priority is "low", "normal" (default), or "high".
	Priority string `json:"priority,omitempty"`
	// Deadline bounds the query's total time in the service (queue wait
	// plus run time); zero means the server default.
	Deadline Duration `json:"deadline,omitempty"`
	// QueueTimeout bounds only the wait for a run slot.
	QueueTimeout Duration `json:"queue_timeout,omitempty"`
	// Label tags the request in reports; defaults to the request ID.
	Label string `json:"label,omitempty"`
	// Tenant names the principal the query is accounted against (empty =
	// default tenant). It travels as the X-Mega-Tenant header rather than
	// a body field — the Client sets the header from this value, and the
	// server fills it back in from the header before validation.
	Tenant string `json:"-"`
	// Faults holds deterministic fault-injection specs in the
	// "site[#shard]:kind[=latency]@visit[xevery]" grammar. Honored only
	// when the server was started with fault injection enabled (chaos
	// testing); rejected as invalid otherwise.
	Faults []string `json:"faults,omitempty"`
	// FaultSeed seeds probabilistic fault ops (0 = server default).
	FaultSeed int64 `json:"fault_seed,omitempty"`
}

// Report mirrors serve.Report on the wire.
type Report struct {
	Engine string `json:"engine"`
	// Cache is the sharing layer's involvement: "hit", "coalesced",
	// "batched", or absent for a normal solo run.
	Cache string `json:"cache,omitempty"`
	// Seeded marks a run initialized from cached converged values.
	Seeded bool `json:"seeded,omitempty"`
	// Sources is how many distinct sources the answering engine run
	// served (absent for solo runs and cache hits).
	Sources  int `json:"sources,omitempty"`
	Attempts int `json:"attempts"`
	// Resumed marks a query that picked up a durable checkpoint a
	// previous process left behind instead of recomputing from scratch.
	Resumed   bool     `json:"resumed,omitempty"`
	QueueWait Duration `json:"queue_wait"`
	RunTime   Duration `json:"run_time"`
}

func reportFromServe(r serve.Report) Report {
	return Report{
		Engine:    r.Engine,
		Cache:     r.Cache,
		Seeded:    r.Seeded,
		Sources:   r.Sources,
		Attempts:  r.Attempts,
		Resumed:   r.Resumed,
		QueueWait: Duration(r.QueueWait),
		RunTime:   Duration(r.RunTime),
	}
}

// QueryResult is a successful remote query as the Client returns it:
// values decoded back to float64 (bit-identical to the server's), the
// execution report, and the request ID for correlation.
type QueryResult struct {
	Values    [][]float64
	Report    Report
	RequestID string
}

// StatsReply is the JSON body of GET /stats: the service's accounting
// snapshot plus the current overload back-off estimate.
type StatsReply struct {
	serve.Stats
	RetryAfterHintMs int64 `json:"retry_after_hint_ms"`
}

// healthReply is the JSON body of /healthz and /readyz.
type healthReply struct {
	OK    bool   `json:"ok"`
	State string `json:"state,omitempty"`
}

// Error kinds: the wire-level error taxonomy. The kind, not the status
// code, is the client's primary decode key — the status is transport
// semantics (retryability, caching), the kind is the megaerr taxonomy.
const (
	kindInvalid    = "invalid"
	kindOverload   = "overload"
	kindDraining   = "draining"
	kindDeadline   = "deadline"
	kindCanceled   = "canceled"
	kindDivergence = "divergence"
	kindTransient  = "transient"
	kindCheckpoint = "checkpoint"
	kindAudit      = "audit"
	kindPanic      = "panic"
	kindInternal   = "internal"
)

// wireError is the JSON error detail inside errorBody.
type wireError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Overload detail (kind "overload"/"draining"). Tenant names the
	// tenant whose quota or queue drove a tenant-scoped decision.
	Reason       string `json:"reason,omitempty"`
	Tenant       string `json:"tenant,omitempty"`
	Capacity     int    `json:"capacity,omitempty"`
	Queued       int    `json:"queued,omitempty"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	// Contained-panic detail (kind "panic").
	Shard int `json:"shard,omitempty"`
	Round int `json:"round,omitempty"`
	// RequestID correlates the failure with server-side accounting.
	RequestID string `json:"request_id,omitempty"`
}

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error wireError `json:"error"`
}

// encodeError classifies a typed error into its HTTP status and wire
// detail. draining reports whether the server is shutting down, which
// turns bare cancellations (queued requests unwound by the drain) into
// 503s so well-behaved clients fail over instead of giving up.
func encodeError(err error, draining bool) (int, wireError) {
	we := wireError{Message: err.Error()}
	var oe *megaerr.OverloadError
	var wp *megaerr.WorkerPanicError
	switch {
	case errors.Is(err, megaerr.ErrInvalidInput):
		we.Kind = kindInvalid
		return http.StatusBadRequest, we
	case errors.As(err, &oe):
		we.Reason, we.Tenant, we.Capacity, we.Queued = oe.Reason, oe.Tenant, oe.Capacity, oe.Queued
		we.RetryAfterMs = oe.RetryAfter.Milliseconds()
		if oe.Reason == "service draining" || oe.Reason == "service closed" {
			we.Kind = kindDraining
			return http.StatusServiceUnavailable, we
		}
		we.Kind = kindOverload
		return http.StatusTooManyRequests, we
	case errors.Is(err, megaerr.ErrOverload):
		we.Kind = kindOverload
		return http.StatusTooManyRequests, we
	case errors.Is(err, megaerr.ErrDivergence):
		we.Kind = kindDivergence
		return http.StatusUnprocessableEntity, we
	case errors.Is(err, megaerr.ErrCheckpoint):
		we.Kind = kindCheckpoint
		return http.StatusInternalServerError, we
	case errors.Is(err, megaerr.ErrAudit):
		we.Kind = kindAudit
		return http.StatusInternalServerError, we
	case errors.As(err, &wp):
		we.Kind = kindPanic
		we.Shard, we.Round = wp.Shard, wp.Round
		return http.StatusInternalServerError, we
	case errors.Is(err, megaerr.ErrTransient):
		we.Kind = kindTransient
		return http.StatusInternalServerError, we
	case errors.Is(err, megaerr.ErrCanceled):
		if errors.Is(err, context.DeadlineExceeded) {
			we.Kind = kindDeadline
			return http.StatusGatewayTimeout, we
		}
		we.Kind = kindCanceled
		if draining {
			return http.StatusServiceUnavailable, we
		}
		return StatusClientClosedRequest, we
	default:
		we.Kind = kindInternal
		return http.StatusInternalServerError, we
	}
}

// remoteError reconstructs a server-side typed error on the client: the
// original message verbatim plus the sentinels errors.Is must match.
type remoteError struct {
	msg       string
	sentinels []error
}

func (e *remoteError) Error() string   { return e.msg }
func (e *remoteError) Unwrap() []error { return e.sentinels }

// decodeError is encodeError's inverse: it rebuilds an error matching the
// same megaerr sentinels from the wire detail. The kind is authoritative;
// decodeStatusFallback covers responses whose body was lost or mangled.
func decodeError(status int, we wireError) error {
	msg := we.Message
	if msg == "" {
		msg = "httpfront: remote error " + http.StatusText(status)
	}
	switch we.Kind {
	case kindInvalid:
		return megaerr.Invalidf("%s", msg)
	case kindOverload, kindDraining:
		reason := we.Reason
		if reason == "" {
			reason = map[string]string{kindOverload: "queue full", kindDraining: "service draining"}[we.Kind]
		}
		return &megaerr.OverloadError{
			Reason:     reason,
			Tenant:     we.Tenant,
			Capacity:   we.Capacity,
			Queued:     we.Queued,
			RetryAfter: time.Duration(we.RetryAfterMs) * time.Millisecond,
		}
	case kindDeadline:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.DeadlineExceeded}}
	case kindCanceled:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.Canceled}}
	case kindDivergence:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrDivergence}}
	case kindTransient:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrTransient}}
	case kindCheckpoint:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCheckpoint}}
	case kindAudit:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrAudit}}
	case kindPanic:
		return &megaerr.WorkerPanicError{Shard: we.Shard, Round: we.Round, Value: msg}
	case kindInternal:
		return errors.New(msg)
	default:
		return decodeStatusFallback(status, msg)
	}
}

// decodeStatusFallback maps a bare status code (no parseable error body —
// an intermediary rewrote the response, or the body was truncated) to the
// closest sentinel, so errors.Is dispatch keeps working degraded.
func decodeStatusFallback(status int, msg string) error {
	switch status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed,
		http.StatusNotFound, http.StatusRequestEntityTooLarge:
		return megaerr.Invalidf("%s", msg)
	case http.StatusUnprocessableEntity:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrDivergence}}
	case http.StatusTooManyRequests:
		return &megaerr.OverloadError{Reason: "queue full"}
	case http.StatusServiceUnavailable:
		return &megaerr.OverloadError{Reason: "service draining"}
	case http.StatusGatewayTimeout:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.DeadlineExceeded}}
	case StatusClientClosedRequest:
		return &remoteError{msg: msg, sentinels: []error{megaerr.ErrCanceled, context.Canceled}}
	default:
		return errors.New(msg)
	}
}
