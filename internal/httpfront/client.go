package httpfront

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mega/internal/megaerr"
	"mega/internal/metrics"
)

// Client retry policy defaults: a handful of capped, half-jittered
// exponential back-offs, never exceeding the caller's context deadline.
const (
	defaultMaxRetries  = 3
	defaultBaseBackoff = 100 * time.Millisecond
	defaultMaxBackoff  = 5 * time.Second
	maxErrorBodyBytes  = 1 << 20
	maxResponseBytes   = 1 << 30 // a query result larger than this is refused
	bodyTrustBytes     = 1 << 20 // how far a Content-Length is believed before any byte arrived
	bodyTrustFactor    = 8       // and afterwards, as a multiple of the bytes that did
)

// ClientConfig parameterizes a Client. Only BaseURL is required.
type ClientConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient, when non-nil, replaces http.DefaultTransport-backed
	// default (tests inject httptest clients here).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (0 = 3;
	// negative disables retries).
	MaxRetries int
	// BaseBackoff is the first retry's back-off ceiling (0 = 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential back-off (0 = 5s).
	MaxBackoff time.Duration
	// Metrics, when non-nil, receives the client's attempt/retry counters.
	Metrics *metrics.Registry
}

// Client is the resilient companion to Server: it reconstructs the
// megaerr taxonomy from wire errors, retries only what is safe to retry
// (429 overload, 503 draining, transport-level connection failures) with
// capped jittered back-off honoring Retry-After, and respects the
// caller's context deadline throughout. Safe for concurrent use.
type Client struct {
	cfg  ClientConfig
	hc   *http.Client
	base string

	// sleep and jitter are swappable for deterministic tests.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func(d time.Duration) time.Duration

	cAttempts *metrics.Counter
	cRetries  *metrics.Counter
	seq       atomic.Uint64
}

// NewClient validates cfg and builds a Client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, megaerr.Invalidf("httpfront: ClientConfig.BaseURL is required")
	}
	if cfg.BaseBackoff < 0 || cfg.MaxBackoff < 0 {
		return nil, megaerr.Invalidf("httpfront: negative backoff (base %s, max %s)",
			cfg.BaseBackoff, cfg.MaxBackoff)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = defaultMaxRetries
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = defaultBaseBackoff
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = defaultMaxBackoff
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	// Each client seeds its jitter RNG uniquely: a fixed seed gives every
	// client in every process the same back-off schedule, so under
	// overload their retries arrive in synchronized waves — exactly the
	// storm jitter exists to break. Wall clock XOR a process-wide counter
	// keeps seeds distinct even for clients built in the same nanosecond;
	// tests needing determinism inject c.jitter instead.
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(clientSeed.Add(1))<<32))
	var mu sync.Mutex
	return &Client{
		cfg:  cfg,
		hc:   hc,
		base: trimSlash(cfg.BaseURL),
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
		jitter: func(d time.Duration) time.Duration {
			if d <= 1 {
				return d
			}
			mu.Lock()
			defer mu.Unlock()
			// Half-jitter: [d/2, d). Keeps the expected back-off meaningful
			// while decorrelating synchronized retry storms.
			return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
		},
		cAttempts: reg.Counter("http_client_attempts"),
		cRetries:  reg.Counter("http_client_retries"),
	}, nil
}

// clientSeed decorrelates the jitter RNG seeds of clients created in the
// same process (see NewClient).
var clientSeed atomic.Uint64

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// Close releases idle connections so goroutine-leak checks stay clean.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Query submits spec and returns the decoded result. Failures are typed:
// the returned error matches the same megaerr sentinels the server-side
// Submit would have returned (errors.Is), and overload failures carry
// the original *megaerr.OverloadError fields (errors.As). Only overload
// (429), drain (503), and connection-level failures are retried; the
// final attempt's typed error is returned when retries run out.
func (c *Client) Query(ctx context.Context, spec QuerySpec) (*QueryResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, megaerr.Invalidf("httpfront: spec does not marshal: %v", err)
	}
	reqID := "client-" + strconv.FormatUint(c.seq.Add(1), 10)

	var lastErr error
	for attempt := 0; ; attempt++ {
		c.cAttempts.Inc()
		res, retryable, err := c.queryOnce(ctx, body, spec.Tenant, reqID, attempt)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !retryable || attempt >= c.cfg.MaxRetries {
			return nil, err
		}
		if serr := c.backoff(ctx, attempt, err); serr != nil {
			// The context expired while backing off: the typed error from
			// the last attempt is more informative than a bare ctx error.
			return nil, lastErr
		}
		c.cRetries.Inc()
	}
}

// backoff sleeps the jittered exponential delay for attempt, raised to
// any server-provided Retry-After hint, capped at MaxBackoff, and cut
// short by ctx.
func (c *Client) backoff(ctx context.Context, attempt int, err error) error {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d <= 0 || d > c.cfg.MaxBackoff { // <<-overflow guard
		d = c.cfg.MaxBackoff
	}
	d = c.jitter(d)
	var oe *megaerr.OverloadError
	if errors.As(err, &oe) {
		if oe.RetryNow {
			// The server explicitly said retry immediately (Retry-After: 0);
			// the retry budget still bounds the loop.
			return nil
		}
		if oe.RetryAfter > d {
			d = oe.RetryAfter
		}
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		// Sleeping past the deadline cannot succeed; fail fast with the
		// typed error instead of burning the remaining budget.
		return context.DeadlineExceeded
	}
	return c.sleep(ctx, d)
}

// queryOnce performs one HTTP attempt. retryable reports whether the
// failure class is safe to retry.
func (c *Client) queryOnce(ctx context.Context, body []byte, tenant, reqID string, attempt int) (*QueryResult, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, false, megaerr.Invalidf("httpfront: building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", valuesType)
	req.Header.Set("X-Request-Id", reqID+"-a"+strconv.Itoa(attempt))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// Transport failure. Context cancellation/deadline surfaces inside
		// the *url.Error — that is the caller's decision, never retried.
		if cerr := ctx.Err(); cerr != nil {
			return nil, false, megaerr.Canceled("httpfront client request", cerr)
		}
		return nil, true, megaerr.MarkTransient("httpfront: request", err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBodyBytes))
		resp.Body.Close()
	}()

	if resp.StatusCode == http.StatusOK {
		ct := resp.Header.Get("Content-Type")
		if mt, _, _ := mime.ParseMediaType(ct); mt != valuesType {
			return nil, false, megaerr.Invalidf("httpfront: bad response: a 200 of type %q, not %s", ct, valuesType)
		}
		raw, rerr := readBody(resp.Body, resp.ContentLength)
		if rerr != nil {
			return nil, false, rerr
		}
		res, derr := decodeQueryResponse(raw)
		return res, false, derr
	}

	rerr := c.decodeHTTPError(resp)
	retryable := resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable
	return nil, retryable, rerr
}

// readBody reads a query result's body into one buffer. claimed is the
// response's Content-Length, negative when there is none (chunked, or a
// proxy dropped it). The header is only a hint: it sizes the first
// allocation up to bodyTrustBytes, and each later one up to
// bodyTrustFactor times the bytes that have actually arrived (without a
// header the buffer doubles), so what a response makes the client
// allocate is bounded by what it sent, not by what it claimed. A body
// that ends early, fails mid-read, or runs past maxResponseBytes is
// ErrInvalidInput.
func readBody(r io.Reader, claimed int64) ([]byte, error) {
	// One spare byte, so a body of exactly the claimed length reaches
	// io.EOF without growing.
	size := int64(bytes.MinRead)
	if claimed >= 0 {
		size = min(claimed, bodyTrustBytes) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, megaerr.Invalidf("httpfront: bad response body: after %d bytes: %v", len(buf), err)
		}
		if len(buf) == cap(buf) {
			if len(buf) > maxResponseBytes {
				return nil, megaerr.Invalidf("httpfront: bad response body: longer than %d bytes", maxResponseBytes)
			}
			have := int64(cap(buf))
			next := 2 * have
			if claimed >= have {
				next = min(claimed+1, bodyTrustFactor*have)
			}
			buf = append(make([]byte, 0, min(next, maxResponseBytes+1)), buf...)
		}
	}
}

// decodeHTTPError turns a non-2xx response into its typed error,
// folding the Retry-After header into the overload detail when the body
// did not already carry a hint.
func (c *Client) decodeHTTPError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
	var eb errorBody
	var err error
	if jerr := json.Unmarshal(raw, &eb); jerr != nil || eb.Error.Kind == "" {
		msg := string(bytes.TrimSpace(raw))
		if msg == "" {
			msg = fmt.Sprintf("httpfront: remote error %d %s", resp.StatusCode, http.StatusText(resp.StatusCode))
		}
		err = decodeStatusFallback(resp.StatusCode, msg)
	} else {
		err = decodeError(resp.StatusCode, eb.Error)
	}
	var oe *megaerr.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter == 0 {
		if d, ok := retryAfterHeader(resp.Header.Get("Retry-After"), time.Now()); ok {
			if d > 0 {
				oe.RetryAfter = d
			} else {
				oe.RetryNow = true
			}
		}
	}
	return err
}

// retryAfterHeader parses a Retry-After header value, which RFC 7231
// allows in two forms: non-negative delay-seconds, or an HTTP-date. ok
// distinguishes an explicit "retry now" (0, true — delay-seconds 0 or a
// date already past) from an absent or malformed header (0, false);
// callers must not collapse the two, since an explicit zero waives the
// back-off while no header leaves it in place.
func retryAfterHeader(h string, now time.Time) (time.Duration, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// getJSON fetches path and decodes the response into out, returning the
// typed error for non-2xx statuses. Auxiliary endpoints do not retry.
func (c *Client) getJSON(ctx context.Context, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, megaerr.Invalidf("httpfront: building request: %v", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, megaerr.Canceled("httpfront client request", cerr)
		}
		return 0, megaerr.MarkTransient("httpfront: request", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBodyBytes))
	if err != nil {
		return resp.StatusCode, megaerr.MarkTransient("httpfront: reading response", err)
	}
	if out != nil {
		if derr := json.Unmarshal(raw, out); derr != nil {
			return resp.StatusCode, megaerr.Invalidf("httpfront: bad %s body: %v", path, derr)
		}
	}
	return resp.StatusCode, nil
}

// Stats fetches the server's accounting snapshot and back-off hint.
func (c *Client) Stats(ctx context.Context) (*StatsReply, error) {
	var sr StatsReply
	status, err := c.getJSON(ctx, "/stats", &sr)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, decodeStatusFallback(status, "httpfront: /stats returned "+strconv.Itoa(status))
	}
	return &sr, nil
}

// Healthy reports process liveness (/healthz).
func (c *Client) Healthy(ctx context.Context) bool {
	var hr healthReply
	status, err := c.getJSON(ctx, "/healthz", &hr)
	return err == nil && status == http.StatusOK && hr.OK
}

// Ready reports admission readiness (/readyz): false the moment the
// server begins draining.
func (c *Client) Ready(ctx context.Context) bool {
	var hr healthReply
	status, err := c.getJSON(ctx, "/readyz", &hr)
	return err == nil && status == http.StatusOK && hr.OK
}

// MetricsSnapshot fetches the server's metrics registry snapshot.
func (c *Client) MetricsSnapshot(ctx context.Context) (*metrics.Snapshot, error) {
	var snap metrics.Snapshot
	status, err := c.getJSON(ctx, "/metrics", &snap)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, decodeStatusFallback(status, "httpfront: /metrics returned "+strconv.Itoa(status))
	}
	return &snap, nil
}
