package httpfront

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mega/internal/megaerr"
	"mega/internal/serve"
	"mega/internal/testutil"
)

// postQueryTenant posts spec with an explicit tenant header value (sent
// verbatim, even when malformed) and returns status plus parsed body.
func postQueryTenant(t *testing.T, ts *httptest.Server, spec QuerySpec, header []string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for _, v := range header {
		req.Header.Add(TenantHeader, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// waitForStats polls the service until cond holds.
func waitForStats(t *testing.T, s *Server, what string, cond func(serve.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.svc.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTenantHeaderValidation is the validation-hardening table: every
// malformed X-Mega-Tenant value is a 400 with wire kind "invalid" that
// decodes back to ErrInvalidInput, before any admission accounting.
func TestTenantHeaderValidation(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)

	cases := []struct {
		name   string
		header []string
		ok     bool
	}{
		{"absent header (default tenant)", nil, true},
		{"simple tenant", []string{"team-a"}, true},
		{"surrounding whitespace trimmed", []string{"  team-a  "}, true},
		{"max length", []string{strings.Repeat("x", serve.MaxTenantLen)}, true},
		{"present but empty", []string{""}, false},
		{"whitespace only", []string{"   "}, false},
		{"over length", []string{strings.Repeat("x", serve.MaxTenantLen+1)}, false},
		{"embedded tab", []string{"bad\ttenant"}, false},
		{"non-ASCII byte", []string{"bad\x80tenant"}, false},
		{"interior space", []string{"two words"}, false},
		{"colon reserved", []string{"a:b"}, false},
		{"repeated header", []string{"a", "b"}, false},
	}
	for _, tc := range cases {
		status, raw := postQueryTenant(t, ts, QuerySpec{Algo: "BFS", Source: 0}, tc.header)
		if tc.ok {
			if status != http.StatusOK {
				t.Errorf("%s: status %d (%s), want 200", tc.name, status, raw)
			}
			continue
		}
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, status, raw)
			continue
		}
		we := wireErrOf(t, raw)
		if we.Kind != kindInvalid {
			t.Errorf("%s: kind %q, want %q", tc.name, we.Kind, kindInvalid)
		}
		// Taxonomy round-trip: the decoded client error is ErrInvalidInput.
		if err := decodeError(status, we); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("%s: decoded error %v, want ErrInvalidInput", tc.name, err)
		}
	}
}

// TestTenantScoped429RoundTrip: a tenant over its own queue cap gets a
// tenant-labeled 429 whose detail survives the client round trip intact
// — reason, tenant, and a positive Retry-After.
func TestTenantScoped429RoundTrip(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	run := func(ctx context.Context, req *serve.Request) ([][]float64, serve.RunReport, error) {
		started <- struct{}{}
		select {
		case <-release:
			return [][]float64{{0}}, serve.RunReport{Attempts: 1}, nil
		case <-ctx.Done():
			return nil, serve.RunReport{Attempts: 1}, megaerr.Canceled("stub run", ctx.Err())
		}
	}
	s, ts := newTestFront(t, run, func(c *serve.Config) {
		c.Capacity = 1
		c.QueueDepth = 16
		c.Tenants = map[string]serve.TenantConfig{"capped": {Weight: 1, MaxQueued: 1}}
	}, nil)
	defer close(release)

	// Occupy the single run slot and the tenant's single queue slot.
	running := make(chan struct{})
	go func() {
		defer close(running)
		goPostQueryTenant(t, ts, QuerySpec{Algo: "BFS", Source: 0}, "capped")
	}()
	<-started
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		goPostQueryTenant(t, ts, QuerySpec{Algo: "BFS", Source: 0}, "capped")
	}()
	waitForStats(t, s, "tenant queue to fill", func(st serve.Stats) bool { return st.Queued == 1 })

	cli, err := NewClient(ClientConfig{BaseURL: ts.URL, HTTPClient: ts.Client(), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Query(context.Background(), QuerySpec{Algo: "BFS", Source: 0, Tenant: "capped"})
	var oe *megaerr.OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, megaerr.ErrOverload) {
		t.Fatalf("over-cap Query = %v, want tenant-scoped overload", err)
	}
	if oe.Reason != "tenant queue full" || oe.Tenant != "capped" {
		t.Errorf("overload detail = %+v, want tenant queue full for capped", oe)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %s, want a positive tenant-scoped hint", oe.RetryAfter)
	}

	// An untagged request is a different tenant: the global queue has
	// room, so it queues (or runs) instead of being rejected.
	status, raw := postQueryTenant(t, ts, QuerySpec{Algo: "BFS", Source: 0, QueueTimeout: Duration(50 * time.Millisecond)}, nil)
	if status != http.StatusGatewayTimeout {
		t.Errorf("default-tenant request status %d (%s), want 504 after its own queue timeout, not 429", status, raw)
	}

	release <- struct{}{}
	release <- struct{}{}
	<-running
	<-queued
}

// goPostQueryTenant posts spec with a tenant header from a goroutine.
func goPostQueryTenant(t *testing.T, ts *httptest.Server, spec QuerySpec, tenant string) {
	body, err := json.Marshal(spec)
	if err != nil {
		t.Error(err)
		return
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Error(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestStatsPerTenantOnTheWire: GET /stats (and the Client's Stats) carry
// the per-tenant breakdown so isolation is observable without /metrics.
func TestStatsPerTenantOnTheWire(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, func(c *serve.Config) {
		c.Tenants = map[string]serve.TenantConfig{"team-a": {Weight: 2}}
	}, nil)

	cli, err := NewClient(ClientConfig{BaseURL: ts.URL, HTTPClient: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Query(context.Background(), QuerySpec{Algo: "BFS", Source: 0, Tenant: "team-a"}); err != nil {
		t.Fatalf("tagged Query = %v", err)
	}
	if _, err := cli.Query(context.Background(), QuerySpec{Algo: "BFS", Source: 0}); err != nil {
		t.Fatalf("untagged Query = %v", err)
	}

	sr, err := cli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]serve.TenantStats{}
	for _, tn := range sr.Tenants {
		byName[tn.Name] = tn
	}
	a, okA := byName["team-a"]
	d, okD := byName[serve.DefaultTenantName]
	if !okA || !okD {
		t.Fatalf("per-tenant stats = %+v, want team-a and default", sr.Tenants)
	}
	if a.Completed != 1 || a.Weight != 2 {
		t.Errorf("team-a stats = %+v, want 1 completed at weight 2", a)
	}
	if d.Completed != 1 {
		t.Errorf("default stats = %+v, want 1 completed", d)
	}
	if a.RetryAfterHintMs <= 0 || d.RetryAfterHintMs <= 0 {
		t.Errorf("tenant retry hints = %d / %d, want positive", a.RetryAfterHintMs, d.RetryAfterHintMs)
	}
}
