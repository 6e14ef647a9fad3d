package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mega"
)

// TestClassifyExitCodes pins the full exit-code contract — one row per
// documented code — so the mapping cannot drift from the megaerr
// sentinels without this table noticing.
func TestClassifyExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		code int
	}{
		{"success", nil, exitOK},
		{"generic", errors.New("unclassified failure"), exitGeneric},
		{"invalid", fmt.Errorf("bad flag: %w", mega.ErrInvalidInput), exitInvalid},
		{"canceled-sentinel", fmt.Errorf("stopped: %w", mega.ErrCanceled), exitCanceled},
		{"canceled-typed", &mega.CanceledError{Phase: "round 3", Err: context.Canceled}, exitCanceled},
		{"divergence", fmt.Errorf("runaway: %w", mega.ErrDivergence), exitDivergence},
		{"checkpoint", fmt.Errorf("corrupt: %w", mega.ErrCheckpoint), exitCheckpoint},
		{"audit", fmt.Errorf("violated: %w", mega.ErrAudit), exitAudit},
		{"overload-sentinel", fmt.Errorf("full: %w", mega.ErrOverload), exitOverload},
		{"overload-typed", &mega.OverloadError{Reason: "queue full", Capacity: 4, Queued: 64}, exitOverload},
		// A worker panic is contained into a generic failure unless the
		// retry loop re-types it.
		{"worker-panic", &mega.WorkerPanicError{Shard: 2, Value: "boom"}, exitGeneric},
	}
	seen := map[int]bool{}
	for _, c := range cases {
		code, _ := classify(c.err)
		if code != c.code {
			t.Errorf("classify(%s) = %d, want %d", c.name, code, c.code)
		}
		seen[c.code] = true
	}
	// Every documented code must be exercised by at least one row.
	for code := exitOK; code <= exitOverload; code++ {
		if !seen[code] {
			t.Errorf("exit code %d has no covering table row", code)
		}
	}
}

// TestParseQuerySpec pins the serve-mode query line grammar.
func TestParseQuerySpec(t *testing.T) {
	defaults := querySpec{req: mega.QueryRequest{Algo: mega.SSSP, Source: 3}}
	spec, err := parseQuerySpec(
		"algo=SSWP source=7 priority=high deadline=2s queue-timeout=150ms label=q7 tenant=team-a fault=engine.round:transient@5",
		defaults, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := spec.req
	if r.Algo != mega.SSWP || r.Source != 7 || r.Priority != mega.QueryPriorityHigh {
		t.Errorf("parsed request = %+v, want SSWP from 7 at high priority", r)
	}
	if r.Deadline != 2*time.Second || r.QueueTimeout != 150*time.Millisecond {
		t.Errorf("timeouts = %v/%v, want 2s/150ms", r.Deadline, r.QueueTimeout)
	}
	if spec.label != "q7" {
		t.Errorf("label = %q, want q7", spec.label)
	}
	if spec.plan == nil {
		t.Error("fault= did not build a plan")
	}
	if spec.req.Tenant != "team-a" {
		t.Errorf("tenant = %q, want team-a", spec.req.Tenant)
	}

	// Defaults flow through untouched fields; no tenant key means the
	// default tenant (empty), exactly as before tenancy existed.
	spec, err = parseQuerySpec("priority=low", defaults, 1)
	if err != nil {
		t.Fatal(err)
	}
	if spec.req.Algo != mega.SSSP || spec.req.Source != 3 || spec.req.Priority != mega.QueryPriorityLow {
		t.Errorf("defaulted request = %+v, want the defaults with low priority", spec.req)
	}
	if spec.req.Tenant != "" {
		t.Errorf("tenant defaulted to %q, want empty", spec.req.Tenant)
	}

	// Malformed lines are invalid input.
	for _, bad := range []string{
		"nonsense",
		"engine=par", // the keys of the deleted goroutine engine are unknown fields
		"workers=4",
		"priority=urgent",
		"deadline=fast",
		"source=-2",
		"bogus=1",
		"tenant=a:b",
		"tenant=has space",
	} {
		if _, err := parseQuerySpec(bad, defaults, 1); !errors.Is(err, mega.ErrInvalidInput) {
			t.Errorf("parseQuerySpec(%q) = %v, want ErrInvalidInput", bad, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	ferr := f()
	w.Close()
	out, rerr := io.ReadAll(r)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), ferr
}

// TestRunServeTenantBackCompat is the tenancy regression gate for the
// batch front end: a pre-tenancy queries file (no tenant keys) still
// succeeds with the single-tenant report shape — no per-tenant lines —
// while the same batch tagged with tenants earns the breakdown.
func TestRunServeTenantBackCompat(t *testing.T) {
	ev, err := mega.Evolve(
		mega.GraphSpec{Name: "T", Vertices: 64, Edges: 256, A: 0.45, B: 0.15, C: 0.15, MaxWeight: 8, Seed: 1},
		mega.EvolutionSpec{Snapshots: 3, BatchFraction: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	runBatch := func(lines string) (string, error) {
		path := filepath.Join(t.TempDir(), "queries")
		if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		return captureStdout(t, func() error {
			return runServe(context.Background(), w, mega.BFS, 0,
				evalOptions{queries: path, capacity: 2, queueDepth: 8, drain: 5 * time.Second}, nil)
		})
	}

	legacy, err := runBatch("algo=BFS source=0\nalgo=SSSP source=1 priority=high\n")
	if err != nil {
		t.Fatalf("legacy batch failed: %v", err)
	}
	if !strings.Contains(legacy, "2 ok, 0 failed") || strings.Contains(legacy, "tenant ") {
		t.Errorf("legacy output changed:\n%s", legacy)
	}

	tagged, err := runBatch("algo=BFS source=0 tenant=team-a\nalgo=SSSP source=1 tenant=team-b\n")
	if err != nil {
		t.Fatalf("tagged batch failed: %v", err)
	}
	if !strings.Contains(tagged, "tenant team-a:") || !strings.Contains(tagged, "tenant team-b:") {
		t.Errorf("tagged output missing per-tenant breakdown:\n%s", tagged)
	}
}
