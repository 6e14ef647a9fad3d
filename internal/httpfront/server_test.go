package httpfront

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mega/internal/evolve"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/serve"
	"mega/internal/testutil"
)

// testWindow builds a tiny 3-vertex 2-snapshot window.
func testWindow(t *testing.T) *evolve.Window {
	t.Helper()
	initial := graph.EdgeList{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}.Normalize()
	adds := []graph.EdgeList{{{Src: 0, Dst: 2, Weight: 1}}}
	dels := []graph.EdgeList{{{Src: 1, Dst: 2, Weight: 1}}}
	w, err := evolve.NewWindowFromParts(3, 2, initial, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// labelRun dispatches on the request label so one stub service can
// exercise every failure class: label "fail:<mode>" selects the failure,
// anything else succeeds with fixed values (including a +Inf identity).
func labelRun(ctx context.Context, req *serve.Request) ([][]float64, serve.RunReport, error) {
	rep := serve.RunReport{Attempts: 1}
	mode, ok := strings.CutPrefix(req.Label, "fail:")
	if !ok {
		return [][]float64{{0, 1, math.Inf(1)}, {0, 1, 1}}, rep, nil
	}
	switch mode {
	case "divergence":
		return nil, rep, &megaerr.DivergenceError{Engine: "parallel", Limit: "MaxRounds", Rounds: 70}
	case "transient":
		return nil, rep, megaerr.Transientf("fault engine.round visit 3")
	case "checkpoint":
		return nil, rep, megaerr.Checkpointf("checksum mismatch")
	case "audit":
		return nil, rep, megaerr.Auditf("engine.monotone", "event count went up")
	case "panic":
		panic("stub worker exploded")
	case "block":
		<-ctx.Done()
		return nil, rep, megaerr.Canceled("stub run", ctx.Err())
	default:
		return nil, rep, errors.New("unclassified failure: " + mode)
	}
}

// newTestFront builds a stub-backed Server and an httptest front for it.
// mut can adjust the serve and front configs before construction.
func newTestFront(t *testing.T, run serve.RunFunc, mutServe func(*serve.Config), mutFront func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	if run == nil {
		run = labelRun
	}
	scfg := serve.Config{Run: run}
	if mutServe != nil {
		mutServe(&scfg)
	}
	svc, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := Config{Service: svc, Window: testWindow(t), Metrics: metrics.New()}
	if mutFront != nil {
		mutFront(&fcfg)
	}
	s, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown = %v", err)
		}
	})
	return s, ts
}

// goPostQuery posts spec from a helper goroutine, where t.Fatal is off
// limits; failures surface via t.Error.
func goPostQuery(t *testing.T, ts *httptest.Server, spec QuerySpec) {
	body, err := json.Marshal(spec)
	if err != nil {
		t.Error(err)
		return
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// postQuery posts spec and returns the status, headers, and parsed body.
func postQuery(t *testing.T, ts *httptest.Server, spec QuerySpec) (int, http.Header, []byte) {
	t.Helper()
	return postQueryAccept(t, ts, spec, "")
}

// postQueryAccept is postQuery with an Accept header ("" sends none).
func postQueryAccept(t *testing.T, ts *httptest.Server, spec QuerySpec, accept string) (int, http.Header, []byte) {
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
	if accept != "" {
		req.Header.Set("Accept", accept)
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
	return resp.StatusCode, resp.Header, raw
}

func wireErrOf(t *testing.T, raw []byte) wireError {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("error body %q does not parse: %v", raw, err)
	}
	return eb.Error
}

func TestConfigValidation(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	svc, err := serve.New(serve.Config{Run: labelRun})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	win := testWindow(t)
	for name, cfg := range map[string]Config{
		"nil service":     {Window: win},
		"nil window":      {Service: svc},
		"negative body":   {Service: svc, Window: win, MaxBodyBytes: -1},
		"negative header": {Service: svc, Window: win, MaxHeaderBytes: -1},
		"negative read":   {Service: svc, Window: win, ReadTimeout: -time.Second},
		"negative write":  {Service: svc, Window: win, WriteTimeout: -time.Second},
		"negative idle":   {Service: svc, Window: win, IdleTimeout: -time.Second},
	} {
		if _, err := New(cfg); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("%s: New = %v, want ErrInvalidInput", name, err)
		}
	}
}

func TestQuerySuccessBitIdentical(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	status, hdr, raw := postQuery(t, ts, QuerySpec{Algo: "BFS", Source: 0})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, raw)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Error("response lacks X-Request-Id")
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Snapshots != 2 {
		t.Errorf("snapshots = %d, want 2", qr.Snapshots)
	}
	vals, err := decodeValues(qr.ValuesB64)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0, 1, math.Inf(1)}, {0, 1, 1}}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(vals[i][j]) != math.Float64bits(want[i][j]) {
				t.Errorf("value [%d][%d] = %x, want %x", i, j,
					math.Float64bits(vals[i][j]), math.Float64bits(want[i][j]))
			}
		}
	}
	if qr.Report.Engine != "sequential" || qr.Report.Attempts != 1 {
		t.Errorf("report = %+v", qr.Report)
	}
}

// TestQueryAcceptNegotiation: the binary form goes only to a request whose
// Accept names it with a q other than 0. Every other request gets the JSON
// form, json.Encoder's bytes as before, and both forms carry Vary: Accept.
func TestQueryAcceptNegotiation(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	want := [][]float64{{0, 1, math.Inf(1)}, {0, 1, 1}}
	for _, tc := range []struct {
		accept string
		binary bool
	}{
		{"", false},
		{"*/*", false},
		{"application/*", false},
		{"application/json", false},
		{valuesType, true},
		{"Application/Vnd.Mega.Values", true},
		{valuesType + ";q=0", false},
		{valuesType + " ; Q=0.000", false},
		{valuesType + ";q=0.5", true},
		{"application/json;q=0.9, " + valuesType, true},
		{"text/html, " + valuesType + ";q=0, */*", false},
	} {
		status, hdr, raw := postQueryAccept(t, ts, QuerySpec{Algo: "BFS"}, tc.accept)
		if status != http.StatusOK {
			t.Fatalf("Accept %q: status = %d, body %s", tc.accept, status, raw)
		}
		if got := hdr.Get("Vary"); got != "Accept" {
			t.Errorf("Accept %q: Vary = %q, want Accept", tc.accept, got)
		}
		wantType, decode := "application/json", referenceDecode
		if tc.binary {
			wantType, decode = valuesType, decodeQueryResponse
		}
		if got := hdr.Get("Content-Type"); got != wantType {
			t.Errorf("Accept %q: Content-Type = %q, want %q", tc.accept, got, wantType)
		}
		res, err := decode(raw)
		if err != nil {
			t.Fatalf("Accept %q: %v", tc.accept, err)
		}
		if err := sameResult(res, &QueryResult{Values: want, Report: res.Report, RequestID: res.RequestID}); err != nil {
			t.Errorf("Accept %q: %v", tc.accept, err)
		}
		if !tc.binary && !bytes.Equal(raw, referenceEncode(t, res.Values, res.Report, res.RequestID)) {
			t.Errorf("Accept %q: the JSON body is not json.Encoder's bytes", tc.accept)
		}
	}
}

// TestQueryErrorsStayJSON: a failure is the JSON error body whatever Accept
// asks for, so the error taxonomy has one wire form.
func TestQueryErrorsStayJSON(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	for _, tc := range []struct {
		spec   QuerySpec
		status int
		kind   string
	}{
		{QuerySpec{Algo: "NOPE"}, http.StatusBadRequest, kindInvalid},
		{QuerySpec{Algo: "BFS", Label: "fail:transient"}, http.StatusInternalServerError, kindTransient},
	} {
		status, hdr, raw := postQueryAccept(t, ts, tc.spec, valuesType)
		if status != tc.status || hdr.Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, Content-Type %q; want %d, application/json", tc.kind, status, hdr.Get("Content-Type"), tc.status)
		}
		if we := wireErrOf(t, raw); we.Kind != tc.kind {
			t.Errorf("kind = %q, want %q", we.Kind, tc.kind)
		}
	}
}

func TestQueryValidationRejections(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	cases := map[string]QuerySpec{
		"unknown algo":      {Algo: "PageRank", Source: 0},
		"source too big":    {Algo: "BFS", Source: 99},
		"source negative":   {Algo: "BFS", Source: -1},
		"bad priority":      {Algo: "BFS", Priority: "urgent"},
		"negative deadline": {Algo: "BFS", Deadline: Duration(-time.Second)},
		"faults disabled":   {Algo: "BFS", Faults: []string{"engine.round:transient@1"}},
	}
	for name, spec := range cases {
		status, _, raw := postQuery(t, ts, spec)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, status, raw)
			continue
		}
		if we := wireErrOf(t, raw); we.Kind != kindInvalid {
			t.Errorf("%s: kind = %q, want invalid", name, we.Kind)
		}
	}

	// Malformed JSON and unknown fields are 400s too — which is all the
	// deleted goroutine engine's engine/workers keys are now.
	for name, body := range map[string]string{
		"not json":      "{{{",
		"unknown field": `{"algo":"BFS","bogus":1}`,
		"engine key":    `{"algo":"BFS","engine":"par"}`,
		"workers key":   `{"algo":"BFS","workers":4}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, resp.StatusCode, raw)
			continue
		}
		if we := wireErrOf(t, raw); we.Kind != kindInvalid {
			t.Errorf("%s: kind = %q, want invalid", name, we.Kind)
		}
	}

	// GET on the query route is a 405 from the method-pattern mux.
	resp, err := ts.Client().Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query = %d, want 405", resp.StatusCode)
	}
}

func TestQueryBodyTooLarge(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, func(c *Config) { c.MaxBodyBytes = 256 })
	big := QuerySpec{Algo: "BFS", Label: strings.Repeat("x", 1024)}
	status, _, raw := postQuery(t, ts, big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", status, raw)
	}
	if we := wireErrOf(t, raw); we.Kind != kindInvalid {
		t.Errorf("kind = %q, want invalid", we.Kind)
	}
}

func TestQueryFailureStatusMapping(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	cases := []struct {
		label      string
		wantStatus int
		wantKind   string
	}{
		{"fail:divergence", http.StatusUnprocessableEntity, kindDivergence},
		{"fail:transient", http.StatusInternalServerError, kindTransient},
		{"fail:checkpoint", http.StatusInternalServerError, kindCheckpoint},
		{"fail:audit", http.StatusInternalServerError, kindAudit},
		{"fail:panic", http.StatusInternalServerError, kindPanic},
		{"fail:other", http.StatusInternalServerError, kindInternal},
	}
	for _, tc := range cases {
		status, _, raw := postQuery(t, ts, QuerySpec{Algo: "BFS", Label: tc.label})
		if status != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.label, status, tc.wantStatus, raw)
			continue
		}
		if we := wireErrOf(t, raw); we.Kind != tc.wantKind {
			t.Errorf("%s: kind = %q, want %q", tc.label, we.Kind, tc.wantKind)
		}
	}
}

func TestQueryDeadline504(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	status, _, raw := postQuery(t, ts, QuerySpec{
		Algo: "BFS", Label: "fail:block", Deadline: Duration(20 * time.Millisecond),
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", status, raw)
	}
	if we := wireErrOf(t, raw); we.Kind != kindDeadline {
		t.Errorf("kind = %q, want deadline", we.Kind)
	}
}

func TestOverload429WithRetryAfter(t *testing.T) {
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
	srv, ts := newTestFront(t, run, func(c *serve.Config) {
		c.Capacity = 1
		c.QueueDepth = 1
	}, nil)
	defer close(release)

	// Occupy the single run slot...
	running := make(chan struct{})
	go func() {
		defer close(running)
		goPostQuery(t, ts, QuerySpec{Algo: "BFS"})
	}()
	<-started
	// ...and the single queue slot.
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		goPostQuery(t, ts, QuerySpec{Algo: "BFS"})
	}()
	// Wait until the service reports the queue is full.
	deadline := time.Now().Add(5 * time.Second)
	for srv.svc.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	status, hdr, raw := postQuery(t, ts, QuerySpec{Algo: "BFS"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", status, raw)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second hint", ra)
	}
	we := wireErrOf(t, raw)
	if we.Kind != kindOverload {
		t.Errorf("kind = %q, want overload", we.Kind)
	}
	if we.Capacity != 1 || we.Queued != 1 || we.RetryAfterMs <= 0 {
		t.Errorf("overload detail = %+v, want capacity 1, queued 1, positive retry hint", we)
	}
	release <- struct{}{}
	release <- struct{}{}
	<-running
	<-queued
}

func TestHealthReadyAndDrainFlip(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	srv, ts := newTestFront(t, nil, nil, nil)

	get := func(path string) (int, healthReply) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr healthReply
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}

	if status, hr := get("/healthz"); status != http.StatusOK || !hr.OK {
		t.Errorf("healthz = %d %+v", status, hr)
	}
	if status, hr := get("/readyz"); status != http.StatusOK || !hr.OK || hr.State != "serving" {
		t.Errorf("readyz = %d %+v", status, hr)
	}

	// Readiness must flip the moment the drain begins — before the HTTP
	// layer or the service finish shutting down.
	srv.draining.Store(true)
	if status, hr := get("/readyz"); status != http.StatusServiceUnavailable || hr.OK || hr.State != "draining" {
		t.Errorf("draining readyz = %d %+v", status, hr)
	}
	if status, hr := get("/healthz"); status != http.StatusOK || !hr.OK {
		t.Errorf("draining healthz = %d %+v, liveness must not flip on drain", status, hr)
	}
	srv.draining.Store(false)
}

func TestDrainRejects503(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	svc, err := serve.New(serve.Config{Run: labelRun})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Service: svc, Window: testWindow(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	// The httptest front is still up (it owns its own http.Server); the
	// service behind it is closed, so submissions map to 503 draining.
	status, hdr, raw := postQuery(t, ts, QuerySpec{Algo: "BFS"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", status, raw)
	}
	if we := wireErrOf(t, raw); we.Kind != kindDraining {
		t.Errorf("kind = %q, want draining", we.Kind)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 lacks Retry-After")
	}
	if s.Shutdown(ctx) != nil {
		t.Error("second Shutdown should be a clean no-op")
	}
}

func TestHandlerPanicRecovery(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	srv, _ := newTestFront(t, nil, nil, nil)
	boom := srv.middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	we := wireErrOf(t, rec.Body.Bytes())
	if we.Kind != kindPanic || !strings.Contains(we.Message, "handler exploded") {
		t.Errorf("wire error = %+v", we)
	}
	snap := srv.reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "http_handler_panics" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("http_handler_panics counter not incremented")
	}
}

func TestMetricsAndStatsEndpoints(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, nil, nil)
	if status, _, raw := postQuery(t, ts, QuerySpec{Algo: "SSSP", Source: 1}); status != http.StatusOK {
		t.Fatalf("warm-up query = %d (body %s)", status, raw)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := metrics.ValidateSnapshotJSON(raw,
		"http_requests", "http_inflight_requests", "http_request_nanos"); err != nil {
		t.Errorf("metrics snapshot: %v", err)
	}

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsReply
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.State != "serving" || sr.Admitted < 1 || sr.Completed < 1 {
		t.Errorf("stats = %+v", sr.Stats)
	}
	if sr.RetryAfterHintMs <= 0 {
		t.Errorf("retry_after_hint_ms = %d, want positive", sr.RetryAfterHintMs)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	var gotLabel atomic.Value
	run := func(ctx context.Context, req *serve.Request) ([][]float64, serve.RunReport, error) {
		gotLabel.Store(req.Label)
		return [][]float64{{0}}, serve.RunReport{Attempts: 1}, nil
	}
	_, ts := newTestFront(t, run, nil, nil)

	body, _ := json.Marshal(QuerySpec{Algo: "BFS"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-7")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") != "caller-7" {
		t.Errorf("echoed id = %q, want caller-7", resp.Header.Get("X-Request-Id"))
	}
	if qr.RequestID != "caller-7" {
		t.Errorf("body id = %q, want caller-7", qr.RequestID)
	}
	// With no explicit label, the request ID becomes the service label so
	// server-side reports correlate with client-side correlation IDs.
	if gotLabel.Load() != "caller-7" {
		t.Errorf("service label = %q, want caller-7", gotLabel.Load())
	}
}

func TestFaultInjectionGate(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	// With injection enabled, a fault spec reaches the run's context and
	// the injected transient error surfaces typed.
	run := func(ctx context.Context, req *serve.Request) ([][]float64, serve.RunReport, error) {
		return [][]float64{{0}}, serve.RunReport{Attempts: 1}, nil
	}
	_, ts := newTestFront(t, run, nil, func(c *Config) { c.AllowFaultInjection = true })
	status, _, raw := postQuery(t, ts, QuerySpec{Algo: "BFS", Faults: []string{"engine.round:transient@1"}})
	if status != http.StatusOK {
		t.Fatalf("fault-accepting query = %d (body %s)", status, raw)
	}
	// A malformed fault spec is invalid input even when injection is on.
	status, _, raw = postQuery(t, ts, QuerySpec{Algo: "BFS", Faults: []string{"not a fault"}})
	if status != http.StatusBadRequest {
		t.Errorf("bad fault spec = %d, want 400 (body %s)", status, raw)
	}
}

// TestServerCacheStatusOnWire checks the sharing layer's metadata crosses
// the HTTP boundary: a repeated query reports cache="hit" in its response
// and the /stats reply carries the cache accounting block.
func TestServerCacheStatusOnWire(t *testing.T) {
	defer testutil.NoGoroutineLeak(t)
	_, ts := newTestFront(t, nil, func(c *serve.Config) { c.CacheBytes = 1 << 20 }, nil)

	spec := QuerySpec{Algo: "BFS", Source: 0}
	var first queryResponse
	status, _, raw := postQuery(t, ts, spec)
	if status != http.StatusOK {
		t.Fatalf("first query status = %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Report.Cache != "" {
		t.Errorf("first report = %+v, want no cache annotation", first.Report)
	}

	var second queryResponse
	status, _, raw = postQuery(t, ts, spec)
	if status != http.StatusOK {
		t.Fatalf("second query status = %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if second.Report.Engine != "cache" || second.Report.Cache != "hit" {
		t.Errorf("second report = %+v, want engine=cache cache=hit", second.Report)
	}
	wantVals, err := decodeValues(first.ValuesB64)
	if err != nil {
		t.Fatal(err)
	}
	gotVals, err := decodeValues(second.ValuesB64)
	if err != nil {
		t.Fatal(err)
	}
	for s := range wantVals {
		for v := range wantVals[s] {
			if math.Float64bits(wantVals[s][v]) != math.Float64bits(gotVals[s][v]) {
				t.Fatalf("snapshot %d vertex %d: cache hit bits differ over the wire", s, v)
			}
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.EngineRuns != 1 {
		t.Errorf("stats = hits %d / runs %d, want 1 / 1", st.CacheHits, st.EngineRuns)
	}
	if st.Cache.MaxBytes == 0 || st.Cache.Lookups != 2 || st.Cache.Hits != 1 {
		t.Errorf("cache stats = %+v, want an enabled cache with 2 lookups = 1 hit + 1 miss", st.Cache)
	}
}

// TestResponseCountersPerStatus pins the middleware's per-status counter
// cache: repeated statuses keep landing in the same http_responses{status}
// series the registry exposes, and the write-error family is registered
// (at zero) from the start.
func TestResponseCountersPerStatus(t *testing.T) {
	s, ts := newTestFront(t, nil, nil, nil)
	for i := 0; i < 3; i++ {
		if status, _, raw := postQuery(t, ts, QuerySpec{Algo: "SSSP", Source: 1}); status != http.StatusOK {
			t.Fatalf("query %d = %d (body %s)", i, status, raw)
		}
	}
	for i := 0; i < 2; i++ {
		if status, _, _ := postQuery(t, ts, QuerySpec{Algo: "NOPE"}); status != http.StatusBadRequest {
			t.Fatalf("bad query %d = %d, want 400", i, status)
		}
	}
	for status, want := range map[string]int64{"200": 3, "400": 2} {
		if got := s.reg.Counter("http_responses", "status", status).Value(); got != want {
			t.Errorf("http_responses{status=%s} = %d, want %d", status, got, want)
		}
	}
	var snap bytes.Buffer
	if err := s.reg.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidateSnapshotJSON(snap.Bytes(), "http_responses", "http_response_write_errors"); err != nil {
		t.Errorf("metrics snapshot: %v", err)
	}
}
