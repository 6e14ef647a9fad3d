package mega_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mega"
	"mega/internal/httpfront"
	"mega/internal/testutil"
)

// startFront stands up a real loopback HTTP front end over svc and win
// and returns its base URL plus an ordered-shutdown func.
func startFront(t *testing.T, svc *mega.QueryService, win *mega.Window, allowFaults bool) (*httpfront.Server, string, func(context.Context) error) {
	t.Helper()
	front, err := httpfront.New(httpfront.Config{
		Service:             svc,
		Window:              win,
		Metrics:             mega.NewMetricsRegistry(),
		AllowFaultInjection: allowFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- front.Serve(ln) }()
	shutdown := func(ctx context.Context) error {
		if err := front.Shutdown(ctx); err != nil {
			return err
		}
		return <-serveErr
	}
	return front, "http://" + ln.Addr().String(), shutdown
}

// TestHTTPFrontMatchesEvaluateContext is the remote twin of
// TestQueryServiceMatchesEvaluateContext: one query through the full
// HTTP stack returns bit-identical values to a direct evaluation.
func TestHTTPFrontMatchesEvaluateContext(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)
	svc, err := mega.NewQueryService(mega.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, base, shutdown := startFront(t, svc, w, false)

	want, err := mega.EvaluateContext(context.Background(), w, mega.SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := httpfront.NewClient(httpfront.ClientConfig{BaseURL: base})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), httpfront.QuerySpec{Algo: "SSSP", Source: 0})
	if err != nil {
		t.Fatalf("Query = %v", err)
	}
	identicalBits(t, "HTTP query", want, res.Values)
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatalf("shutdown = %v", err)
	}
}

// httpSoakClass mirrors serve_test.go's soakClass for the HTTP stack.
type httpSoakClass struct {
	name        string
	algo        string
	src         int64
	faultSpec   string
	deadline    time.Duration
	wantSuccess bool
	wantPanic   bool // the failure must be a containedPanic
	wantErr     error
}

// drainAcceptable reports whether err is a legitimate typed outcome for a
// query that collided with the mid-soak drain: refused admission (503 →
// ErrOverload), unwound from the queue (ErrCanceled), or a connection
// that never reached the closing listener (ErrTransient).
func drainAcceptable(err error) bool {
	return errors.Is(err, mega.ErrOverload) ||
		errors.Is(err, mega.ErrCanceled) ||
		errors.Is(err, mega.ErrTransient)
}

// TestHTTPFrontSoakChaosDrain is the front end's end-to-end proof, the
// ISSUE's acceptance soak: scores of concurrent mixed-priority queries
// over loopback HTTP with deterministic fault plans (transients, panics,
// latency spikes), a graceful drain fired mid-flight, all under
// whatever detector the test run enables. It asserts (1) no request is
// lost — every client call resolves with a result or a typed error,
// (2) service accounting is conserved and the Close-time audit holds,
// (3) every successful result is Float64bits-identical to a direct
// in-process evaluation, and (4) shutdown is clean and goroutine-free.
func TestHTTPFrontSoakChaosDrain(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)

	total := 120
	if os.Getenv("MEGA_CHAOS") != "" {
		total = 240
	}

	// Place the one-shot transient where the run will hit it.
	counter := mega.NewFaultPlan(1)
	if _, err := mega.EvaluateContext(mega.WithFaultPlan(context.Background(), counter), w, mega.SSSP, 0); err != nil {
		t.Fatal(err)
	}
	kill := counter.Visits("engine.round", -1) / 2
	if kill < 1 {
		t.Fatal("window too small to place a mid-run fault")
	}

	classes := []httpSoakClass{
		{name: "clean-seq-latency", algo: "SSSP", src: 0,
			faultSpec: "engine.round:latency=200us@2", wantSuccess: true},
		{name: "panic-contained", algo: "SSSP", src: 2,
			faultSpec: "engine.round:panic@3", wantPanic: true},
		{name: "transient-resume", algo: "SSSP", src: 0,
			faultSpec: fmt.Sprintf("engine.round:transient@%d", kill), wantSuccess: true},
		{name: "transient-exhaust", algo: "SSWP", src: 1,
			faultSpec: "engine.round:transient@1x1", wantErr: mega.ErrTransient},
		{name: "deadline-doomed", algo: "SSSP", src: 0,
			deadline: time.Nanosecond, wantErr: mega.ErrCanceled},
	}

	type key struct {
		algo string
		src  int64
	}
	baseline := map[key][][]float64{}
	for _, c := range classes {
		k := key{c.algo, c.src}
		if _, ok := baseline[k]; ok {
			continue
		}
		kind, err := mega.ParseAlgorithm(c.algo)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := mega.EvaluateContext(context.Background(), w, kind, mega.VertexID(c.src))
		if err != nil {
			t.Fatal(err)
		}
		baseline[k] = vals
	}

	svc, err := mega.NewQueryService(mega.ServeOptions{
		Capacity:        4,
		QueueDepth:      total,
		CheckpointEvery: 2,
		MaxRetries:      2,
		Backoff:         time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, base, shutdown := startFront(t, svc, w, true)

	// One shared client, no retries: every query maps to exactly one
	// typed outcome, so lost requests cannot hide behind retry loops.
	client, err := httpfront.NewClient(httpfront.ClientConfig{BaseURL: base, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		idx int
		res *httpfront.QueryResult
		err error
	}
	outcomes := make(chan outcome, total)
	var resolved atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := classes[i%len(classes)]
			spec := httpfront.QuerySpec{
				Algo:     c.algo,
				Source:   c.src,
				Priority: []string{"low", "normal", "high"}[i%3],
				Deadline: httpfront.Duration(c.deadline),
				Label:    fmt.Sprintf("%s/%d", c.name, i),
			}
			if c.faultSpec != "" {
				spec.Faults = []string{c.faultSpec}
				spec.FaultSeed = int64(i)
			}
			res, err := client.Query(context.Background(), spec)
			outcomes <- outcome{idx: i, res: res, err: err}
			resolved.Add(1)
		}(i)
	}

	// Fire the ordered drain mid-flight: in-flight HTTP requests finish
	// (their queries keep running), later arrivals are refused typed.
	drainDone := make(chan error, 1)
	go func() {
		for resolved.Load() < int64(total)/3 {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- shutdown(ctx)
	}()

	wg.Wait()
	close(outcomes)
	if err := <-drainDone; err != nil {
		t.Fatalf("mid-soak shutdown = %v (accounting audit must hold)", err)
	}
	client.Close()

	count := 0
	succeeded := 0
	drained := 0
	for o := range outcomes {
		count++
		c := classes[o.idx%len(classes)]
		if o.err == nil {
			if !c.wantSuccess {
				t.Errorf("query %d (%s) succeeded, want %v", o.idx, c.name, c.wantErr)
				continue
			}
			succeeded++
			identicalBits(t, fmt.Sprintf("query %d (%s)", o.idx, c.name),
				baseline[key{c.algo, c.src}], o.res.Values)
			continue
		}
		switch {
		case c.wantPanic && containedPanic(o.err),
			!c.wantSuccess && errors.Is(o.err, c.wantErr):
			// The class's own expected typed failure.
		case drainAcceptable(o.err):
			drained++
		default:
			t.Errorf("query %d (%s) = %v, want success, %v, or a drain-typed error",
				o.idx, c.name, o.err, c.wantErr)
		}
	}
	if count != total {
		t.Fatalf("resolved %d of %d requests — requests were lost", count, total)
	}
	if succeeded == 0 {
		t.Fatal("no query succeeded; the soak proved nothing")
	}
	t.Logf("soak: %d total, %d succeeded, %d drain-affected", total, succeeded, drained)

	// Conservation survives the crash-free drain: everything admitted
	// terminated exactly once, and the service's own audit agrees.
	st := svc.Stats()
	if st.State != "closed" {
		t.Errorf("state = %q, want closed", st.State)
	}
	if st.Admitted != st.Completed+st.Failed+st.Canceled {
		t.Errorf("conservation violated: %+v", st)
	}
	if audit := svc.Audit(); !audit.OK {
		t.Errorf("accounting audit failed: %s", audit.Detail)
	}
}

// TestHTTPFrontDrainRefusesNewQueries pins the drain contract end to end:
// once Shutdown begins, readiness flips and new submissions fail typed as
// overload/draining, never hang, never panic.
func TestHTTPFrontDrainRefusesNewQueries(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)
	svc, err := mega.NewQueryService(mega.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, base, shutdown := startFront(t, svc, w, false)

	client, err := httpfront.NewClient(httpfront.ClientConfig{BaseURL: base, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if !client.Ready(context.Background()) {
		t.Fatal("Ready = false before drain")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		t.Fatalf("shutdown = %v", err)
	}
	// The listener is gone entirely now, so the failure is a typed
	// connection-level transient — still a typed error, never a hang.
	_, err = client.Query(context.Background(), httpfront.QuerySpec{Algo: "BFS"})
	if err == nil {
		t.Fatal("Query succeeded against a shut-down server")
	}
	if !drainAcceptable(err) {
		t.Errorf("post-drain Query = %v, want a typed drain-class error", err)
	}
}
