package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/testutil"
)

// okRun is a stub RunFunc that succeeds instantly with a fixed value.
func okRun(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
	return [][]float64{{1, 2, 3}}, RunReport{Attempts: 1}, nil
}

// blockingRun returns a stub that signals each start on started, then
// blocks until release is closed (honoring ctx so drains stay leak-free),
// plus an invocation counter.
func blockingRun(started chan<- struct{}, release <-chan struct{}) (RunFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		calls.Add(1)
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return [][]float64{{0}}, RunReport{Attempts: 1}, nil
		case <-ctx.Done():
			return nil, RunReport{Attempts: 1}, megaerr.Canceled("stub run", ctx.Err())
		}
	}, &calls
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fakeClock is an injectable service clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustClose(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

func TestServeBasic(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	s, err := New(Config{Run: okRun})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit(context.Background(), Request{Label: "q0"})
	if err != nil {
		t.Fatalf("Submit = %v", err)
	}
	if len(res.Values) != 1 || res.Values[0][2] != 3 {
		t.Errorf("values = %v, want the stub's fixed result", res.Values)
	}
	if res.Report.Engine != "sequential" || res.Report.Attempts != 1 {
		t.Errorf("report = %+v, want one sequential attempt", res.Report)
	}
	mustClose(t, s)
	st := s.Stats()
	if st.State != "closed" || st.Admitted != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 admitted = 1 completed, closed", st)
	}
}

func TestServeNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("New without Run = %v, want ErrInvalidInput", err)
	}
	if _, err := New(Config{Run: okRun, Capacity: -1}); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("New with negative capacity = %v, want ErrInvalidInput", err)
	}
	s, err := New(Config{Run: okRun})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), Request{Priority: 99}); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Errorf("Submit with bogus priority = %v, want ErrInvalidInput", err)
	}
	mustClose(t, s)
}

// TestServeSaturationRejects fills capacity and the queue, then checks the
// K+Q+1'th request is rejected immediately with ErrOverload by policy —
// not blocked behind the backlog.
func TestServeSaturationRejects(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	const capacity, depth = 2, 2
	started := make(chan struct{}, capacity+depth)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{Run: run, Capacity: capacity, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < capacity+depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Request{}); err != nil {
				t.Errorf("backlogged Submit = %v, want success after release", err)
			}
		}()
	}
	for i := 0; i < capacity; i++ {
		<-started
	}
	waitFor(t, "queue to fill", func() bool { return s.Stats().Queued == depth })

	// The overflow request must fail fast, not block.
	begin := time.Now()
	_, err = s.Submit(context.Background(), Request{})
	if !errors.Is(err, megaerr.ErrOverload) {
		t.Fatalf("overflow Submit = %v, want ErrOverload", err)
	}
	var oe *megaerr.OverloadError
	if !errors.As(err, &oe) || oe.Capacity != capacity || oe.Queued != depth {
		t.Errorf("overload detail = %+v, want capacity=%d queued=%d", oe, capacity, depth)
	}
	if d := time.Since(begin); d > 2*time.Second {
		t.Errorf("rejection took %v, want immediate", d)
	}

	close(release)
	wg.Wait()
	mustClose(t, s)
	st := s.Stats()
	if st.Admitted != capacity+depth || st.Completed != capacity+depth || st.Rejected != 1 {
		t.Errorf("stats = %+v, want %d admitted+completed and 1 rejected", st, capacity+depth)
	}
}

// TestServeQueuedDeadlineFailsWithoutStarting parks a request behind a
// full slot with a short deadline and checks it fails with a canceled/
// deadline error while its RunFunc is never invoked.
func TestServeQueuedDeadlineFailsWithoutStarting(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	run, calls := blockingRun(started, release)
	s, err := New(Config{Run: run, Capacity: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Label: "blocker"})
		done <- err
	}()
	<-started

	_, err = s.Submit(context.Background(), Request{Label: "doomed", Deadline: 30 * time.Millisecond})
	if !errors.Is(err, megaerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Submit = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("RunFunc invoked %d times, want 1 — expired queued requests must never start", got)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocker = %v", err)
	}
	mustClose(t, s)
	st := s.Stats()
	if st.Canceled != 1 || st.DeadlineExceeded != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 canceled via deadline and 1 completed", st)
	}
}

// TestServeQueueTimeout checks the slot-wait-only bound independently of
// the full deadline.
func TestServeQueueTimeout(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{Run: run, Capacity: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{})
		done <- err
	}()
	<-started

	_, err = s.Submit(context.Background(), Request{QueueTimeout: 20 * time.Millisecond})
	if !errors.Is(err, megaerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queue-timeout Submit = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
}

// TestServeShedPolicy fills the queue with low-priority work and checks a
// high-priority arrival displaces the lowest-priority waiter, while an
// equal-priority arrival is rejected instead.
func TestServeShedPolicy(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{Run: run, Capacity: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}

	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Label: "blocker"})
		blockerDone <- err
	}()
	<-started

	lowErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Submit(context.Background(), Request{Priority: PriorityLow})
			lowErrs <- err
		}()
	}
	waitFor(t, "low-priority queue to fill", func() bool { return s.Stats().Queued == 2 })

	// Equal priority cannot shed: rejected.
	if _, err := s.Submit(context.Background(), Request{Priority: PriorityLow}); !errors.Is(err, megaerr.ErrOverload) {
		t.Fatalf("equal-priority overflow = %v, want ErrOverload rejection", err)
	}

	// Higher priority sheds one low waiter and takes its place.
	highDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Priority: PriorityHigh})
		highDone <- err
	}()
	shedErr := <-lowErrs
	if !errors.Is(shedErr, megaerr.ErrOverload) {
		t.Fatalf("shed waiter = %v, want ErrOverload", shedErr)
	}
	var oe *megaerr.OverloadError
	if !errors.As(shedErr, &oe) || oe.Reason != "shed by higher-priority request" {
		t.Errorf("shed detail = %+v, want the shed reason", oe)
	}

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-highDone; err != nil {
		t.Fatalf("high-priority Submit = %v, want success", err)
	}
	if err := <-lowErrs; err != nil {
		t.Fatalf("surviving low Submit = %v, want success", err)
	}
	mustClose(t, s)
	st := s.Stats()
	if st.Shed != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want 1 shed and 1 rejected", st)
	}
	if st.Admitted != st.Completed+st.Failed+st.Canceled+st.Shed {
		t.Errorf("conservation violated: %+v", st)
	}
}

// TestServePriorityOrder checks the wait queue grants high-priority
// requests before earlier-arrived low-priority ones.
func TestServePriorityOrder(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	var mu sync.Mutex
	var order []string
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	run := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		mu.Lock()
		order = append(order, req.Label)
		first := len(order) == 1
		mu.Unlock()
		if first {
			started <- struct{}{}
			<-release
		}
		return nil, RunReport{Attempts: 1}, nil
	}
	s, err := New(Config{Run: run, Capacity: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	submit := func(label string, prio Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Request{Label: label, Priority: prio}); err != nil {
				t.Errorf("Submit %s = %v", label, err)
			}
		}()
	}
	submit("blocker", PriorityNormal)
	<-started
	submit("low", PriorityLow)
	waitFor(t, "low to queue", func() bool { return s.Stats().Queued == 1 })
	submit("high", PriorityHigh)
	waitFor(t, "high to queue", func() bool { return s.Stats().Queued == 2 })

	close(release)
	wg.Wait()
	mustClose(t, s)

	want := []string{"blocker", "high", "low"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("run order = %v, want %v", order, want)
		}
	}
}

// TestServePanicContainment submits a query whose RunFunc panics and
// checks the panic surfaces as a typed WorkerPanicError while the service
// keeps serving.
func TestServePanicContainment(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	boom := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		if req.Label == "boom" {
			panic("query poisoned")
		}
		return [][]float64{{1}}, RunReport{Attempts: 1}, nil
	}
	s, err := New(Config{Run: boom})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(context.Background(), Request{Label: "boom"})
	var wp *megaerr.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("panicked Submit = %v, want WorkerPanicError", err)
	}
	if _, err := s.Submit(context.Background(), Request{Label: "fine"}); err != nil {
		t.Fatalf("Submit after contained panic = %v, want the service still serving", err)
	}
	mustClose(t, s)
	st := s.Stats()
	if st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 failed and 1 completed", st)
	}
}

// TestServeGracefulDrain checks Close stops admission, fails queued
// requests, and lets in-flight queries finish.
func TestServeGracefulDrain(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{Run: run, Capacity: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}

	runnerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Label: "running"})
		runnerDone <- err
	}()
	<-started
	queuedDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Label: "queued"})
		queuedDone <- err
	}()
	waitFor(t, "request to queue", func() bool { return s.Stats().Queued == 1 })

	closeDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closeDone <- s.Close(ctx)
	}()
	waitFor(t, "drain to start", func() bool { return s.Stats().State == "draining" })

	// Queued request fails with a canceled error; new ones are rejected.
	if err := <-queuedDone; !errors.Is(err, megaerr.ErrCanceled) {
		t.Fatalf("queued request during drain = %v, want ErrCanceled", err)
	}
	_, err = s.Submit(context.Background(), Request{})
	var oe *megaerr.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "service draining" {
		t.Fatalf("Submit during drain = %v, want draining rejection", err)
	}

	// The in-flight query finishes normally and Close returns.
	close(release)
	if err := <-runnerDone; err != nil {
		t.Fatalf("in-flight query = %v, want clean completion through drain", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close = %v", err)
	}
	st := s.Stats()
	if st.Completed != 1 || st.Canceled != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want 1 completed, 1 canceled, 1 rejected", st)
	}
	if audit := s.Audit(); !audit.OK {
		t.Errorf("accounting audit failed: %s", audit.Detail)
	}

	// Close is idempotent and Submit after Close names the closed state.
	mustClose(t, s)
	_, err = s.Submit(context.Background(), Request{})
	if !errors.As(err, &oe) || oe.Reason != "service closed" {
		t.Errorf("Submit after Close = %v, want closed rejection", err)
	}
}

// TestServeDrainCancelsStragglers checks a Close whose context expires
// cancels in-flight queries and still joins them leak-free.
func TestServeDrainCancelsStragglers(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 1)
	run, _ := blockingRun(started, nil) // release never closes: only ctx can end it
	s, err := New(Config{Run: run, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{})
		done <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if d := time.Since(begin); d > 3*time.Second {
		t.Errorf("Close took %v, want prompt straggler cancellation after the drain deadline", d)
	}
	if err := <-done; !errors.Is(err, megaerr.ErrCanceled) {
		t.Fatalf("straggler = %v, want ErrCanceled from the drain", err)
	}
	st := s.Stats()
	if st.Canceled != 1 || st.Admitted != 1 {
		t.Errorf("stats = %+v, want the straggler accounted as canceled", st)
	}
}

// TestServeMetricsWiring checks the service's instruments land in a
// caller-supplied registry, including the Close-time accounting audit.
func TestServeMetricsWiring(t *testing.T) {
	reg := metrics.New()
	s, err := New(Config{Run: okRun, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), Request{}); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, s)
	if got := reg.Counter("serve_admitted").Value(); got != 3 {
		t.Errorf("serve_admitted = %d, want 3", got)
	}
	if got := reg.Counter("serve_queries", "state", "completed").Value(); got != 3 {
		t.Errorf("serve_queries{state=completed} = %d, want 3", got)
	}
	if got := reg.Histogram("serve_run_nanos").Count(); got != 3 {
		t.Errorf("serve_run_nanos count = %d, want 3", got)
	}
	snap := reg.Snapshot()
	found := false
	for _, a := range snap.Audits {
		if a.Name == "serve.accounting" {
			found = true
			if !a.OK {
				t.Errorf("serve.accounting audit failed: %s", a.Detail)
			}
		}
	}
	if !found {
		t.Error("serve.accounting audit not recorded in the registry")
	}
}

// TestServeParsePriority pins the priority grammar used by megasim.
func TestServeParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"low", PriorityLow, true},
		{"normal", PriorityNormal, true},
		{"", PriorityNormal, true},
		{"high", PriorityHigh, true},
		{"urgent", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePriority(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("ParsePriority(%q) = %v, want ErrInvalidInput", c.in, err)
		}
	}
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		back, err := ParsePriority(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip %v = %v, %v", p, back, err)
		}
	}
}

// TestConfigRejectsNegatives: every negative bound or duration must fail
// construction with ErrInvalidInput instead of silently defaulting — a
// negative Capacity would otherwise admit nothing.
func TestConfigRejectsNegatives(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"capacity", Config{Run: okRun, Capacity: -1}},
		{"queue-depth", Config{Run: okRun, QueueDepth: -2}},
		{"default-deadline", Config{Run: okRun, DefaultDeadline: -time.Millisecond}},
		{"default-queue-timeout", Config{Run: okRun, DefaultQueueTimeout: -time.Minute}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("%s: New = %v, want ErrInvalidInput", tc.name, err)
		}
	}
	// Zero values still select the documented defaults.
	s, err := New(Config{Run: okRun})
	if err != nil {
		t.Fatalf("zero config = %v", err)
	}
	if s.cfg.Capacity != 4 || s.cfg.QueueDepth != 64 {
		t.Errorf("defaults = %+v", s.cfg)
	}
}

// TestRetryAfterHint pins the back-off formula: one median run per
// capacity-sized wave of backlog, clamped to [100ms, 30s].
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		name string
		st   Stats
		want time.Duration
	}{
		{"empty service, no history", Stats{Capacity: 4}, time.Second},
		{"no history defaults to 1s waves", Stats{Capacity: 2, Queued: 3}, 2 * time.Second},
		{"one wave of backlog", Stats{Capacity: 4, Queued: 3, RunP50: 500 * time.Millisecond}, 500 * time.Millisecond},
		{"two waves", Stats{Capacity: 4, Queued: 4, RunP50: 500 * time.Millisecond}, time.Second},
		{"fast runs clamp up", Stats{Capacity: 4, Queued: 0, RunP50: time.Microsecond}, retryAfterMin},
		{"deep backlog clamps down", Stats{Capacity: 1, Queued: 1000, RunP50: time.Second}, retryAfterMax},
		{"zero capacity treated as one", Stats{Capacity: 0, Queued: 2, RunP50: time.Second}, 3 * time.Second},
	}
	for _, tc := range cases {
		if got := RetryAfterHint(tc.st); got != tc.want {
			t.Errorf("%s: RetryAfterHint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestOverloadCarriesRetryAfter: rejections at a saturated service must
// carry a usable retry hint alongside the capacity/queue detail.
func TestOverloadCarriesRetryAfter(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{Run: run, Capacity: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			s.Submit(context.Background(), Request{})
		}()
	}
	waitFor(t, "saturation", func() bool {
		st := s.Stats()
		return st.Running == 1 && st.Queued == 1
	})
	_, err = s.Submit(context.Background(), Request{})
	var oe *megaerr.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("Submit = %v, want *OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("overload RetryAfter = %s, want > 0", oe.RetryAfter)
	}
	if oe.Capacity != 1 || oe.Queued != 1 {
		t.Errorf("overload detail = %+v", oe)
	}
	close(release)
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
	// Post-run the stats expose capacity and a median for hint callers.
	st := s.Stats()
	if st.Capacity != 1 || st.RunP50 <= 0 {
		t.Errorf("Stats = %+v, want Capacity 1 and RunP50 > 0", st)
	}
}
