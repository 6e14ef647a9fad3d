package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/fault"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/testutil"
)

// shareWindow builds a tiny real window: the sharing layer keys on window
// content, so stub-run tests still need a fingerprintable window.
func shareWindow(t *testing.T) *evolve.Window {
	t.Helper()
	initial := graph.EdgeList{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2},
	}.Normalize()
	w, err := evolve.NewWindowFromParts(4, 2,
		initial, []graph.EdgeList{{{Src: 2, Dst: 3, Weight: 1}}}, []graph.EdgeList{nil})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// overlapWindow builds a window sharing shareWindow's CommonGraph and
// first batch history but diverging afterwards — the stable-vertex
// seeding case.
func overlapWindow(t *testing.T) *evolve.Window {
	t.Helper()
	initial := graph.EdgeList{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2},
	}.Normalize()
	w, err := evolve.NewWindowFromParts(4, 3,
		initial,
		[]graph.EdgeList{{{Src: 2, Dst: 3, Weight: 1}}, {{Src: 3, Dst: 0, Weight: 4}}},
		[]graph.EdgeList{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// bitRun is a stub whose fixed values include awkward bit patterns, so
// cache round-trips are checked for Float64bits fidelity, not mere
// float equality.
func bitRun() (RunFunc, *atomic.Int64) {
	var calls atomic.Int64
	vals := [][]float64{{0, math.Inf(1), math.Float64frombits(0x3ff0000000000001), -0.0}}
	return func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		calls.Add(1)
		return vals, RunReport{Attempts: 1, Base: []float64{1, 2, 3, 4}}, nil
	}, &calls
}

func sameBits(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d snapshots, want %d", label, len(got), len(want))
	}
	for s := range want {
		for v := range want[s] {
			if math.Float64bits(want[s][v]) != math.Float64bits(got[s][v]) {
				t.Fatalf("%s: snapshot %d vertex %d: bits differ (%v vs %v)",
					label, s, v, got[s][v], want[s][v])
			}
		}
	}
}

// TestShareIdenticalBurstSingleEngineRun pins the lookup/join atomicity:
// any number of concurrent identical queries resolve through exactly one
// engine run under every interleaving — each either joins the live
// flight or, once the flight has resolved (insert happens before the
// flight unmaps), hits the cache. Before lookup and join shared one
// critical section, a goroutine parked between its miss and its join
// could lead a duplicate run.
func TestShareIdenticalBurstSingleEngineRun(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	var calls atomic.Int64
	run := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		calls.Add(1)
		time.Sleep(200 * time.Microsecond)
		return [][]float64{{1, 2, 3, 4}}, RunReport{Attempts: 1}, nil
	}
	s, err := New(Config{Capacity: 4, Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(context.Background(), Request{Window: w, Algo: algo.SSSP, Source: 2})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit %d = %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("engine ran %d times for %d identical queries, want exactly 1", got, n)
	}
	st := s.Stats()
	if st.EngineRuns != 1 || st.Admitted != n || st.Completed != n {
		t.Errorf("stats = %+v, want %d admitted = %d completed over 1 run", st, n, n)
	}
	if st.CacheHits+st.CoalescedQueries != n-1 {
		t.Errorf("hits %d + coalesced %d = %d, want %d (every non-leader shares)",
			st.CacheHits, st.CoalescedQueries, st.CacheHits+st.CoalescedQueries, n-1)
	}
	mustClose(t, s)
}

// TestShareMixedSourceBurstPerSourceSingleRun pins per-source flight
// identity: concurrent queries for two sources of one window resolve in
// exactly one engine run per source, under every interleaving (batching
// is off — no RunMulti — so the sources cannot merge into one run).
// Before flights were keyed per source, whichever source won the leader
// race forced every query for the other source to run solo and uncached.
func TestShareMixedSourceBurstPerSourceSingleRun(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	var calls atomic.Int64
	run := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		calls.Add(1)
		time.Sleep(200 * time.Microsecond)
		return [][]float64{{float64(req.Source), 1, 2, 3}}, RunReport{Attempts: 1}, nil
	}
	s, err := New(Config{Capacity: 4, Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := graph.VertexID(0)
			if i%4 == 3 {
				src = 3
			}
			_, errs[i] = s.Submit(context.Background(), Request{Window: w, Algo: algo.SSSP, Source: src})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit %d = %v", i, err)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("engine ran %d times for 2 distinct sources, want exactly 2", got)
	}
	st := s.Stats()
	if st.EngineRuns != 2 || st.Admitted != n || st.Completed != n {
		t.Errorf("stats = %+v, want %d admitted = %d completed over 2 runs", st, n, n)
	}
	if st.CacheHits+st.CoalescedQueries != n-2 {
		t.Errorf("hits %d + coalesced %d = %d, want %d (every non-leader shares)",
			st.CacheHits, st.CoalescedQueries, st.CacheHits+st.CoalescedQueries, n-2)
	}
	mustClose(t, s)
}

// TestShareCacheHitBitIdentical is the core cache contract: a repeated
// identical query is served from the cache with no engine run, and the
// hit is Float64bits-identical to the original result.
func TestShareCacheHitBitIdentical(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	run, calls := bitRun()
	s, err := New(Config{Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	req := Request{Window: w, Algo: algo.SSSP, Source: 1}

	first, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("first Submit = %v", err)
	}
	if first.Report.Cache != "" || first.Report.Engine == "cache" {
		t.Errorf("first report = %+v, want a real engine run", first.Report)
	}
	second, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("second Submit = %v", err)
	}
	if second.Report.Engine != "cache" || second.Report.Cache != "hit" {
		t.Errorf("second report = %+v, want a cache hit", second.Report)
	}
	sameBits(t, "cache hit", first.Values, second.Values)
	if n := calls.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1 (the hit must not run)", n)
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.EngineRuns != 1 || st.Admitted != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 2 admitted = 2 completed with 1 hit over 1 run", st)
	}
	if st.Cache.Lookups != 2 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 2 lookups = 1 hit + 1 miss", st.Cache)
	}
	mustClose(t, s)
}

// TestShareCoalescedFollower checks a second identical query arriving
// mid-run attaches to the in-flight run instead of starting its own.
func TestShareCoalescedFollower(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	run, calls := blockingRun(started, release)
	s, err := New(Config{Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	req := Request{Window: w, Algo: algo.SSSP, Source: 0}

	type out struct {
		res *Result
		err error
	}
	lead := make(chan out, 1)
	go func() {
		res, err := s.Submit(context.Background(), req)
		lead <- out{res, err}
	}()
	<-started // leader's engine run is in flight

	follow := make(chan out, 1)
	go func() {
		res, err := s.Submit(context.Background(), req)
		follow <- out{res, err}
	}()
	waitFor(t, "follower to coalesce", func() bool { return s.Stats().CoalescedQueries == 1 })
	close(release)

	lo, fo := <-lead, <-follow
	if lo.err != nil || fo.err != nil {
		t.Fatalf("leader = %v, follower = %v, want both ok", lo.err, fo.err)
	}
	if fo.res.Report.Cache != "coalesced" {
		t.Errorf("follower report = %+v, want coalesced", fo.res.Report)
	}
	sameBits(t, "coalesced result", lo.res.Values, fo.res.Values)
	if n := calls.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}
	st := s.Stats()
	if st.Admitted != 2 || st.Completed != 2 || st.EngineRuns != 1 {
		t.Errorf("stats = %+v, want 2 admitted = 2 completed over 1 run", st)
	}
	mustClose(t, s)
}

// TestShareFollowerSurvivesLeaderCancel is the single-flight liveness
// contract: the first caller canceling its context must not strand or
// fail the followers attached to its run.
func TestShareFollowerSurvivesLeaderCancel(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	run, calls := blockingRun(started, release)
	s, err := New(Config{Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	req := Request{Window: w, Algo: algo.SSSP, Source: 0}

	leadCtx, leadCancel := context.WithCancel(context.Background())
	defer leadCancel()
	type out struct {
		res *Result
		err error
	}
	lead := make(chan out, 1)
	go func() {
		res, err := s.Submit(leadCtx, req)
		lead <- out{res, err}
	}()
	<-started

	follow := make(chan out, 1)
	go func() {
		res, err := s.Submit(context.Background(), req)
		follow <- out{res, err}
	}()
	waitFor(t, "follower to coalesce", func() bool { return s.Stats().CoalescedQueries == 1 })

	leadCancel()
	lo := <-lead
	if !errors.Is(lo.err, megaerr.ErrCanceled) {
		t.Fatalf("canceled leader = %v, want ErrCanceled", lo.err)
	}
	// The detached run must still be alive for the follower.
	close(release)
	fo := <-follow
	if fo.err != nil {
		t.Fatalf("follower after leader cancel = %v, want success", fo.err)
	}
	if len(fo.res.Values) == 0 {
		t.Fatal("follower got no values")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}
	waitFor(t, "terminal accounting", func() bool {
		st := s.Stats()
		return st.Admitted == 2 && st.Admitted == st.Completed+st.Failed+st.Canceled+st.Shed
	})
	st := s.Stats()
	if st.Completed != 1 || st.Canceled != 1 {
		t.Errorf("stats = %+v, want 1 completed (follower) + 1 canceled (leader)", st)
	}
	mustClose(t, s)
}

// TestShareLastParticipantCancelStopsRun checks the detached run is
// cancelled once every participant has departed, so Close need not wait
// out an orphaned evaluation.
func TestShareLastParticipantCancelStopsRun(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	defer close(release)
	run, _ := blockingRun(started, release)
	s, err := New(Config{Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Window: w, Algo: algo.SSSP, Source: 0})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, megaerr.ErrCanceled) {
		t.Fatalf("Submit = %v, want ErrCanceled", err)
	}
	// The stub observes ctx.Done and unwinds; the service drains cleanly.
	mustClose(t, s)
	st := s.Stats()
	if st.Admitted != 1 || st.Canceled != 1 {
		t.Errorf("stats = %+v, want the lone leader canceled", st)
	}
}

// TestShareArrivalAfterLastDepartureLeadsFreshFlight pins the interleaving
// behind the TestQueryServiceSoakSharing flake: the last participant of a
// flight departs (canceling the detached run), and a same-key query
// arrives before the canceled run has unwound. The stub holds the
// canceled run open on a channel, so the window is as wide as the test
// wants it. The arrival must lead a fresh flight and succeed; before the
// departure and the unmap shared one critical section it coalesced onto
// the dead flight and failed with the run's "context canceled".
func TestShareArrivalAfterLastDepartureLeadsFreshFlight(t *testing.T) {
	for _, lastOut := range []string{"leader", "follower"} {
		t.Run(lastOut+" departs last", func(t *testing.T) {
			testutil.NoGoroutineLeak(t)
			started := make(chan struct{}, 4)
			unwind := make(chan struct{}) // lets a canceled run return
			release := sync.OnceFunc(func() { close(unwind) })
			defer release()
			var calls atomic.Int64
			run := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
				if calls.Add(1) > 1 {
					return [][]float64{{7}}, RunReport{Attempts: 1}, nil
				}
				started <- struct{}{}
				<-ctx.Done()
				<-unwind
				return nil, RunReport{Attempts: 1}, megaerr.Canceled("stub run", ctx.Err())
			}
			s, err := New(Config{Capacity: 2, Run: run, CacheBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Window: shareWindow(t), Algo: algo.SSSP, Source: 0}

			leadCtx, leadCancel := context.WithCancel(context.Background())
			defer leadCancel()
			lead := make(chan error, 1)
			go func() {
				_, err := s.Submit(leadCtx, req)
				lead <- err
			}()
			<-started
			participants := uint64(1)
			if lastOut == "follower" {
				followCtx, followCancel := context.WithCancel(context.Background())
				defer followCancel()
				follow := make(chan error, 1)
				go func() {
					_, err := s.Submit(followCtx, req)
					follow <- err
				}()
				waitFor(t, "follower to coalesce", func() bool { return s.Stats().CoalescedQueries == 1 })
				leadCancel()
				if err := <-lead; !errors.Is(err, megaerr.ErrCanceled) {
					t.Fatalf("canceled leader = %v, want ErrCanceled", err)
				}
				followCancel()
				if err := <-follow; !errors.Is(err, megaerr.ErrCanceled) {
					t.Fatalf("canceled follower = %v, want ErrCanceled", err)
				}
				participants = 2
			} else {
				leadCancel()
				if err := <-lead; !errors.Is(err, megaerr.ErrCanceled) {
					t.Fatalf("canceled leader = %v, want ErrCanceled", err)
				}
			}

			// Every participant is gone and the first run is canceled but
			// still parked on unwind: this arrival is inside the window.
			arrival := make(chan struct{})
			var res *Result
			go func() {
				defer close(arrival)
				res, err = s.Submit(context.Background(), req)
			}()
			waitFor(t, "the arrival to start a run of its own", func() bool { return calls.Load() == 2 })
			<-arrival
			if err != nil {
				t.Fatalf("arrival after the last departure = %v, want a fresh run's result", err)
			}
			if res.Report.Cache != "" || res.Values[0][0] != 7 {
				t.Errorf("arrival got cache=%q values=%v, want its own solo run's {7}", res.Report.Cache, res.Values)
			}
			if n := calls.Load(); n != 2 {
				t.Errorf("engine ran %d times, want 2 (the canceled run and the fresh one)", n)
			}
			release()
			waitFor(t, "terminal accounting", func() bool {
				st := s.Stats()
				return st.Admitted == participants+1 && st.Admitted == st.Completed+st.Failed+st.Canceled+st.Shed
			})
			if st := s.Stats(); st.Completed != 1 || st.Canceled != participants {
				t.Errorf("stats = %+v, want 1 completed + %d canceled", st, participants)
			}
			mustClose(t, s)
		})
	}
}

// TestShareBatchedMultiSource proves the batching contract: concurrent
// same-window, same-algo queries with different sources execute as ONE
// multi-source engine run, each caller receiving its own source's values.
func TestShareBatchedMultiSource(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	blocker, _ := blockingRun(started, release)

	var multiCalls atomic.Int64
	runMulti := func(ctx context.Context, reqs []*Request) ([][][]float64, RunReport, error) {
		multiCalls.Add(1)
		out := make([][][]float64, len(reqs))
		for i, r := range reqs {
			out[i] = [][]float64{{float64(r.Source) * 10}}
		}
		return out, RunReport{Attempts: 1}, nil
	}
	s, err := New(Config{Run: blocker, RunMulti: runMulti, Capacity: 1, QueueDepth: 8, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)

	// A windowless (unshareable) request occupies the only slot, so the
	// shared queries gather while queued.
	hold := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Label: "hold"})
		hold <- err
	}()
	<-started

	const n = 3
	type out struct {
		src graph.VertexID
		res *Result
		err error
	}
	outs := make(chan out, n)
	for i := 0; i < n; i++ {
		go func(src graph.VertexID) {
			res, err := s.Submit(context.Background(), Request{Window: w, Algo: algo.SSSP, Source: src})
			outs <- out{src, res, err}
		}(graph.VertexID(i))
	}
	waitFor(t, "two sources to batch onto the leader", func() bool {
		return s.Stats().BatchedQueries == 2
	})
	close(release)

	batched := 0
	for i := 0; i < n; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatalf("source %d = %v, want success", o.src, o.err)
		}
		if got := o.res.Values[0][0]; got != float64(o.src)*10 {
			t.Errorf("source %d got value %v, want its own result %v", o.src, got, float64(o.src)*10)
		}
		if o.res.Report.Engine != "multi" || o.res.Report.Sources != n {
			t.Errorf("source %d report = %+v, want a %d-source multi run", o.src, o.res.Report, n)
		}
		if o.res.Report.Cache == "batched" {
			batched++
		}
	}
	if batched != 2 {
		t.Errorf("%d reports say batched, want 2 (leader reports none)", batched)
	}
	if err := <-hold; err != nil {
		t.Fatalf("holding query = %v", err)
	}
	if n := multiCalls.Load(); n != 1 {
		t.Errorf("RunMulti ran %d times, want exactly 1", n)
	}
	st := s.Stats()
	// 1 holding run + 1 batched run; the acceptance counter: the three
	// shared queries cost a single engine run.
	if st.EngineRuns != 2 {
		t.Errorf("EngineRuns = %d, want 2 (hold + one batched run)", st.EngineRuns)
	}
	if st.Admitted != n+1 || st.Completed != n+1 {
		t.Errorf("stats = %+v, want %d admitted = completed", st, n+1)
	}
	mustClose(t, s)
}

// TestShareSeedFromOverlappingWindow checks stable-vertex seeding: a
// query over a new window overlapping a cached one starts from the
// cached converged base solution.
func TestShareSeedFromOverlappingWindow(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	var seenSeed atomic.Pointer[[]float64]
	run := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		if req.SeedBase != nil {
			sb := append([]float64(nil), req.SeedBase...)
			seenSeed.Store(&sb)
		}
		return [][]float64{{1}}, RunReport{Attempts: 1, Base: []float64{5, 6, 7, 8}}, nil
	}
	s, err := New(Config{Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	wA, wB := shareWindow(t), overlapWindow(t)

	if _, err := s.Submit(context.Background(), Request{Window: wA, Algo: algo.SSSP, Source: 1}); err != nil {
		t.Fatalf("donor Submit = %v", err)
	}
	res, err := s.Submit(context.Background(), Request{Window: wB, Algo: algo.SSSP, Source: 1})
	if err != nil {
		t.Fatalf("seeded Submit = %v", err)
	}
	if res.Report.Cache == "hit" {
		t.Fatal("overlapping window hit the exact cache — windows are not distinct")
	}
	if !res.Report.Seeded {
		t.Errorf("report = %+v, want Seeded", res.Report)
	}
	got := seenSeed.Load()
	if got == nil || len(*got) != 4 || (*got)[0] != 5 {
		t.Errorf("engine saw seed %v, want the donor's base [5 6 7 8]", got)
	}
	if st := s.Stats(); st.SeededQueries != 1 || st.Cache.SeedHits != 1 {
		t.Errorf("stats = %+v / %+v, want one seeded query", st, st.Cache)
	}
	// A different source must not borrow the base.
	if res2, err := s.Submit(context.Background(), Request{Window: wB, Algo: algo.SSSP, Source: 2}); err != nil {
		t.Fatalf("other-source Submit = %v", err)
	} else if res2.Report.Seeded {
		t.Error("different source was seeded from another source's base")
	}
	mustClose(t, s)
}

// TestShareFaultPlanBypassesSharing: chaos queries must neither read nor
// populate the cache, so injected failures cannot poison shared state.
func TestShareFaultPlanBypassesSharing(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	run, calls := bitRun()
	s, err := New(Config{Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	op, err := fault.ParseOp("engine.round:transient@999999")
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.Inject(context.Background(), fault.NewPlan(1).Add(op))
	req := Request{Window: w, Algo: algo.SSSP, Source: 0}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(ctx, req); err != nil {
			t.Fatalf("Submit %d = %v", i, err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("engine ran %d times, want 2 (no sharing for chaos queries)", n)
	}
	if st := s.Stats(); st.Cache.Lookups != 0 || st.Cache.Inserts != 0 {
		t.Errorf("cache stats = %+v, want untouched", st.Cache)
	}
	mustClose(t, s)
}

// TestShareCacheHitRejectedWhileDraining: admission is closed to cache
// hits too — a draining service rejects instead of serving free answers.
func TestShareCacheHitRejectedWhileDraining(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	run, _ := bitRun()
	s, err := New(Config{Run: run, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	req := Request{Window: w, Algo: algo.SSSP, Source: 0}
	if _, err := s.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
	if _, err := s.Submit(context.Background(), req); !errors.Is(err, megaerr.ErrOverload) {
		t.Errorf("Submit on closed service = %v, want ErrOverload", err)
	}
}

// TestSharePerTenantCacheBudget wires PR 8's tenant machinery to the
// cache: a tenant with a tiny cache budget cannot keep entries resident
// while an uncapped tenant can.
func TestSharePerTenantCacheBudget(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	run, calls := bitRun()
	s, err := New(Config{
		Run:        run,
		CacheBytes: 1 << 20,
		Tenants: map[string]TenantConfig{
			"small": {Weight: 1, CacheBytes: 8}, // below any result size
			"big":   {Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(context.Background(), Request{Window: w, Algo: algo.SSSP, Source: 0, Tenant: "small"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("small tenant: engine ran %d times, want 2 (result never resident)", n)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(context.Background(), Request{Window: w, Algo: algo.SSSP, Source: 1, Tenant: "big"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("big tenant: engine ran %d times total, want 3 (second query hits)", n)
	}
	if st := s.Stats(); st.Cache.Rejected == 0 {
		t.Errorf("cache stats = %+v, want the small tenant's insert rejected", st.Cache)
	}
	mustClose(t, s)
}

// TestShareConcurrentChurn is the sharing layer's soak: many goroutines
// hammer a handful of (source, cancel) combinations through the cache,
// coalescing, and batching paths at once; the conservation law and the
// cache accounting audit must hold at Close. Run under -race.
func TestShareConcurrentChurn(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	var calls atomic.Int64
	run := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		calls.Add(1)
		select {
		case <-time.After(200 * time.Microsecond):
		case <-ctx.Done():
			return nil, RunReport{Attempts: 1}, megaerr.Canceled("stub", ctx.Err())
		}
		return [][]float64{{float64(req.Source)}}, RunReport{Attempts: 1, Base: []float64{1}}, nil
	}
	runMulti := func(ctx context.Context, reqs []*Request) ([][][]float64, RunReport, error) {
		calls.Add(1)
		out := make([][][]float64, len(reqs))
		for i, r := range reqs {
			out[i] = [][]float64{{float64(r.Source)}}
		}
		return out, RunReport{Attempts: 1}, nil
	}
	s, err := New(Config{Run: run, RunMulti: runMulti, Capacity: 2, QueueDepth: 256, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	w := shareWindow(t)

	const total = 160
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%7 == 3 { // a slice of callers abandon quickly
				c, cancel := context.WithTimeout(ctx, time.Duration(i%3)*100*time.Microsecond)
				defer cancel()
				ctx = c
			}
			res, err := s.Submit(ctx, Request{Window: w, Algo: algo.SSSP, Source: graph.VertexID(i % 4)})
			switch {
			case err == nil:
				if res.Values[0][0] != float64(i%4) {
					unexpected.Add(1)
				}
			case errors.Is(err, megaerr.ErrCanceled):
			default:
				unexpected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d queries returned wrong values or unexpected errors", n)
	}
	mustClose(t, s) // strict mode would fail here on any audit violation
	st := s.Stats()
	if st.Admitted != st.Completed+st.Failed+st.Canceled+st.Shed {
		t.Errorf("conservation violated: %+v", st)
	}
	if st.EngineRuns >= total {
		t.Errorf("EngineRuns = %d of %d queries — sharing never engaged", st.EngineRuns, total)
	}
	if st.CacheHits+st.CoalescedQueries+st.BatchedQueries == 0 {
		t.Error("no query shared anything; the churn proved nothing")
	}
}

// TestRetryAfterEstimateOverflow is the regression for the duration
// overflow: an extreme backlog times a large median must clamp to the
// maximum hint, not wrap negative and fall out as the minimum.
func TestRetryAfterEstimateOverflow(t *testing.T) {
	if d := retryAfterEstimate(1, 1<<40, time.Hour); d != retryAfterMax {
		t.Errorf("huge backlog hint = %v, want the %v clamp", d, retryAfterMax)
	}
	if d := retryAfterEstimate(1, 1<<62-2, time.Nanosecond); d != retryAfterMax {
		t.Errorf("overflow-boundary hint = %v, want the %v clamp", d, retryAfterMax)
	}
	if d := retryAfterEstimate(4, 8, 50*time.Millisecond); d <= 0 || d > retryAfterMax {
		t.Errorf("ordinary hint = %v, want positive and clamped", d)
	}
}
