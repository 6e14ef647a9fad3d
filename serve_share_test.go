package mega_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"mega"
	"mega/internal/testutil"
)

// TestQueryServiceCacheHitBitIdentical is the headline acceptance check:
// a repeated identical query is served from the result cache with no
// second engine run, and the hit is Float64bits-identical to both the
// first served result and a direct EvaluateContext.
func TestQueryServiceCacheHitBitIdentical(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)
	want, err := mega.EvaluateContext(context.Background(), w, mega.SSSP, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mega.NewQueryService(mega.ServeOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	req := mega.QueryRequest{Window: w, Algo: mega.SSSP, Source: 3}
	first, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("first Submit = %v", err)
	}
	second, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("second Submit = %v", err)
	}
	if second.Report.Engine != "cache" || second.Report.Cache != "hit" {
		t.Errorf("second report = %+v, want a cache hit", second.Report)
	}
	identicalBits(t, "first serve", want, first.Values)
	identicalBits(t, "cache hit", want, second.Values)

	st := s.Stats()
	if st.EngineRuns != 1 {
		t.Errorf("EngineRuns = %d, want 1 — the repeat must not run the engine", st.EngineRuns)
	}
	if st.CacheHits != 1 || st.Admitted != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 2 admitted = 2 completed with 1 hit", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v (cache.accounting audit must hold)", err)
	}
}

// TestQueryServiceDifferentSourcesRunSolo pins one source per flight:
// eight concurrent misses for eight sources of one window on a two-slot
// service each lead their own engine run — nothing folds them into one —
// and each answer is bit-identical to that source's EvaluateContext. The
// window is large enough (≈ 5 ms a run) that, were different sources
// still batched, the six queued behind the two running would fold.
func TestQueryServiceDifferentSourcesRunSolo(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	spec := mega.GraphSpec{
		Name: "solo", Vertices: 1 << 12, Edges: 60_000,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 5,
	}
	ev, err := mega.Evolve(spec, mega.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	baselines := make([][][]float64, n)
	for i := range baselines {
		vals, err := mega.EvaluateContext(context.Background(), w, mega.SSSP, mega.VertexID(i))
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = vals
	}
	s, err := mega.NewQueryService(mega.ServeOptions{Capacity: 2, QueueDepth: n, CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*mega.QueryResult, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = s.Submit(context.Background(),
				mega.QueryRequest{Window: w, Algo: mega.SSSP, Source: mega.VertexID(i)})
		}(i)
	}
	begin := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(begin)
	var runTime time.Duration
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("source %d = %v, want success", i, errs[i])
		}
		identicalBits(t, fmt.Sprintf("source %d", i), baselines[i], results[i].Values)
		runTime += results[i].Report.RunTime
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
	st := s.Stats()
	if st.EngineRuns != n || st.BatchedQueries != 0 {
		t.Errorf("EngineRuns = %d, BatchedQueries = %d; want %d runs, none batched", st.EngineRuns, st.BatchedQueries, n)
	}
	if st.Admitted != st.Completed+st.Failed+st.Canceled+st.Shed {
		t.Errorf("conservation violated: %+v", st)
	}
	t.Logf("%d sources: summed RunTime %v, wall %v", n, runTime, wall)
}

// TestQueryServiceSoakSharing extends the chaos soak to the sharing
// layer: hundreds of concurrent duplicate and different-source queries, a
// slice of them abandoning early, over a cache-enabled service. Asserts
// no query is lost, successes stay bit-identical, the conservation law
// survives follower accounting, sharing genuinely engaged, and every
// audit (including cache.accounting) holds at Close. Run under -race.
func TestQueryServiceSoakSharing(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)

	total := 160
	if os.Getenv("MEGA_CHAOS") != "" {
		total = 320
	}

	type class struct {
		name string
		algo mega.AlgorithmKind
		src  mega.VertexID
		// abandon: cancel the caller's context shortly after submit; the
		// outcome may be success (resolved first) or ErrCanceled.
		abandon bool
		// poison: the query carries a fault plan that panics in its third
		// round. A chaos query runs solo beside the flights; it must fail
		// alone with a *WorkerPanicError and leave nothing in the cache.
		poison bool
	}
	classes := []class{
		{name: "dup-seq", algo: mega.SSSP, src: 0},
		{name: "poisoned", algo: mega.SSSP, src: 0, poison: true},
		{name: "multi-a", algo: mega.SSSP, src: 2},
		{name: "multi-b", algo: mega.SSSP, src: 3},
		{name: "abandoner", algo: mega.SSSP, src: 0, abandon: true},
	}

	type bkey struct {
		a mega.AlgorithmKind
		s mega.VertexID
	}
	baseline := map[bkey][][]float64{}
	for _, c := range classes {
		k := bkey{c.algo, c.src}
		if _, ok := baseline[k]; ok {
			continue
		}
		vals, err := mega.EvaluateContext(context.Background(), w, c.algo, c.src)
		if err != nil {
			t.Fatal(err)
		}
		baseline[k] = vals
	}

	svc, err := mega.NewQueryService(mega.ServeOptions{
		Capacity:   3,
		QueueDepth: total,
		CacheBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		idx int
		res *mega.QueryResult
		err error
	}
	outcomes := make(chan outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := classes[i%len(classes)]
			ctx := context.Background()
			if c.abandon {
				cctx, cancel := context.WithTimeout(ctx, time.Duration(i%4)*250*time.Microsecond)
				defer cancel()
				ctx = cctx
			}
			if c.poison {
				op, perr := mega.ParseFaultOp("engine.round:panic@3")
				if perr != nil {
					outcomes <- outcome{idx: i, err: perr}
					return
				}
				ctx = mega.WithFaultPlan(ctx, mega.NewFaultPlan(int64(i)).Add(op))
			}
			res, err := svc.Submit(ctx, mega.QueryRequest{
				Window:   w,
				Algo:     c.algo,
				Source:   c.src,
				Priority: mega.QueryPriority(i % 3),
				Label:    fmt.Sprintf("%s/%d", c.name, i),
			})
			outcomes <- outcome{idx: i, res: res, err: err}
		}(i)
	}
	wg.Wait()
	close(outcomes)

	resolved, succeeded := 0, 0
	for o := range outcomes {
		resolved++
		c := classes[o.idx%len(classes)]
		switch {
		case c.poison:
			if !containedPanic(o.err) {
				t.Errorf("query %d (%s) = %v, want a contained *WorkerPanicError", o.idx, c.name, o.err)
			}
		case o.err == nil:
			succeeded++
			identicalBits(t, fmt.Sprintf("query %d (%s)", o.idx, c.name),
				baseline[bkey{c.algo, c.src}], o.res.Values)
		case c.abandon && errors.Is(o.err, mega.ErrCanceled):
			// An abandoner may also land a cache hit first; both are fine.
		default:
			t.Errorf("query %d (%s) = %v, want success%s", o.idx, c.name, o.err,
				map[bool]string{true: " or ErrCanceled", false: ""}[c.abandon])
		}
	}
	if resolved != total {
		t.Fatalf("resolved %d of %d queries — queries were lost", resolved, total)
	}
	if succeeded == 0 {
		t.Fatal("no query succeeded; the soak proved nothing")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close = %v (all audits, including cache.accounting, must hold)", err)
	}

	st := svc.Stats()
	if st.Admitted != st.Completed+st.Failed+st.Canceled+st.Shed {
		t.Errorf("conservation violated: %+v", st)
	}
	if st.Rejected != 0 {
		t.Errorf("rejected = %d at a queue depth of %d, want 0", st.Rejected, total)
	}
	if st.EngineRuns >= uint64(total) {
		t.Errorf("EngineRuns = %d of %d queries — sharing never engaged", st.EngineRuns, total)
	}
	if st.CacheHits+st.CoalescedQueries+st.BatchedQueries == 0 {
		t.Error("no cache hit, coalesce, or batch across the whole soak")
	}
	if audit := svc.Audit(); !audit.OK {
		t.Errorf("accounting audit failed: %s", audit.Detail)
	}
	t.Logf("soak: %d queries, %d engine runs, %d hits, %d coalesced",
		total, st.EngineRuns, st.CacheHits, st.CoalescedQueries)
}
