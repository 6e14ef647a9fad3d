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

// TestEvaluateMultiSourceMatchesPerSource pins the batched evaluation's
// correctness floor: one multi-source run returns, for every source,
// values bit-identical to that source's own single-source evaluation.
func TestEvaluateMultiSourceMatchesPerSource(t *testing.T) {
	w := soakWindow(t)
	sources := []mega.VertexID{0, 1, 7}
	got, err := mega.EvaluateMultiSource(context.Background(), w, mega.SSSP, sources, mega.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sources) {
		t.Fatalf("got %d result sets for %d sources", len(got), len(sources))
	}
	for i, src := range sources {
		want, err := mega.EvaluateContext(context.Background(), w, mega.SSSP, src)
		if err != nil {
			t.Fatal(err)
		}
		identicalBits(t, fmt.Sprintf("source %d", src), want, got[i])
	}
}

// TestQueryServiceBatchedMultiSource is the batching acceptance check:
// with the only run slot held, N concurrent same-window same-algo
// different-source queries gather on one flight and execute as a single
// multi-source engine run — the engine-run counter shows exactly one run
// for all N, and every caller gets its own source's bit-exact values.
func TestQueryServiceBatchedMultiSource(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)
	const n = 3
	baselines := make([][][]float64, n)
	for i := range baselines {
		vals, err := mega.EvaluateContext(context.Background(), w, mega.SSSP, mega.VertexID(i))
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = vals
	}

	s, err := mega.NewQueryService(mega.ServeOptions{
		Capacity: 1, QueueDepth: 8, CacheBytes: 32 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A chaos query (fault plans bypass sharing) stalls in the only slot
	// long enough for the shared queries to gather behind it.
	op, err := mega.ParseFaultOp("engine.round:latency=2ms@1x1")
	if err != nil {
		t.Fatal(err)
	}
	holdCtx := mega.WithFaultPlan(context.Background(), mega.NewFaultPlan(7).Add(op))
	hold := make(chan error, 1)
	go func() {
		_, err := s.Submit(holdCtx, mega.QueryRequest{Window: w, Algo: mega.SSWP, Source: 9, Label: "hold"})
		hold <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holding query never started")
		}
		time.Sleep(time.Millisecond)
	}

	type out struct {
		src mega.VertexID
		res *mega.QueryResult
		err error
	}
	outs := make(chan out, n)
	for i := 0; i < n; i++ {
		go func(src mega.VertexID) {
			res, err := s.Submit(context.Background(),
				mega.QueryRequest{Window: w, Algo: mega.SSSP, Source: src})
			outs <- out{src, res, err}
		}(mega.VertexID(i))
	}
	for s.Stats().BatchedQueries != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("batching never happened: stats = %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < n; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatalf("source %d = %v, want success", o.src, o.err)
		}
		if o.res.Report.Engine != "multi" || o.res.Report.Sources != n {
			t.Errorf("source %d report = %+v, want an %d-source multi run", o.src, o.res.Report, n)
		}
		identicalBits(t, fmt.Sprintf("batched source %d", o.src), baselines[o.src], o.res.Values)
	}
	if err := <-hold; err != nil {
		t.Fatalf("holding query = %v", err)
	}
	st := s.Stats()
	// One run for the holder, exactly one for all n shared queries.
	if st.EngineRuns != 2 {
		t.Errorf("EngineRuns = %d, want 2 (hold + one batched run for %d queries)", st.EngineRuns, n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// overlapPair hand-builds two windows with identical CommonGraphs and a
// shared first-hop batch that diverge afterwards — the stable-vertex
// seeding shape. Built from parts (not Evolve) so the overlap is exact.
func overlapPair(t *testing.T) (*mega.Window, *mega.Window) {
	t.Helper()
	const n = 96
	var initial mega.EdgeList
	for i := 0; i < n; i++ {
		initial = append(initial,
			mega.Edge{Src: mega.VertexID(i), Dst: mega.VertexID((i + 1) % n), Weight: float64(i%7 + 1)},
			mega.Edge{Src: mega.VertexID(i), Dst: mega.VertexID((i*5 + 2) % n), Weight: float64(i%3 + 1)})
	}
	initial = initial.Normalize()
	shared := mega.EdgeList{{Src: 1, Dst: 40, Weight: 2}, {Src: 8, Dst: 77, Weight: 1}}
	divergeA := mega.EdgeList{{Src: 3, Dst: 50, Weight: 3}}
	divergeB := mega.EdgeList{{Src: 4, Dst: 60, Weight: 5}}
	wA, err := mega.NewWindowFromParts(n, 3, initial,
		[]mega.EdgeList{shared, divergeA}, []mega.EdgeList{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	wB, err := mega.NewWindowFromParts(n, 3, initial,
		[]mega.EdgeList{shared, divergeB}, []mega.EdgeList{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	return wA, wB
}

// TestQueryServiceSeededQueryBitIdentical is the seeding soundness
// acceptance check: a query over a window overlapping a cached one starts
// from the cached converged base solution — and still produces values
// bit-identical to an unseeded direct evaluation, because equal
// CommonGraph digests mean the skipped base solve would have produced
// exactly the seeded bits.
func TestQueryServiceSeededQueryBitIdentical(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	wA, wB := overlapPair(t)
	want, err := mega.EvaluateContext(context.Background(), wB, mega.SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mega.NewQueryService(mega.ServeOptions{CacheBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), mega.QueryRequest{Window: wA, Algo: mega.SSSP, Source: 0}); err != nil {
		t.Fatalf("donor Submit = %v", err)
	}
	res, err := s.Submit(context.Background(), mega.QueryRequest{Window: wB, Algo: mega.SSSP, Source: 0})
	if err != nil {
		t.Fatalf("seeded Submit = %v", err)
	}
	if res.Report.Cache == "hit" {
		t.Fatal("overlapping windows collided in the exact cache — they are not distinct")
	}
	if !res.Report.Seeded {
		t.Errorf("report = %+v, want Seeded (stable-vertex reuse)", res.Report)
	}
	identicalBits(t, "seeded query", want, res.Values)
	if st := s.Stats(); st.SeededQueries != 1 {
		t.Errorf("SeededQueries = %d, want 1", st.SeededQueries)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// TestQueryServiceSoakSharing extends the chaos soak to the sharing
// layer: hundreds of concurrent duplicate and multi-source queries, a
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
	t.Logf("soak: %d queries, %d engine runs, %d hits, %d coalesced, %d batched, %d seeded",
		total, st.EngineRuns, st.CacheHits, st.CoalescedQueries, st.BatchedQueries, st.SeededQueries)
}
