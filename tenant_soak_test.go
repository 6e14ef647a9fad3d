package mega_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mega"
	"mega/internal/testutil"
)

// TestQueryServiceTenantIsolationSoakChaos is the tenancy headline: one
// abusive tenant floods the service with chaos-class queries (injected
// transients, panics, latency spikes, doomed deadlines) far past
// its quota while a well-behaved tenant runs a modest closed loop of
// clean queries — all under the race detector. It asserts
//
//  1. isolation — the well-behaved tenant loses nothing to the flood:
//     zero shed, zero rejected, and at least 80% of its queries succeed
//     (the rest of the budget tolerates scheduler noise, not theft);
//  2. correctness under pressure — every successful result, either
//     tenant's, is bit-identical to a direct EvaluateContext;
//  3. the flood was real — the abuser saw tenant-scoped rejections, and
//     every abuser outcome is a success or a typed error from its own
//     fault class, never a lost query;
//  4. conservation — the aggregate and per-tenant accounting audits both
//     hold strictly at Close, and no goroutines leak.
func TestQueryServiceTenantIsolationSoakChaos(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	w := soakWindow(t)

	flooders, perFlooder := 40, 3
	goodLoops, perLoop := 2, 15
	if os.Getenv("MEGA_CHAOS") != "" {
		flooders, perLoop = 80, 25
	}

	type key struct {
		a mega.AlgorithmKind
		s mega.VertexID
	}
	baseline := map[key][][]float64{}
	for _, k := range []key{{mega.SSSP, 0}, {mega.SSWP, 1}} {
		vals, err := mega.EvaluateContext(context.Background(), w, k.a, k.s)
		if err != nil {
			t.Fatal(err)
		}
		baseline[k] = vals
	}

	svc, err := mega.NewQueryService(mega.ServeOptions{
		Capacity:   4,
		QueueDepth: 16,
		Tenants: map[string]mega.TenantConfig{
			"good":   {Weight: 2},
			"abuser": {Weight: 1, MaxQueued: 8},
		},
		CheckpointEvery: 2,
		MaxRetries:      1,
		Backoff:         time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Abuser flood: open-loop bursts of chaos classes. Every Submit must
	// resolve as a success (bit-identical) or a typed error owned by its
	// class — overload from the quota, cancellation from the doomed
	// deadline, exhaustion from the unrecoverable transient, a contained
	// panic from the poisoned query (and only from it).
	abuserClasses := []struct {
		name      string
		algo      mega.AlgorithmKind
		src       mega.VertexID
		faultSpec string
		wantPanic bool
		deadline  time.Duration
	}{
		{name: "latency-spike", algo: mega.SSSP, src: 0, faultSpec: "engine.round:latency=200us@2"},
		{name: "panic-contained", algo: mega.SSSP, src: 0, wantPanic: true, faultSpec: "engine.round:panic@3"},
		{name: "transient-exhaust", algo: mega.SSWP, src: 1, faultSpec: "engine.round:transient@1x1"},
		{name: "deadline-doomed", algo: mega.SSSP, src: 0, deadline: time.Nanosecond},
	}
	var abuserBad atomic.Int64 // outcomes outside the allowed set
	var wg sync.WaitGroup
	for g := 0; g < flooders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perFlooder; j++ {
				i := g*perFlooder + j
				c := abuserClasses[i%len(abuserClasses)]
				ctx := context.Background()
				if c.faultSpec != "" {
					op, perr := mega.ParseFaultOp(c.faultSpec)
					if perr != nil {
						t.Error(perr)
						return
					}
					ctx = mega.WithFaultPlan(ctx, mega.NewFaultPlan(int64(i)).Add(op))
				}
				res, err := svc.Submit(ctx, mega.QueryRequest{
					Window:   w,
					Algo:     c.algo,
					Source:   c.src,
					Tenant:   "abuser",
					Priority: mega.QueryPriority(i % 3),
					Deadline: c.deadline,
					Label:    fmt.Sprintf("abuser/%s/%d", c.name, i),
				})
				switch {
				case err == nil && !c.wantPanic:
					identicalBits(t, fmt.Sprintf("abuser query %d (%s)", i, c.name),
						baseline[key{c.algo, c.src}], res.Values)
				case c.wantPanic && containedPanic(err):
					// Contained: the poisoned query failed alone.
				case errors.Is(err, mega.ErrOverload),
					errors.Is(err, mega.ErrCanceled),
					errors.Is(err, mega.ErrTransient):
					// Typed, attributable, expected under the flood.
				default:
					abuserBad.Add(1)
					t.Errorf("abuser query %d (%s) = %v, want its class's outcome or typed overload/canceled/transient", i, c.name, err)
				}
			}
		}(g)
	}

	// Well-behaved tenant: a closed loop of clean queries riding out the
	// storm. Successes must be bit-identical; failures are tolerated only
	// inside the 20% noise budget, and must still be typed.
	var goodOK, goodFail atomic.Int64
	for g := 0; g < goodLoops; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perLoop; j++ {
				k := key{mega.SSSP, 0}
				if (g+j)%2 == 1 {
					k = key{mega.SSWP, 1}
				}
				res, err := svc.Submit(context.Background(), mega.QueryRequest{
					Window:   w,
					Algo:     k.a,
					Source:   k.s,
					Tenant:   "good",
					Priority: mega.QueryPriorityNormal,
					Deadline: 30 * time.Second,
					Label:    fmt.Sprintf("good/%d-%d", g, j),
				})
				if err != nil {
					goodFail.Add(1)
					continue
				}
				goodOK.Add(1)
				identicalBits(t, fmt.Sprintf("good query %d-%d", g, j), baseline[k], res.Values)
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close = %v (aggregate and per-tenant audits must hold)", err)
	}

	goodTotal := goodOK.Load() + goodFail.Load()
	if goodTotal != int64(goodLoops*perLoop) {
		t.Fatalf("good tenant resolved %d of %d queries — queries were lost", goodTotal, goodLoops*perLoop)
	}
	if rate := float64(goodOK.Load()) / float64(goodTotal); rate < 0.8 {
		t.Errorf("good tenant success rate %.2f (%d/%d), want >= 0.80 despite the flood",
			rate, goodOK.Load(), goodTotal)
	}

	st := svc.Stats()
	byName := map[string]mega.TenantStats{}
	for _, tn := range st.Tenants {
		byName[tn.Name] = tn
	}
	good, abuser := byName["good"], byName["abuser"]
	if good.Shed != 0 || good.Rejected != 0 {
		t.Errorf("good tenant lost work to the flood: %+v", good)
	}
	if abuser.Rejected == 0 {
		t.Errorf("abuser was never rejected (%+v) — the flood did not stress the quota", abuser)
	}
	if good.Admitted != good.Completed+good.Failed+good.Canceled+good.Shed {
		t.Errorf("good tenant conservation violated: %+v", good)
	}
	if abuser.Admitted != abuser.Completed+abuser.Failed+abuser.Canceled+abuser.Shed {
		t.Errorf("abuser conservation violated: %+v", abuser)
	}
	if st.Admitted != st.Completed+st.Failed+st.Canceled+st.Shed {
		t.Errorf("aggregate conservation violated: %+v", st)
	}
	if audit := svc.Audit(); !audit.OK {
		t.Errorf("aggregate audit failed: %s", audit.Detail)
	}
	if audit := svc.TenantAudit(); !audit.OK {
		t.Errorf("per-tenant audit failed: %s", audit.Detail)
	}
	if abuserBad.Load() > 0 {
		t.Errorf("%d abuser outcomes fell outside the typed contract", abuserBad.Load())
	}
}
