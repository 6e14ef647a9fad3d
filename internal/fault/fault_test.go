package fault

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mega/internal/megaerr"
)

// siteSharded is a private site for the per-shard visit counters: Check on
// an unknown site is legal, and no instrumented site reports a shard.
const siteSharded Site = "test.sharded"

func TestNilPlanIsNoOp(t *testing.T) {
	var p *Plan
	if err := p.Check(SiteEngineRound); err != nil {
		t.Fatalf("nil plan Check = %v", err)
	}
	if err := p.CheckShard(siteSharded, 3); err != nil {
		t.Fatalf("nil plan CheckShard = %v", err)
	}
	if got := p.Visits(SiteEngineRound, AnyShard); got != 0 {
		t.Fatalf("nil plan Visits = %d", got)
	}
	if got := p.Fired(); got != nil {
		t.Fatalf("nil plan Fired = %v", got)
	}
	ctx := Inject(context.Background(), nil)
	if From(ctx) != nil {
		t.Fatal("Inject(nil) should carry no plan")
	}
}

func TestContextPlumbing(t *testing.T) {
	p := NewPlan(1)
	ctx := Inject(context.Background(), p)
	if From(ctx) != p {
		t.Fatal("From did not return the injected plan")
	}
	if From(context.Background()) != nil {
		t.Fatal("From on a bare context should be nil")
	}
}

func TestTransientFiresAtExactVisit(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: SiteEngineRound, Shard: AnyShard, Kind: KindTransient, Visit: 3})
	for i := 1; i <= 5; i++ {
		err := p.Check(SiteEngineRound)
		if i == 3 {
			if err == nil {
				t.Fatalf("visit 3: expected a fault")
			}
			if !megaerr.IsTransient(err) {
				t.Fatalf("visit 3: fault %v is not transient", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("visit %d: unexpected fault %v", i, err)
		}
	}
	if got := p.Visits(SiteEngineRound, AnyShard); got != 5 {
		t.Fatalf("Visits = %d, want 5", got)
	}
	fired := p.Fired()
	if len(fired) != 1 || fired[0].Visit != 3 || fired[0].Op.Kind != KindTransient {
		t.Fatalf("Fired = %v", fired)
	}
}

func TestPeriodicRefire(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: SiteSimHop, Shard: AnyShard, Kind: KindTransient, Visit: 2, Every: 3})
	var hits []int
	for i := 1; i <= 10; i++ {
		if p.Check(SiteSimHop) != nil {
			hits = append(hits, i)
		}
	}
	want := []int{2, 5, 8}
	if len(hits) != len(want) {
		t.Fatalf("fired at %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("fired at %v, want %v", hits, want)
		}
	}
}

func TestShardTargeting(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: siteSharded, Shard: 2, Kind: KindTransient, Visit: 2})
	// Shard 1's visits never match; shard 2 fires on its own second visit,
	// regardless of interleaving with other shards.
	if err := p.CheckShard(siteSharded, 1); err != nil {
		t.Fatalf("shard 1 visit 1: %v", err)
	}
	if err := p.CheckShard(siteSharded, 2); err != nil {
		t.Fatalf("shard 2 visit 1: %v", err)
	}
	if err := p.CheckShard(siteSharded, 1); err != nil {
		t.Fatalf("shard 1 visit 2: %v", err)
	}
	err := p.CheckShard(siteSharded, 2)
	if err == nil || !megaerr.IsTransient(err) {
		t.Fatalf("shard 2 visit 2: want transient, got %v", err)
	}
	fired := p.Fired()
	if len(fired) != 1 || fired[0].Shard != 2 {
		t.Fatalf("Fired = %v", fired)
	}
	if !strings.Contains(fired[0].String(), "shard 2") {
		t.Fatalf("firing %q should name the shard", fired[0].String())
	}
}

func TestPanicInjection(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: SiteEngineOp, Shard: AnyShard, Kind: KindPanic, Visit: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected an injected panic")
		}
		if !strings.Contains(r.(string), "engine.op") {
			t.Fatalf("panic value %v should name the site", r)
		}
	}()
	_ = p.Check(SiteEngineOp)
}

func TestCancelInjection(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPlan(1).Add(Op{Site: SiteUarchCycle, Shard: AnyShard, Kind: KindCancel, Visit: 2})
	p.BindCancel(cancel)
	if err := p.Check(SiteUarchCycle); err != nil {
		t.Fatalf("visit 1: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("canceled before the op fired")
	}
	if err := p.Check(SiteUarchCycle); err != nil {
		t.Fatalf("cancel injection should return nil, got %v", err)
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatal("bound context was not canceled")
	}
}

func TestCancelWithoutBindingDegradesToTransient(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: SiteGenIO, Shard: AnyShard, Kind: KindCancel, Visit: 1})
	err := p.Check(SiteGenIO)
	if !megaerr.IsTransient(err) {
		t.Fatalf("unbound cancel should degrade to a transient, got %v", err)
	}
}

func TestLatencyInjection(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: SiteGenIO, Shard: AnyShard, Kind: KindLatency, Visit: 1, Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := p.Check(SiteGenIO); err != nil {
		t.Fatalf("latency injection should return nil, got %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency injection slept only %v", d)
	}
}

func TestProbabilisticIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) []uint64 {
		p := NewPlan(seed).Add(Op{Site: SiteEngineRound, Shard: AnyShard, Kind: KindTransient, Visit: 1, Prob: 0.3})
		var fired []uint64
		for i := 0; i < 200; i++ {
			if p.Check(SiteEngineRound) != nil {
				fired = append(fired, uint64(i+1))
			}
		}
		return fired
	}
	a, b := run(7), run(7)
	if len(a) == 0 {
		t.Fatal("p=0.3 over 200 visits fired nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different firing counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different firing schedule at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCheckShardConcurrencySafe(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: siteSharded, Shard: 0, Kind: KindTransient, Visit: 50})
	var wg sync.WaitGroup
	errs := make([]int, 8)
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if p.CheckShard(siteSharded, s) != nil {
					errs[s]++
				}
			}
		}(s)
	}
	wg.Wait()
	for s, n := range errs {
		want := 0
		if s == 0 {
			want = 1
		}
		if n != want {
			t.Fatalf("shard %d fired %d times, want %d", s, n, want)
		}
	}
}

func TestParseOp(t *testing.T) {
	cases := []struct {
		spec string
		want Op
	}{
		{"engine.round:transient@120", Op{Site: SiteEngineRound, Shard: AnyShard, Kind: KindTransient, Visit: 120}},
		{"engine.round#2:panic@3", Op{Site: SiteEngineRound, Shard: 2, Kind: KindPanic, Visit: 3}},
		{"gen.io:latency=5ms@1x2", Op{Site: SiteGenIO, Shard: AnyShard, Kind: KindLatency, Visit: 1, Every: 2, Latency: 5 * time.Millisecond}},
		{"uarch.cycle:cancel@10", Op{Site: SiteUarchCycle, Shard: AnyShard, Kind: KindCancel, Visit: 10}},
		{"gen.io:latency@1", Op{Site: SiteGenIO, Shard: AnyShard, Kind: KindLatency, Visit: 1, Latency: time.Millisecond}},
	}
	for _, c := range cases {
		got, err := ParseOp(c.spec)
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("ParseOp(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// String must round-trip through ParseOp.
		back, err := ParseOp(got.String())
		if err != nil || back != got {
			t.Fatalf("round-trip of %q via %q failed: %+v, %v", c.spec, got.String(), back, err)
		}
	}
}

func TestParseOpRejects(t *testing.T) {
	for _, spec := range []string{
		"",
		"engine.round",               // no kind
		"engine.round:transient",     // no visit
		":transient@1",               // empty site
		"engine.rounds:transient@1",  // unknown site
		"parallel.phase#1:panic@3",   // a site of the deleted goroutine engine
		"engine.round:explode@1",     // unknown kind
		"engine.round:transient@0",   // zero visit
		"engine.round:transient@x",   // non-numeric visit
		"engine.round:transient@1x0", // zero period
		"engine.round#-1:panic@1",    // negative shard
		"engine.round#abc:panic@1",   // non-numeric shard
		"gen.io:transient=5ms@1",     // duration on non-latency
		"gen.io:latency=banana@1",    // bad duration
	} {
		if _, err := ParseOp(spec); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Fatalf("ParseOp(%q) = %v, want ErrInvalidInput", spec, err)
		}
	}
}

func TestSitesListed(t *testing.T) {
	seen := map[Site]bool{}
	for _, s := range Sites() {
		if seen[s] {
			t.Fatalf("site %q listed twice", s)
		}
		seen[s] = true
	}
	for _, s := range []Site{SiteEngineRound, SiteGenIO, SiteUarchCycle} {
		if !seen[s] {
			t.Fatalf("site %q missing from Sites()", s)
		}
	}
}

// TestLatencyInjectionHonorsCancel is the regression test for the
// cancellable latency wait: an injected latency spike must not outlive a
// canceled query. A 1-minute stall checked under an already-canceled
// context has to return immediately with an ErrCanceled-matching error
// instead of sleeping.
func TestLatencyInjectionHonorsCancel(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: SiteEngineRound, Shard: AnyShard, Kind: KindLatency, Latency: time.Minute, Visit: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := p.CheckCtx(ctx, SiteEngineRound)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled latency injection stalled for %v", elapsed)
	}
	if !errors.Is(err, megaerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckCtx = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestLatencyInjectionCancelMidSleep cancels the context while the
// injected stall is in progress and checks the wait unblocks promptly.
func TestLatencyInjectionCancelMidSleep(t *testing.T) {
	p := NewPlan(1).Add(Op{Site: SiteSimHop, Shard: AnyShard, Kind: KindLatency, Latency: time.Minute, Visit: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.CheckCtx(ctx, SiteSimHop)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("latency injection ignored mid-sleep cancel (stalled %v)", elapsed)
	}
	if !errors.Is(err, megaerr.ErrCanceled) {
		t.Fatalf("CheckCtx = %v, want ErrCanceled", err)
	}
	// The uninterrupted path still stalls and returns nil.
	p2 := NewPlan(1).Add(Op{Site: SiteSimHop, Shard: AnyShard, Kind: KindLatency, Latency: time.Millisecond, Visit: 1})
	if err := p2.CheckCtx(context.Background(), SiteSimHop); err != nil {
		t.Fatalf("uncanceled latency injection = %v, want nil", err)
	}
}
