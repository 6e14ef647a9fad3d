package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mega/internal/megaerr"
	"mega/internal/metrics"
	"mega/internal/testutil"
)

// TestValidateTenant pins the tenant-ID grammar every entry point
// (Submit, the HTTP header, the -tenants spec) validates against.
func TestValidateTenant(t *testing.T) {
	valid := []string{"", "a", "default", "team-a", "user_42", "A.B/c~9", strings.Repeat("x", MaxTenantLen)}
	for _, in := range valid {
		if err := ValidateTenant(in); err != nil {
			t.Errorf("ValidateTenant(%q) = %v, want nil", in, err)
		}
	}
	invalid := []string{
		strings.Repeat("x", MaxTenantLen+1),
		"has space",
		"has\ttab",
		"has\ncontrol",
		"has\x00nul",
		"has:colon",
		"non-ascii-\xc3\xa9",
		"del-\x7f",
	}
	for _, in := range invalid {
		if err := ValidateTenant(in); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("ValidateTenant(%q) = %v, want ErrInvalidInput", in, err)
		}
	}
}

// TestParseTenantSpec pins the -tenants grammar.
func TestParseTenantSpec(t *testing.T) {
	cases := []struct {
		in   string
		name string
		cfg  TenantConfig
		ok   bool
	}{
		{"a:1", "a", TenantConfig{Weight: 1}, true},
		{"team-a:4", "team-a", TenantConfig{Weight: 4}, true},
		{"b:2:3", "b", TenantConfig{Weight: 2, MaxRunning: 3}, true},
		{"b:2:3:8", "b", TenantConfig{Weight: 2, MaxRunning: 3, MaxQueued: 8}, true},
		{"b:2:0:8:2", "b", TenantConfig{Weight: 2, MaxQueued: 8, Burst: 2}, true},
		{"b:2:0:8:2:1048576", "b", TenantConfig{Weight: 2, MaxQueued: 8, Burst: 2, CacheBytes: 1 << 20}, true},
		{"", "", TenantConfig{}, false},
		{"noweight", "", TenantConfig{}, false},
		{":1", "", TenantConfig{}, false},
		{"a:0", "", TenantConfig{}, false},          // weight must be >= 1
		{"a:-1", "", TenantConfig{}, false},         // negative weight
		{"a:1:-2", "", TenantConfig{}, false},       // negative maxrun
		{"a:1:2:x", "", TenantConfig{}, false},      // non-integer
		{"a:1:2:3:4:-5", "", TenantConfig{}, false}, // negative cachebytes
		{"a:1:2:3:4:5:6", "", TenantConfig{}, false},
		{"bad name:1", "", TenantConfig{}, false},
	}
	for _, c := range cases {
		name, cfg, err := ParseTenantSpec(c.in)
		if c.ok {
			if err != nil || name != c.name || cfg != c.cfg {
				t.Errorf("ParseTenantSpec(%q) = %q, %+v, %v; want %q, %+v", c.in, name, cfg, err, c.name, c.cfg)
			}
		} else if !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("ParseTenantSpec(%q) = %v, want ErrInvalidInput", c.in, err)
		}
	}
}

// FuzzParseTenantSpec: the parser never panics, never accepts a name the
// tenant validator rejects, and accepted specs re-render and re-parse to
// the same contract.
func FuzzParseTenantSpec(f *testing.F) {
	for _, seed := range []string{"a:1", "team-a:4:2:16:4", "b:2:0:8", ":::", "x:9999999999999999999", "a:1:2:3:4:5"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		name, cfg, err := ParseTenantSpec(spec)
		if err != nil {
			if !errors.Is(err, megaerr.ErrInvalidInput) {
				t.Fatalf("ParseTenantSpec(%q) error %v is not ErrInvalidInput", spec, err)
			}
			return
		}
		if err := ValidateTenant(name); err != nil {
			t.Fatalf("ParseTenantSpec(%q) accepted name %q that ValidateTenant rejects: %v", spec, name, err)
		}
		if cfg.Weight < 1 || cfg.MaxRunning < 0 || cfg.MaxQueued < 0 || cfg.Burst < 0 || cfg.CacheBytes < 0 {
			t.Fatalf("ParseTenantSpec(%q) accepted out-of-range config %+v", spec, cfg)
		}
		rendered := fmt.Sprintf("%s:%d:%d:%d:%d:%d", name, cfg.Weight, cfg.MaxRunning, cfg.MaxQueued, cfg.Burst, cfg.CacheBytes)
		name2, cfg2, err := ParseTenantSpec(rendered)
		if err != nil || name2 != name || cfg2 != cfg {
			t.Fatalf("round-trip %q -> %q = %q, %+v, %v; want original", spec, rendered, name2, cfg2, err)
		}
	})
}

// TestTenantConfigValidation: New rejects malformed tenant tables.
func TestTenantConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative weight", Config{Run: okRun, Tenants: map[string]TenantConfig{"a": {Weight: -1}}}},
		{"negative maxqueued", Config{Run: okRun, Tenants: map[string]TenantConfig{"a": {MaxQueued: -1}}}},
		{"burst without maxqueued", Config{Run: okRun, Tenants: map[string]TenantConfig{"a": {Burst: 2}}}},
		{"empty name", Config{Run: okRun, Tenants: map[string]TenantConfig{"": {Weight: 1}}}},
		{"bad name", Config{Run: okRun, Tenants: map[string]TenantConfig{"a b": {Weight: 1}}}},
		{"bad default", Config{Run: okRun, DefaultTenant: TenantConfig{MaxRunning: -2}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("%s: New = %v, want ErrInvalidInput", tc.name, err)
		}
	}
	if _, err := New(Config{Run: okRun, Tenants: map[string]TenantConfig{"a": {Weight: 3, MaxQueued: 2, Burst: 1}}}); err != nil {
		t.Errorf("valid tenant table rejected: %v", err)
	}
}

// TestSubmitRejectsBadTenant: a malformed tenant on the request fails
// fast with ErrInvalidInput, before admission.
func TestSubmitRejectsBadTenant(t *testing.T) {
	s, err := New(Config{Run: okRun})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"has space", "a:b", strings.Repeat("x", MaxTenantLen+1)} {
		if _, err := s.Submit(context.Background(), Request{Tenant: bad}); !errors.Is(err, megaerr.ErrInvalidInput) {
			t.Errorf("Submit tenant %q = %v, want ErrInvalidInput", bad, err)
		}
	}
	st := s.Stats()
	if st.Admitted != 0 || st.Rejected != 0 {
		t.Errorf("invalid tenants must not touch admission accounting: %+v", st)
	}
	mustClose(t, s)
}

// TestDefaultTenantBackCompat: untagged requests run under "default" and
// the per-tenant view mirrors the aggregate exactly.
func TestDefaultTenantBackCompat(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	s, err := New(Config{Run: okRun})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), Request{}); err != nil {
			t.Fatalf("Submit = %v", err)
		}
	}
	// An explicit "default" tag is the same tenant, not a second one.
	if _, err := s.Submit(context.Background(), Request{Tenant: DefaultTenantName}); err != nil {
		t.Fatalf("Submit explicit default = %v", err)
	}
	mustClose(t, s)
	st := s.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Name != DefaultTenantName {
		t.Fatalf("tenants = %+v, want exactly the default tenant", st.Tenants)
	}
	ts := st.Tenants[0]
	if ts.Admitted != st.Admitted || ts.Completed != st.Completed || ts.Weight != 1 {
		t.Errorf("default tenant %+v does not mirror aggregate %+v", ts, st)
	}
}

// TestTenantWeightedFairShares is the starvation property test: three
// tenants at weights 1/2/4 saturate a capacity-1 service; grants are
// released one at a time so the dequeue order is fully deterministic.
// Completed shares must match weight shares exactly over whole scheduler
// periods, and no tenant may wait more than one period between grants —
// the oldest waiter's age (driven by an injectable clock, one tick per
// grant, no wall-time sleeps) is bounded.
func TestTenantWeightedFairShares(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	const perTenant = 20
	const grants = 28 // four full periods of the weight-7 schedule
	weights := map[string]int{"w1": 1, "w2": 2, "w4": 4}

	started := make(chan string)
	release := make(chan struct{})
	run := func(ctx context.Context, req *Request) ([][]float64, RunReport, error) {
		select {
		case started <- req.Tenant:
		case <-ctx.Done():
			return nil, RunReport{}, megaerr.Canceled("stub", ctx.Err())
		}
		select {
		case <-release:
			return [][]float64{{0}}, RunReport{Attempts: 1}, nil
		case <-ctx.Done():
			return nil, RunReport{}, megaerr.Canceled("stub", ctx.Err())
		}
	}
	s, err := New(Config{
		Run: run, Capacity: 1, QueueDepth: 64,
		Tenants: map[string]TenantConfig{
			"w1": {Weight: 1}, "w2": {Weight: 2}, "w4": {Weight: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(0, 0)}
	s.now = clock.now

	// One blocker holds the single slot while the backlog builds.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), Request{Tenant: "w1"}); err != nil {
			t.Errorf("blocker = %v", err)
		}
	}()
	if got := <-started; got != "w1" {
		t.Fatalf("first grant to %q, want the w1 blocker", got)
	}
	for name := range weights {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := s.Submit(context.Background(), Request{Tenant: name}); err != nil {
					t.Errorf("feeder %s = %v", name, err)
				}
			}(name)
		}
	}
	waitFor(t, "backlog to queue", func() bool { return s.Stats().Queued == 3*perTenant })

	// Release grants one by one, recording the weighted-fair order. The
	// fake clock ticks once per grant, so "age" is measured in grants.
	counts := map[string]int{}
	lastSeen := map[string]int{"w1": 0, "w2": 0, "w4": 0}
	maxGap := map[string]int{}
	release <- struct{}{} // retire the blocker; dispatch picks the first waiter
	for i := 1; i <= grants; i++ {
		clock.advance(time.Second)
		name := <-started
		counts[name]++
		if gap := i - lastSeen[name]; gap > maxGap[name] {
			maxGap[name] = gap
		}
		lastSeen[name] = i
		release <- struct{}{}
	}

	want := map[string]int{"w1": 4, "w2": 8, "w4": 16}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("tenant %s completed %d of %d grants, want exactly %d (weight share)", name, counts[name], grants, n)
		}
	}
	// One full period is 7 grants; even the weight-1 tenant must be
	// served within every period, so no waiter ages past ~2 periods.
	for name, gap := range maxGap {
		if gap > 14 {
			t.Errorf("tenant %s max grant gap %d, want bounded by two scheduler periods", name, gap)
		}
	}

	// Drain the rest without ordering assertions.
	go func() {
		for range started {
			release <- struct{}{}
		}
	}()
	wg.Wait()
	close(started)
	mustClose(t, s)
	st := s.Stats()
	if st.Admitted != st.Completed || st.Shed != 0 {
		t.Errorf("saturation run accounting: %+v, want all admitted completed, none shed", st)
	}
}

// TestTenantMaxRunningCap: a tenant's MaxRunning bounds its concurrency
// below service capacity, and the spare capacity stays available to
// other tenants.
func TestTenantMaxRunningCap(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{
		Run: run, Capacity: 3, QueueDepth: 8,
		Tenants: map[string]TenantConfig{"capped": {Weight: 1, MaxRunning: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Request{Tenant: "capped"}); err != nil {
				t.Errorf("capped Submit = %v", err)
			}
		}()
	}
	<-started
	waitFor(t, "capped tenant to queue behind its own cap", func() bool {
		st := s.Stats()
		return st.Running == 1 && st.Queued == 2
	})

	// Another tenant walks straight into the spare capacity.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Request{Tenant: "other"}); err != nil {
				t.Errorf("other Submit = %v", err)
			}
		}()
	}
	<-started
	<-started
	st := s.Stats()
	if st.Running != 3 || st.Queued != 2 {
		t.Fatalf("stats = %+v, want 3 running (1 capped + 2 other) and 2 capped queued", st)
	}
	close(release)
	wg.Wait()
	mustClose(t, s)
}

// TestTenantMaxQueuedCap: past its explicit queue cap a tenant is
// rejected tenant-scoped ("tenant queue full") at equal priority, while a
// higher-priority arrival sheds the tenant's own lowest waiter instead.
func TestTenantMaxQueuedCap(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{
		Run: run, Capacity: 1, QueueDepth: 16,
		Tenants: map[string]TenantConfig{"capped": {Weight: 1, MaxQueued: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Tenant: "capped"})
		blockerDone <- err
	}()
	<-started

	queuedErrs := make(chan error, 4)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Submit(context.Background(), Request{Tenant: "capped", Priority: PriorityLow})
			queuedErrs <- err
		}()
	}
	waitFor(t, "tenant queue to fill", func() bool { return s.Stats().Queued == 2 })

	// Equal priority past the cap: tenant-scoped rejection, even though
	// the global queue has 14 free slots.
	_, err = s.Submit(context.Background(), Request{Tenant: "capped", Priority: PriorityLow})
	var oe *megaerr.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "tenant queue full" || oe.Tenant != "capped" {
		t.Fatalf("over-cap Submit = %v (%+v), want tenant queue full for capped", err, oe)
	}

	// Higher priority sheds the tenant's own lowest-priority waiter.
	highDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Tenant: "capped", Priority: PriorityHigh})
		highDone <- err
	}()
	shedErr := <-queuedErrs
	if !errors.As(shedErr, &oe) || oe.Reason != "shed by same-tenant higher-priority request" || oe.Tenant != "capped" {
		t.Fatalf("shed waiter = %v (%+v), want same-tenant shed", shedErr, oe)
	}

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-highDone; err != nil {
		t.Fatalf("high-priority Submit = %v", err)
	}
	if err := <-queuedErrs; err != nil {
		t.Fatalf("surviving waiter = %v", err)
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

// TestTenantBurstAllowance: Burst extends an explicit queue cap while the
// global queue has room, and burst waiters are the first shed when an
// under-quota tenant needs the space.
func TestTenantBurstAllowance(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{
		Run: run, Capacity: 1, QueueDepth: 3,
		Tenants: map[string]TenantConfig{"bursty": {Weight: 1, MaxQueued: 1, Burst: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Tenant: "other"})
		blockerDone <- err
	}()
	<-started

	// The bursty tenant queues MaxQueued+Burst = 3 while the queue is open.
	burstErrs := make(chan error, 4)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := s.Submit(context.Background(), Request{Tenant: "bursty"})
			burstErrs <- err
		}()
	}
	waitFor(t, "burst to queue", func() bool { return s.Stats().Queued == 3 })

	// The global queue is now full and bursty is over its base quota: an
	// under-quota tenant's arrival sheds a burst waiter, any priority.
	otherDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Tenant: "other", Priority: PriorityLow})
		otherDone <- err
	}()
	shedErr := <-burstErrs
	var oe *megaerr.OverloadError
	if !errors.As(shedErr, &oe) || oe.Reason != "shed over tenant quota" || oe.Tenant != "bursty" {
		t.Fatalf("burst shed = %v (%+v), want quota shed of the bursty tenant", shedErr, oe)
	}

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-otherDone; err != nil {
		t.Fatalf("under-quota arrival = %v, want admitted via quota shed", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-burstErrs; err != nil {
			t.Fatalf("surviving burst waiter = %v", err)
		}
	}
	mustClose(t, s)
}

// TestTenantIsolationShedOrder: with the global queue filled by one
// tenant's flood, a second tenant's arrival sheds the flooder's work —
// never waits behind it, never loses its own — and the flooder cannot
// shed back while the victim tenant is under quota.
func TestTenantIsolationShedOrder(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{Run: run, Capacity: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Tenant: "good"})
		blockerDone <- err
	}()
	<-started

	// The abuser floods the whole queue (4 > its fair half of 4).
	abuserErrs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := s.Submit(context.Background(), Request{Tenant: "abuser"})
			abuserErrs <- err
		}()
	}
	waitFor(t, "abuser flood to queue", func() bool { return s.Stats().Queued == 4 })

	// The good tenant's normal-priority arrival sheds abuser work.
	goodDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Tenant: "good"})
		goodDone <- err
	}()
	shedErr := <-abuserErrs
	var oe *megaerr.OverloadError
	if !errors.As(shedErr, &oe) || oe.Reason != "shed over tenant quota" || oe.Tenant != "abuser" {
		t.Fatalf("shed = %v (%+v), want the abuser shed over quota", shedErr, oe)
	}

	// The abuser's next arrival cannot displace the good tenant: the only
	// over-quota tenant is itself, and equal priority cannot shed.
	_, err = s.Submit(context.Background(), Request{Tenant: "abuser"})
	if !errors.As(err, &oe) || !errors.Is(err, megaerr.ErrOverload) {
		t.Fatalf("abuser re-flood = %v, want overload rejection", err)
	}
	if oe.Reason == "shed over tenant quota" {
		t.Fatalf("abuser arrival shed someone: %+v", oe)
	}
	if st := s.Stats(); st.Queued != 4 {
		t.Fatalf("queued = %d, want the good tenant's waiter retained", st.Queued)
	}

	close(release)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-goodDone; err != nil {
		t.Fatalf("good tenant Submit = %v, want success", err)
	}
	for i := 0; i < 3; i++ {
		if err := <-abuserErrs; err != nil {
			t.Fatalf("surviving abuser waiter = %v", err)
		}
	}
	mustClose(t, s)

	st := s.Stats()
	var good, abuser *TenantStats
	for i := range st.Tenants {
		switch st.Tenants[i].Name {
		case "good":
			good = &st.Tenants[i]
		case "abuser":
			abuser = &st.Tenants[i]
		}
	}
	if good == nil || abuser == nil {
		t.Fatalf("tenant stats missing: %+v", st.Tenants)
	}
	if good.Shed != 0 || good.Completed != 2 {
		t.Errorf("good tenant %+v, want 2 completed and nothing shed", good)
	}
	if abuser.Shed != 1 || abuser.Rejected != 1 {
		t.Errorf("abuser tenant %+v, want 1 shed and 1 rejected", abuser)
	}
	for _, ts := range st.Tenants {
		if ts.Admitted != ts.Completed+ts.Failed+ts.Canceled+ts.Shed {
			t.Errorf("tenant %s conservation violated: %+v", ts.Name, ts)
		}
	}
}

// TestTenantAuditRecorded: Close records the per-tenant conservation
// audit alongside the aggregate one, and both pass.
func TestTenantAuditRecorded(t *testing.T) {
	reg := metrics.New()
	s, err := New(Config{Run: okRun, Metrics: reg, Tenants: map[string]TenantConfig{"a": {Weight: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"", "a", "b", "a"} {
		if _, err := s.Submit(context.Background(), Request{Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, s)
	snap := reg.Snapshot()
	found := map[string]bool{}
	for _, a := range snap.Audits {
		if a.Name == "serve.accounting" || a.Name == "serve.tenant_accounting" {
			found[a.Name] = true
			if !a.OK {
				t.Errorf("audit %s failed: %s", a.Name, a.Detail)
			}
		}
	}
	if !found["serve.accounting"] || !found["serve.tenant_accounting"] {
		t.Errorf("audits recorded = %v, want both accounting audits", found)
	}
	if got := reg.Counter("serve_tenant_admitted", "tenant", "a").Value(); got != 2 {
		t.Errorf("serve_tenant_admitted{tenant=a} = %d, want 2", got)
	}
	if got := reg.Counter("serve_tenant_queries", "tenant", "b", "state", "completed").Value(); got != 1 {
		t.Errorf("serve_tenant_queries{tenant=b,state=completed} = %d, want 1", got)
	}
}

// TestTenantStatsVisibleBeforeTraffic: configured tenants appear in Stats
// (with their contracts) before their first request, so operators can see
// the table they deployed.
func TestTenantStatsVisibleBeforeTraffic(t *testing.T) {
	s, err := New(Config{Run: okRun, Tenants: map[string]TenantConfig{
		"b": {Weight: 2, MaxRunning: 1},
		"a": {Weight: 4, MaxQueued: 8, Burst: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Tenants) != 2 || st.Tenants[0].Name != "a" || st.Tenants[1].Name != "b" {
		t.Fatalf("tenants = %+v, want a then b (sorted)", st.Tenants)
	}
	a := st.Tenants[0]
	if a.Weight != 4 || a.MaxQueued != 8 || a.Burst != 2 || a.RetryAfterHintMs <= 0 {
		t.Errorf("tenant a = %+v, want its configured contract and a positive hint", a)
	}
	mustClose(t, s)
}

// TestTenantRetryHintScalesWithWeight: under the same backlog, a
// heavier tenant is told to come back sooner — its share of capacity
// drains its queue faster.
func TestTenantRetryHintScalesWithWeight(t *testing.T) {
	testutil.NoGoroutineLeak(t)
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	run, _ := blockingRun(started, release)
	s, err := New(Config{
		Run: run, Capacity: 4, QueueDepth: 8,
		Tenants: map[string]TenantConfig{
			"heavy": {Weight: 3, MaxQueued: 2},
			"light": {Weight: 1, MaxQueued: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Submit(context.Background(), Request{Tenant: tenant})
			}()
		}
	}
	submit("heavy", 4) // 4 running? capacity 4 shared; fill capacity first
	for i := 0; i < 4; i++ {
		<-started
	}
	submit("heavy", 2)
	submit("light", 2)
	waitFor(t, "both tenants to saturate their queue caps", func() bool { return s.Stats().Queued == 4 })

	var heavyOE, lightOE *megaerr.OverloadError
	_, err = s.Submit(context.Background(), Request{Tenant: "heavy"})
	if !errors.As(err, &heavyOE) {
		t.Fatalf("heavy overflow = %v", err)
	}
	_, err = s.Submit(context.Background(), Request{Tenant: "light"})
	if !errors.As(err, &lightOE) {
		t.Fatalf("light overflow = %v", err)
	}
	if heavyOE.RetryAfter <= 0 || lightOE.RetryAfter <= 0 {
		t.Fatalf("retry hints = %s / %s, want both positive", heavyOE.RetryAfter, lightOE.RetryAfter)
	}
	// Same queue depth (2 each), but heavy's share of capacity is 3 of 4
	// vs light's 1 of 4: heavy drains in one wave, light needs three.
	if heavyOE.RetryAfter >= lightOE.RetryAfter {
		t.Errorf("heavy hint %s not shorter than light hint %s", heavyOE.RetryAfter, lightOE.RetryAfter)
	}
	close(release)
	wg.Wait()
	mustClose(t, s)
}
