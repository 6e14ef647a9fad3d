package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mega"
	"mega/internal/httpfront"
)

// rounds is how many server processes a gated run measures: each round
// is a fresh megaserve with its own set-up, so setup_s is the median of
// three set-ups and qps and rss_mb come from three independent servers.
const rounds = 3

// slices is how many stretches of load a gated round is cut into, and
// calSlice how long the calibration kernel runs before the set-up, after
// it and after every stretch (the clients pause, the server idles). The
// host's speed moves by ±10 % within seconds, so a sample only before and
// after a whole round misses what the round itself ran at (README,
// "Host-speed calibration").
const (
	slices   = 4
	calSlice = 350 * time.Millisecond
)

// bench is one invocation's fixed context.
type bench struct {
	root    string // repo checkout
	workdir string // scratch inside the checkout; removed on exit
	bin     string // the megaserve built from this checkout
	buildS  float64
	seed    int64
	seconds float64
	clients int
	host    hostBlock
}

// prepared is what a workload needs before any server starts: the
// window megaserve will synthesize, rebuilt here so keys and reference
// values come from the benchmark process, never from the server.
type prepared struct {
	w        *mega.Window
	seq      keySeq
	hot      []key
	verify   *verifier
	events   map[key]int64 // engine events per reference key
	evolveMs float64
	windowMs float64
}

// buildWindow repeats cmd/megaserve's default synthesis (-snapshots 16
// -batch 0.01 -imbalance 1, evolution seed 42) for the named graph.
func buildWindow(graph string) (ev *mega.Evolution, w *mega.Window, evolveMs, windowMs float64, err error) {
	for _, spec := range mega.PaperGraphs() {
		if spec.Name != graph {
			continue
		}
		t0 := time.Now()
		ev, err = mega.Evolve(spec, mega.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Imbalance: 1, Seed: 42})
		if err != nil {
			return nil, nil, 0, 0, err
		}
		t1 := time.Now()
		w, err = mega.NewWindow(ev)
		return ev, w, ms(t1.Sub(t0)), ms(time.Since(t1)), err
	}
	return nil, nil, 0, 0, fmt.Errorf("unknown graph %q", graph)
}

// prepare builds the window, the seeded key sequence and the reference
// values: all hot keys for a hot workload, and the first wl.Refs keys of
// the cold sequence (which the traced ladder also climbs).
func (b *bench) prepare(ctx context.Context, wl workload) (*prepared, error) {
	ev, w, evolveMs, windowMs, err := buildWindow(wl.Graph)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, evolveMs: evolveMs, windowMs: windowMs, events: map[key]int64{}}
	p.seq = newKeySeq(eligibleSources(w.NumVertices(), ev.Initial), b.seed)
	if p.seq.Len() < wl.Refs+warmupKeys*rounds+rounds {
		return nil, fmt.Errorf("%s: only %d keys", wl.Name, p.seq.Len())
	}
	p.verify = &verifier{snapshots: w.NumSnapshots(), vertices: w.NumVertices(), refs: map[key][][]float64{}}
	var want []key
	if wl.Hot {
		p.hot = p.seq.Hot()
		want = append(want, p.hot...)
	}
	for i := 0; i < wl.Refs; i++ {
		want = append(want, p.seq.At(i))
	}
	for _, k := range want {
		if _, done := p.verify.refs[k]; done {
			continue
		}
		var st mega.Stats
		vals, err := mega.EvaluateContext(ctx, w, k.Algo, k.Source, &st)
		if err != nil {
			return nil, fmt.Errorf("reference %s source %d: %w", k.Algo, k.Source, err)
		}
		p.verify.refs[k] = vals
		p.events[k] = st.Events
	}
	return p, nil
}

// session is one megaserve process with its clients, warmed up.
type session struct {
	srv     *server
	clients []*httpfront.Client
	dir     string
	setupS  float64   // exec → ready, plus warm-up
	next    keySource // the measured phase's keys
}

// open starts round r's server for the workload, warms it (the 24-key
// fill for a hot workload, warmupKeys unrecorded queries otherwise) and
// returns it ready to measure. planRounds is how many sessions share the
// cold sequence.
func (b *bench) open(ctx context.Context, wl workload, p *prepared, r, planRounds int) (_ *session, err error) {
	s := &session{}
	if s.dir, err = os.MkdirTemp(b.workdir, wl.Name+"-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.abort()
		}
	}()
	args := []string{"-graph", wl.Graph}
	if wl.Durable {
		args = append(args, "-state-dir", filepath.Join(s.dir, "state"))
	}
	start := time.Now()
	if s.srv, err = startServer(ctx, b.bin, s.dir, args...); err != nil {
		return nil, err
	}
	for c := 0; c < b.clients; c++ {
		cl, err := newClient(s.srv.url)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}

	var warm []key
	if wl.Hot {
		warm = p.hot
		s.next = hotSource(p.hot, b.seed, r, b.clients)
	} else {
		plan := newColdPlan(p.seq, wl.Refs, r, planRounds)
		for i := 0; i < warmupKeys; i++ {
			warm = append(warm, plan.Warmup(i))
		}
		s.next = plan.Source()
	}
	res := runRound(ctx, s.clients, 0, listSource(warm), p.verify, nil)
	if res.Failed > 0 || res.Attempted != len(warm) {
		return nil, fmt.Errorf("%s warm-up: %d of %d queries failed: %v", wl.Name, res.Failed, len(warm), res.Errors)
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// abort tears a session down without asking questions.
func (s *session) abort() {
	for _, cl := range s.clients {
		cl.Close()
	}
	if s.srv != nil {
		s.srv.kill()
	}
	os.RemoveAll(s.dir)
}

// closed is what a session leaves behind.
type closed struct {
	stats *httpfront.StatsReply
	rssMB float64
	cpuS  float64
}

// close reads the server's books and process counters, drains it with
// SIGTERM (a clean exit 0 is required) and removes its directory.
func (s *session) close(ctx context.Context) (*closed, error) {
	defer os.RemoveAll(s.dir)
	out := &closed{}
	var err error
	if out.stats, err = s.clients[0].Stats(ctx); err == nil {
		out.rssMB, out.cpuS, err = s.srv.procStats()
	}
	for _, cl := range s.clients {
		cl.Close()
	}
	if err != nil {
		s.srv.kill()
		return nil, fmt.Errorf("reading server state: %w; stderr tail:\n%s", err, s.srv.stderr.String())
	}
	if err := s.srv.stop(); err != nil {
		return nil, err
	}
	st := out.stats
	if st.Admitted != st.Completed+st.Failed+st.Canceled+st.Shed {
		return nil, fmt.Errorf("/stats does not conserve: admitted %d != completed %d + failed %d + canceled %d + shed %d",
			st.Admitted, st.Completed, st.Failed, st.Canceled, st.Shed)
	}
	return out, nil
}

// checkRound turns a measured round's anomalies into result notes; any
// note makes the run incorrect.
func checkRound(wl workload, label string, r roundResult) (notes []string) {
	for _, e := range r.Errors {
		notes = append(notes, fmt.Sprintf("%s %s: %s", wl.Name, label, e))
	}
	if r.Exhausted {
		notes = append(notes, fmt.Sprintf("%s %s: key sequence used up before the round ended; shorten -seconds", wl.Name, label))
	}
	ok := r.Attempted - r.Failed
	if wl.Hot && r.CacheHits != ok {
		notes = append(notes, fmt.Sprintf("%s %s: %d of %d responses were not cache hits", wl.Name, label, ok-r.CacheHits, ok))
	}
	if !wl.Hot && r.CacheHits != 0 {
		notes = append(notes, fmt.Sprintf("%s %s: %d cache hits on never-repeated keys", wl.Name, label, r.CacheHits))
	}
	return notes
}

// runGated is a --trace 0 run: rounds fresh servers, tracing off, the
// end-to-end metrics.
func (b *bench) runGated(ctx context.Context, wl workload) (*runResult, error) {
	p, err := b.prepare(ctx, wl)
	if err != nil {
		return nil, err
	}
	res := b.newResult(wl, 0)
	sliceDur := time.Duration(b.seconds / (rounds * slices) * float64(time.Second))
	var pool roundResult
	var lat, latRaw, qps, qpsRaw, rss, setup, setupRaw, speeds []float64
	cal := newCalibrator()
	edge := cal.speed(calSlice)
	// atRef closes the interval since the last calibration slice with a new
	// one and returns the kernel's speed over the interval and the factor
	// that takes the interval's timing numbers to the reference host speed.
	atRef := func() (speed, f float64) {
		next := cal.speed(calSlice)
		speed = (edge + next) / 2
		edge = next
		return speed, speedFactor(speed)
	}
	for r := 0; r < rounds; r++ {
		s, err := b.open(ctx, wl, p, r, rounds)
		if err != nil {
			return nil, err
		}
		_, f := atRef()
		setup, setupRaw = append(setup, s.setupS*f), append(setupRaw, s.setupS)
		var round roundResult
		var roundQPS, roundQPSRaw, roundSpeed []float64
		for i := 0; i < slices; i++ {
			rr := runRound(ctx, s.clients, sliceDur, s.next, p.verify, nil)
			speed, f := atRef()
			for _, l := range rr.LatMs {
				lat = append(lat, l*f)
			}
			roundQPS, roundQPSRaw = append(roundQPS, rr.QPS/f), append(roundQPSRaw, rr.QPS)
			roundSpeed = append(roundSpeed, speed)
			round.merge(rr)
		}
		c, err := s.close(ctx)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, checkRound(wl, fmt.Sprintf("round %d", r+1), round)...)
		pool.merge(round)
		latRaw = append(latRaw, round.LatMs...)
		qps, qpsRaw = append(qps, mean(roundQPS)), append(qpsRaw, mean(roundQPSRaw))
		rss, speeds = append(rss, c.rssMB), append(speeds, mean(roundSpeed))
		res.Rounds = append(res.Rounds, roundSummary{
			QPS: mean(roundQPSRaw), P50Ms: percentile(round.LatMs, 50), P90Ms: percentile(round.LatMs, 90),
			RSSMB: c.rssMB, SetupS: s.setupS, ReadyS: s.srv.readyS, Samples: len(round.LatMs), HostSpeed: mean(roundSpeed),
		})
	}
	res.Attempted, res.Failed = pool.Attempted, pool.Failed
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %v", wl.Name, pool.Errors)
	}
	// Throughput and memory are per-server numbers, averaged over the
	// rounds (between identical runs the mean repeated better than the
	// median of three: README, "Measured steadiness"); set-up is the median
	// of the three set-ups. Latency percentiles pool the rounds' samples,
	// which is what puts ≥ 10 samples beyond p90 on the slow workload.
	res.set(endToEnd, "qps", mean(qps), rounds)
	res.set(endToEnd, "p50_ms", percentile(lat, 50), len(lat))
	res.set(endToEnd, "p90_ms", percentile(lat, 90), len(lat))
	res.set(endToEnd, "rss_mb", mean(rss), rounds)
	res.set(endToEnd, "setup_s", median(setup), rounds)
	res.HostSpeed = mean(speeds)
	res.Raw = map[string]float64{
		"qps": mean(qpsRaw), "p50_ms": percentile(latRaw, 50), "p90_ms": percentile(latRaw, 90), "setup_s": median(setupRaw),
	}
	if !percentileSteady(len(lat), 90) {
		res.Warnings = append(res.Warnings, fmt.Sprintf("p90_ms has only %d samples beyond it (want >= %d); lengthen -seconds",
			samplesBeyond(len(lat), 90), minBeyond))
	}
	res.BitVerified = pool.BitVerified
	res.Correct = len(res.Notes) == 0 && res.Failed == 0
	return res, nil
}

// runTraced is a --trace 1 run: one server measured untraced, traced,
// untraced (so drift cancels out of the tracing overhead), its books,
// then the in-process ladder and the simulators once the server is gone.
func (b *bench) runTraced(ctx context.Context, wl workload) (*runResult, error) {
	p, err := b.prepare(ctx, wl)
	if err != nil {
		return nil, err
	}
	res := b.newResult(wl, 1)
	tr := newTracer()
	roundDur := time.Duration(b.seconds / 3 * float64(time.Second))

	s, err := b.open(ctx, wl, p, 0, 1)
	if err != nil {
		return nil, err
	}
	var parts [3]roundResult
	var all roundResult
	cal := newCalibrator()
	speeds := []float64{cal.speed(calSlice)}
	for i, label := range []string{"untraced round 1", "traced round", "untraced round 2"} {
		var t *tracer
		if i == 1 {
			t = tr
		}
		parts[i] = runRound(ctx, s.clients, roundDur, s.next, p.verify, t)
		speeds = append(speeds, cal.speed(calSlice))
		res.Notes = append(res.Notes, checkRound(wl, label, parts[i])...)
		all.merge(parts[i])
	}
	c, err := s.close(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.BitVerified = all.Attempted, all.Failed, all.BitVerified
	if len(parts[0].LatMs) == 0 || len(parts[1].WaitMs) == 0 || len(parts[2].LatMs) == 0 {
		return nil, fmt.Errorf("%s: a round had no successful request: %v", wl.Name, all.Errors)
	}

	// The server's own books and process counters.
	st := c.stats
	n := len(all.LatMs)
	res.set(perLayer, "serve.admitted", float64(st.Admitted), 1)
	res.set(perLayer, "serve.engine_runs", float64(st.EngineRuns), 1)
	res.set(perLayer, "serve.cache_hits", float64(st.CacheHits), 1)
	res.set(perLayer, "serve.coalesced", float64(st.CoalescedQueries), 1)
	res.set(perLayer, "serve.batched", float64(st.BatchedQueries), 1)
	res.set(perLayer, "serve.shed", float64(st.Shed), 1)
	res.set(perLayer, "serve.failed", float64(st.Failed), 1)
	hitShare := 0.0
	if st.Cache.Lookups > 0 {
		hitShare = float64(st.Cache.Hits) / float64(st.Cache.Lookups)
	}
	res.set(perLayer, "qcache.hit_share", hitShare, int(st.Cache.Lookups))
	res.set(perLayer, "qcache.evictions", float64(st.Cache.Evictions), 1)
	res.set(perLayer, "megaserve.cpu_ms_per_query", c.cpuS*1000/float64(st.Completed), int(st.Completed))
	res.set(perLayer, "serve.queue_wait_ms", median(all.QueueWaitMs), n)
	res.set(perLayer, "serve.run_ms", median(all.RunMs), n)

	// Client-side spans of the traced round.
	res.set(perLayer, "http.wait_ms", median(parts[1].WaitMs), len(parts[1].WaitMs))
	res.set(perLayer, "http.transfer_ms", median(parts[1].TransferMs), len(parts[1].TransferMs))
	res.set(perLayer, "http.decode_ms", median(parts[1].DecodeMs), len(parts[1].DecodeMs))

	// The load generator about itself.
	untraced := append(append([]float64(nil), parts[0].LatMs...), parts[2].LatMs...)
	res.set(perLayer, "loadgen.p99_ms", percentile(untraced, 99), len(untraced))
	res.set(perLayer, "loadgen.samples", float64(len(untraced)), 1)
	res.set(perLayer, "loadgen.fail_share", float64(all.Failed)/float64(all.Attempted), all.Attempted)
	a, z := parts[0], parts[2]
	res.set(perLayer, "loadgen.round_spread_qps", spread([]float64{a.QPS, z.QPS}), 2)
	res.set(perLayer, "loadgen.round_spread_p50", spread([]float64{percentile(a.LatMs, 50), percentile(z.LatMs, 50)}), 2)
	res.set(perLayer, "loadgen.round_spread_p90", spread([]float64{percentile(a.LatMs, 90), percentile(z.LatMs, 90)}), 2)
	res.set(perLayer, "loadgen.trace_overhead_share", 1-parts[1].QPS/((a.QPS+z.QPS)/2), 3)
	res.set(perLayer, "loadgen.build_s", b.buildS, 1)
	res.set(perLayer, "loadgen.host_speed", mean(speeds), len(speeds))
	res.HostSpeed = mean(speeds)
	res.set(perLayer, "gen.evolve_ms", p.evolveMs, 1)
	res.set(perLayer, "evolve.window_ms", p.windowMs, 1)

	// The ladder, with the server gone.
	keys := make([]key, wl.Refs)
	for i := range keys {
		keys[i] = p.seq.At(i)
	}
	runtime.GC()
	lad, err := runLadder(ctx, p.w, keys, storeKeysFor(wl), p.verify, p.events, b.workdir, tr)
	if err != nil {
		return nil, err
	}
	for name, vals := range lad.vals {
		res.set(perLayer, name, median(vals), len(vals))
	}
	res.Warnings = append(res.Warnings, lad.notes()...)

	// The paper oracle, always on PK′ SSSP BOE from the seed's first source.
	simW, simSeq := p.w, p.seq
	if wl.Graph != "PK" {
		ev, w, _, _, err := buildWindow("PK")
		if err != nil {
			return nil, err
		}
		simW, simSeq = w, newKeySeq(eligibleSources(w.NumVertices(), ev.Initial), b.seed)
	}
	sim, err := runSimulators(simW, simSeq.At(0).Source, tr)
	if err != nil {
		return nil, err
	}
	res.set(perLayer, "sim.boe_cycles", float64(sim.boeCycles), 2)
	res.set(perLayer, "sim.events", float64(sim.events), 2)
	res.set(perLayer, "uarch.boe_cycles", float64(sim.uarchCycles), 2)
	res.set(perLayer, "sim.host_ms", sim.simHostMs, 2)
	res.set(perLayer, "uarch.host_ms", sim.uarchHostMs, 2)

	res.TraceFile = filepath.Join(b.root, "benchmark", "out", "trace.json")
	if err := tr.write(res.TraceFile); err != nil {
		return nil, err
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
	}
	res.Correct = len(res.Notes) == 0 && res.Failed == 0
	return res, nil
}

// storeKeysFor is how many ladder keys also climb the store rungs, which
// fsync several times per checkpoint: 8 at PK′ scale, 2 at Wen′ scale.
func storeKeysFor(wl workload) int {
	if wl.Refs >= 8 {
		return 8
	}
	return min(wl.Refs, 2)
}
