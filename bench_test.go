// Benchmarks regenerating the paper's evaluation, one benchmark group per
// table/figure, plus core-kernel microbenchmarks. These run on reduced
// workloads so `go test -bench=.` finishes quickly; the full paper-scale
// sweeps are produced by cmd/megabench.
package mega_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"sync"
	"testing"

	"mega"
	"mega/internal/algo"
	"mega/internal/bench"
	"mega/internal/engine"
	"mega/internal/evolve"
	"mega/internal/gen"
	"mega/internal/httpfront"
	"mega/internal/power"
	"mega/internal/sched"
	"mega/internal/sim"
	"mega/internal/swcost"
)

var (
	benchOnce sync.Once
	benchEv   *gen.Evolution
	benchWin  *evolve.Window
	benchHG   *sim.HopGraphs
	benchSrc  mega.VertexID
)

func benchWorkload(b testing.TB) (*gen.Evolution, *evolve.Window, *sim.HopGraphs, mega.VertexID) {
	b.Helper()
	benchOnce.Do(func() {
		spec := gen.GraphSpec{
			Name: "bench", Vertices: 2_048, Edges: 40_960,
			A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 77,
		}
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Seed: 7})
		if err != nil {
			panic(err)
		}
		win, err := evolve.NewWindow(ev)
		if err != nil {
			panic(err)
		}
		hg, err := sim.BuildHopGraphs(ev)
		if err != nil {
			panic(err)
		}
		benchEv, benchWin, benchHG, benchSrc = ev, win, hg, hubOf(ev)
	})
	return benchEv, benchWin, benchHG, benchSrc
}

var (
	wenOnce sync.Once
	wenWin  *evolve.Window
	wenSrc  mega.VertexID
)

// wenWorkload is the Wen′ stand-in (26,624 v / 800K e) as megaserve
// -graph Wen serves it: 16 snapshots, 1% batches, evolution seed 42.
func wenWorkload(b testing.TB) (*evolve.Window, mega.VertexID) {
	b.Helper()
	wenOnce.Do(func() {
		spec, _ := gen.PaperGraph("Wen")
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Seed: 42})
		if err != nil {
			panic(err)
		}
		if wenWin, err = evolve.NewWindow(ev); err != nil {
			panic(err)
		}
		wenSrc = hubOf(ev)
	})
	return wenWin, wenSrc
}

// hubOf returns G_0's highest out-degree vertex, the benchmarks' source.
func hubOf(ev *gen.Evolution) mega.VertexID {
	deg := make([]int, ev.NumVertices)
	best := 0
	for _, e := range ev.Initial {
		deg[e.Src]++
		if deg[e.Src] > deg[best] {
			best = int(e.Src)
		}
	}
	return mega.VertexID(best)
}

// --- Figure 2: deletion vs addition batch cost on JetStream ---

func BenchmarkFig02_JetStreamWindow(b *testing.B) {
	ev, _, hg, src := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunJetStreamOn(ev, hg, algo.SSSP, src, sim.JetStreamConfig(), false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: schedule generation and addition counting ---

func BenchmarkFig03_ScheduleDirectHop(b *testing.B) {
	_, win, _, _ := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		_ = sched.NewDirectHop(win).AdditionsProcessed()
	}
}

func BenchmarkFig03_ScheduleWorkSharing(b *testing.B) {
	_, win, _, _ := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		_ = sched.NewWorkSharing(win).AdditionsProcessed()
	}
}

func BenchmarkFig03_ScheduleBOE(b *testing.B) {
	_, win, _, _ := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		_ = sched.NewBOE(win).AdditionsProcessed()
	}
}

// --- Figures 4/5: the reuse measurement machinery (functional engine) ---

func BenchmarkFig04_05_FunctionalBOE(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := sched.New(sched.BOE, win)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.NewMulti(win, algo.New(algo.SSSP), src, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: round-series capture ---

func BenchmarkFig10_RoundSeries(b *testing.B) {
	ev, _, hg, src := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunJetStreamOn(ev, hg, algo.SSWP, src, sim.JetStreamConfig(), true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4: the four simulated workflows ---

func benchmarkMEGA(b *testing.B, mode sched.Mode, k algo.Kind) {
	_, win, _, src := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunMEGA(win, k, src, mode, sim.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_DirectHop(b *testing.B)   { benchmarkMEGA(b, sched.DirectHop, algo.SSSP) }
func BenchmarkTable4_WorkSharing(b *testing.B) { benchmarkMEGA(b, sched.WorkSharing, algo.SSSP) }
func BenchmarkTable4_BOE(b *testing.B)         { benchmarkMEGA(b, sched.BOE, algo.SSSP) }
func BenchmarkTable4_BOE_SSWP(b *testing.B)    { benchmarkMEGA(b, sched.BOE, algo.SSWP) }

// --- Figure 14: software baseline pricing ---

func BenchmarkFig14_SoftwareModels(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	r, err := sim.RunMEGA(win, algo.SSSP, src, sched.WorkSharing, sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	counts := swcost.FromStats(r.Counts, 4_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = swcost.KickStarter.RuntimeMs(counts)
		_ = swcost.RisGraph.RuntimeMs(counts)
		_ = swcost.RisGraphBOE.RuntimeMs(counts)
		_ = swcost.Subway.RuntimeMs(counts)
	}
}

// --- Figure 15: partitioned configuration ---

func BenchmarkFig15_SmallMemoryBOE(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	cfg := sim.DefaultConfig()
	cfg.OnChipBytes = 64 << 10 // forces partitioning
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunMEGA(win, algo.SSSP, src, sched.BOE, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 16-18: counter extraction ---

func BenchmarkFig16to18_Counters(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	for i := 0; i < b.N; i++ {
		r, err := sim.RunMEGA(win, algo.BFS, src, sched.BOE, sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		_ = r.Counts.EdgesRead + r.Counts.Events + r.Counts.Applied
	}
}

// --- Figures 19-21: workload synthesis for the sweeps ---

func BenchmarkFig19_BatchSizePoint(b *testing.B) {
	spec := gen.GraphSpec{
		Name: "sweep", Vertices: 2_048, Edges: 40_960,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 78,
	}
	for i := 0; i < b.N; i++ {
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 16, BatchFraction: 0.002, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := evolve.NewWindow(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig20_SnapshotCountPoint(b *testing.B) {
	spec := gen.GraphSpec{
		Name: "sweep", Vertices: 2_048, Edges: 40_960,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 79,
	}
	for i := 0; i < b.N; i++ {
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 24, BatchFraction: 0.001, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := evolve.NewWindow(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21_ImbalancedWindow(b *testing.B) {
	spec := gen.GraphSpec{
		Name: "sweep", Vertices: 2_048, Edges: 40_960,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 80,
	}
	for i := 0; i < b.N; i++ {
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Imbalance: 4, Seed: 9})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := evolve.NewWindow(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: power/area model ---

func BenchmarkTable5_PowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = power.Model(power.MEGA())
		_, _ = power.Overheads()
	}
}

// --- Core kernels ---

func BenchmarkCore_StaticSolveSSSP(b *testing.B) {
	ev, _, hg, src := benchWorkload(b)
	_ = ev
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = engine.Solve(hg.G0, algo.New(algo.SSSP), src, engine.NopProbe{})
	}
}

func BenchmarkCore_WindowConstruction(b *testing.B) {
	ev, _, _, _ := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evolve.NewWindow(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCore_RMATGeneration(b *testing.B) {
	spec := gen.GraphSpec{
		Name: "rmat", Vertices: 2_048, Edges: 40_960,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 81,
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := gen.RMAT(spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCore_EvaluatePublicAPI(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mega.Evaluate(win, mega.SSSP, src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Query-path layer ledger: one query priced at each seam ---
//
// The same 2k-vertex smoke query through engine construction, the bare
// engine (also at Wen′ scale), the recovery wrapper without and with a
// checkpoint consumer, and the query service with sharing off (every
// Submit is a miss). B/op and allocs/op are the deterministic proxies CI
// gates on (TestRecoverNoSinkIsPayAsYouGo).

// BenchmarkLayerNewMulti prices engine construction alone, on a window
// whose batch tags are already resident (every query of a served window
// but the first).
func BenchmarkLayerNewMulti(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	if _, err := win.BatchOf(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.NewMulti(win, algo.New(algo.SSSP), src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func layerEvaluateContext(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	evaluateContextLoop(b, win, mega.SSSP, src)
}

func evaluateContextLoop(b *testing.B, win *evolve.Window, k mega.AlgorithmKind, src mega.VertexID) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mega.EvaluateContext(context.Background(), win, k, src); err != nil {
			b.Fatal(err)
		}
	}
}

// wenTail is the Wen′ rows' second source: an ordinary vertex (out-degree
// 34, near the end of R-MAT's id range) beside the hub. The hub is the
// cheapest source a round-synchronous base solve can be given — it scanned
// 1.74 M edges from there and 2.29 M from here, SSSP — and cold-wen draws
// its sources from all over the graph.
const wenTail mega.VertexID = 26_000

// wenKeys runs fn once per algorithm of the key cycle the benchmark's
// cold-wen workload serves and per source, so the ledger prices what that
// workload runs.
func wenKeys(b *testing.B, fn func(b *testing.B, win *evolve.Window, k mega.AlgorithmKind, src mega.VertexID)) {
	win, hub := wenWorkload(b)
	for _, k := range []mega.AlgorithmKind{mega.SSSP, mega.BFS, mega.SSWP, mega.Viterbi} {
		for _, src := range []mega.VertexID{hub, wenTail} {
			name := fmt.Sprintf("%v/v%d", k, src)
			if src == hub {
				name = k.String() + "/hub"
			}
			b.Run(name, func(b *testing.B) { fn(b, win, k, src) })
		}
	}
}

// BenchmarkLayerEvaluateContextWen is the bare-engine row at the paper
// stand-in scale, where the per-event work dominates what is fixed per
// query.
func BenchmarkLayerEvaluateContextWen(b *testing.B) { wenKeys(b, evaluateContextLoop) }

// BenchmarkLayerBaseSolveWen is the part of that row every cold query pays
// in full before its first batch: the static solve of the CommonGraph.
func BenchmarkLayerBaseSolveWen(b *testing.B) {
	wenKeys(b, func(b *testing.B, win *evolve.Window, k mega.AlgorithmKind, src mega.VertexID) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mega.SolveContext(context.Background(), win.CommonCSR(), k, src, nil, mega.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func layerEvaluateRecover(b *testing.B, opt mega.RecoverOptions) {
	_, win, _, src := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mega.EvaluateRecover(context.Background(), win, mega.SSSP, src, mega.BOE, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func discardSink([]byte) error { return nil }

func BenchmarkLayerEvaluateContext(b *testing.B) { layerEvaluateContext(b) }

func BenchmarkLayerEvaluateRecover(b *testing.B) {
	layerEvaluateRecover(b, mega.RecoverOptions{})
}

func BenchmarkLayerEvaluateRecoverSink(b *testing.B) {
	layerEvaluateRecover(b, mega.RecoverOptions{Sink: discardSink})
}

// BenchmarkLayerEvaluateRecoverStore is the durable rung: every periodic
// checkpoint of the smoke query written to a store in a temp dir (segment
// write, read-back, rename) and the query's directory deleted at the end,
// as megaserve -state-dir runs a query.
func BenchmarkLayerEvaluateRecoverStore(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	store, err := mega.OpenCheckpointStore(mega.CheckpointStoreConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := store.Close(); err != nil {
			b.Error(err)
		}
	}()
	id, err := mega.CheckpointIDFor(win, mega.SSSP, src, "")
	if err != nil {
		b.Fatal(err)
	}
	layerEvaluateRecover(b, mega.RecoverOptions{Store: store, StoreID: id})
}

func BenchmarkLayerSubmitMiss(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	svc, err := mega.NewQueryService(mega.ServeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Submit(context.Background(), mega.QueryRequest{Window: win, Algo: mega.SSSP, Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayerSubmitHit is Submit answered from the result cache: the
// lookup and the copy-out of the cached snapshots, no engine.
func BenchmarkLayerSubmitHit(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	svc, err := mega.NewQueryService(mega.ServeOptions{CacheBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close(context.Background())
	req := mega.QueryRequest{Window: win, Algo: mega.SSSP, Source: src}
	if _, err := svc.Submit(context.Background(), req); err != nil { // the miss that fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Submit(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Cache != "hit" {
			b.Fatalf("query %d was served as cache=%q, not a hit", i, res.Report.Cache)
		}
	}
}

// BenchmarkLayerLoopbackHit is the top rung of the ledger: the smoke query
// answered from the result cache by a real httpfront.Server and fetched by
// a real httpfront.Client over a loopback TCP connection — Submit's hit
// path plus the whole wire (a 350 KB body: encode, kernel, decode).
func BenchmarkLayerLoopbackHit(b *testing.B) {
	_, win, _, src := benchWorkload(b)
	svc, err := mega.NewQueryService(mega.ServeOptions{CacheBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	front, err := httpfront.New(httpfront.Config{Service: svc, Window: win})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- front.Serve(ln) }()
	defer func() {
		if err := errors.Join(front.Shutdown(context.Background()), <-served); err != nil {
			b.Error(err)
		}
	}()
	client, err := httpfront.NewClient(httpfront.ClientConfig{BaseURL: "http://" + ln.Addr().String()})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	spec := httpfront.QuerySpec{Algo: "SSSP", Source: int64(src)}
	if _, err := client.Query(context.Background(), spec); err != nil { // the miss that fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := client.Query(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Cache != "hit" {
			b.Fatalf("query %d was served as cache=%q, not a hit", i, res.Report.Cache)
		}
	}
}

// Checkpoints a Sink receives from one fault-free smoke query at the
// default cadence — their count, total bytes, and a CRC over all of them
// in delivery order. The count is the one measured before recovery became
// pay-as-you-go; bytes and CRC were re-pinned when the unprobed engine
// began filtering seeds at generation, which leaves a mid-stage
// checkpoint's queue only the seeds that improve their target (474,660
// fewer bytes over the 31). The sink path must stay byte-identical to it.
const (
	smokeSinkCheckpoints = 31
	smokeSinkBytes       = 8_395_566
	smokeSinkCRC         = 0x47b02346
)

// B/op of one SSSP EvaluateContext from the hub, on the smoke window and at
// Wen′, as measured when the base solve's two V-row round queues became an
// 8 B/vertex heap (624,916–624,962 and 8,033,347–8,033,534 over GOMAXPROCS
// 1, 2 and 4), rounded up past the few hundred bytes the runtime's own
// allocations move it by. Before that: 723,262 and 9,311,342; before the
// engine's state became vertex-major: 1,271,214 and 16,480,305.
const (
	smokeEngineBytes = 626_000
	wenEngineBytes   = 8_040_000
)

// TestRecoverNoSinkIsPayAsYouGo is the deterministic proxy gate for the
// recovery wrapper's cost (wired into ci.sh): with no Sink or Store a
// fault-free EvaluateRecover encodes no checkpoint and allocates within
// 1.25× of the bare engine, the checkpoint counter families stay
// registered (at zero) so the metrics contract holds, a Sink still
// receives exactly the pinned checkpoints, and constructing an engine on
// a window whose batch tags are resident allocates nothing proportional
// to the edge count.
func TestRecoverNoSinkIsPayAsYouGo(t *testing.T) {
	_, win, _, src := benchWorkload(t)

	reg := mega.NewMetricsRegistry()
	if _, _, err := mega.EvaluateRecover(context.Background(), win, mega.SSSP, src, mega.BOE,
		mega.RecoverOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := reg.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if err := mega.ValidateMetricsJSON(snap.Bytes(), "checkpoint_taken", "checkpoint_restored", "recover_attempts"); err != nil {
		t.Errorf("metrics contract: %v", err)
	}
	if n := reg.Counter("checkpoint_taken", "engine", "multi").Value(); n != 0 {
		t.Errorf("no-sink run recorded checkpoint_taken = %d, want 0", n)
	}

	var count, size int
	crc := crc32.NewIEEE()
	sinkReg := mega.NewMetricsRegistry()
	sink := func(b []byte) error {
		count++
		size += len(b)
		crc.Write(b)
		return nil
	}
	if _, _, err := mega.EvaluateRecover(context.Background(), win, mega.SSSP, src, mega.BOE,
		mega.RecoverOptions{Sink: sink, Metrics: sinkReg}); err != nil {
		t.Fatal(err)
	}
	if count != smokeSinkCheckpoints || size != smokeSinkBytes || crc.Sum32() != smokeSinkCRC {
		t.Errorf("sink saw %d checkpoints, %d bytes, crc %#x; want %d, %d, %#x",
			count, size, crc.Sum32(), smokeSinkCheckpoints, smokeSinkBytes, smokeSinkCRC)
	}
	if n := sinkReg.Counter("checkpoint_taken", "engine", "multi").Value(); n != smokeSinkCheckpoints {
		t.Errorf("sink run recorded checkpoint_taken = %d, want %d", n, smokeSinkCheckpoints)
	}

	bare := testing.Benchmark(layerEvaluateContext).AllocedBytesPerOp()
	wrapped := testing.Benchmark(func(b *testing.B) { layerEvaluateRecover(b, mega.RecoverOptions{}) }).AllocedBytesPerOp()
	t.Logf("B/op: EvaluateContext %d, EvaluateRecover (no sink) %d (%.2fx)", bare, wrapped, float64(wrapped)/float64(bare))
	if bare == 0 || float64(wrapped) > 1.25*float64(bare) {
		t.Errorf("no-sink EvaluateRecover allocates %d B/op, over 1.25x EvaluateContext's %d", wrapped, bare)
	}
	// Ceilings on the bare engine itself, at both scales: what it allocates
	// per query today — the base solve's heap, the transposed result and the
	// round queues' rows. (The ratio above survives -race; an absolute count
	// does not.)
	if !raceEnabled {
		wen := testing.Benchmark(func(b *testing.B) {
			win, src := wenWorkload(b)
			evaluateContextLoop(b, win, mega.SSSP, src)
		}).AllocedBytesPerOp()
		t.Logf("B/op: EvaluateContext at Wen' %d", wen)
		if bare > smokeEngineBytes || wen > wenEngineBytes {
			t.Errorf("EvaluateContext allocates %d B/op (smoke) and %d B/op (Wen'), over the ceilings %d and %d",
				bare, wen, smokeEngineBytes, wenEngineBytes)
		}
	}

	// The tag slice NewMulti used to build per engine: 4 bytes per union
	// edge. A microsecond operation needs no benchmark loop to price.
	tagBytes := uint64(4 * win.Unified().NumUnionEdges())
	const constructions = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < constructions; i++ {
		if _, err := engine.NewMulti(win, algo.New(algo.SSSP), src, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	construct := (after.TotalAlloc - before.TotalAlloc) / constructions
	t.Logf("B/op: NewMulti %d (the window's tag slice is %d)", construct, tagBytes)
	if construct >= tagBytes {
		t.Errorf("NewMulti allocates %d B/op on a window with resident tags, not below the %d-byte tag slice", construct, tagBytes)
	}
}

// Guard: the experiment registry stays runnable end to end on a minimal
// context (exercised as a benchmark so `-bench` covers the harness too).
func BenchmarkHarness_Fig3(b *testing.B) {
	c := bench.NewContext()
	c.Graphs = []gen.GraphSpec{{
		Name: "Wen", Vertices: 1_024, Edges: 20_480,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 82,
	}}
	c.Algos = []algo.Kind{algo.SSSP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig3(c); err != nil {
			b.Fatal(err)
		}
	}
}
