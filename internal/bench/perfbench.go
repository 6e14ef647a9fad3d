package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	"mega/internal/algo"
	"mega/internal/engine"
	"mega/internal/evolve"
	"mega/internal/gen"
	"mega/internal/graph"
	"mega/internal/sched"
)

// The perf-regression harness measures engine throughput with Go's
// benchmark machinery (testing.Benchmark) rather than the cycle-level
// simulator: it answers "did this commit make the software engines
// slower?", not "what would the accelerator do?". The sequential Multi
// engine and the Parallel engine at 1/2/4/8 workers run the same BOE
// workload; results serialize to BENCH_parallel.json so CI and future PRs
// can diff against the committed numbers.

// PerfResult is one engine configuration's measurement.
type PerfResult struct {
	// Name identifies the configuration ("sequential" or "parallel-N").
	Name string `json:"name"`
	// Workers is the parallel worker count; 0 for the sequential engine.
	Workers int `json:"workers"`
	// Iterations is the b.N the benchmark settled on.
	Iterations int   `json:"iterations"`
	NsPerOp    int64 `json:"ns_per_op"`
	// EventsPerOp is the engine's processed-event count for one full run.
	// For the sequential row it is the count under a Stats probe — the
	// hardware model's, every seed read and discarded at a PE — which
	// anchors EventsInflation.
	EventsPerOp int64 `json:"events_per_op"`
	// EventsPerSec is the throughput headline: events processed per
	// wall-clock second by the timed run. The timed sequential run is
	// unprobed and filters seeds at generation, so its rate counts the
	// events that run takes from its queues, not EventsPerOp.
	EventsPerSec float64 `json:"events_per_sec"`
	// EventsInflation is EventsPerOp divided by the sequential engine's
	// EventsPerOp: how much redundant work this configuration performs to
	// avoid locks. 1.0 for the sequential row by construction. The ideal
	// is 1.0; sender-side coalescing and generation filtering exist to
	// push it there.
	EventsInflation float64 `json:"events_inflation,omitempty"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
}

// ProcsResult is one point of the worker-count × GOMAXPROCS scaling
// trajectory: the parallel engine with Workers == Procs, measured with
// GOMAXPROCS pinned to Procs for the duration of the measurement.
type ProcsResult struct {
	// Procs is both the worker count and the GOMAXPROCS value.
	Procs   int   `json:"procs"`
	NsPerOp int64 `json:"ns_per_op"`
	// EventsPerOp is the engine's processed-event count for one run at
	// this worker count (parallel engines process more events than the
	// sequential Multi engine — redundant work is the price of no locks).
	EventsPerOp  int64   `json:"events_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is wall-clock relative to the trajectory's Procs=1 point
	// (ns1 / nsN). Points past NumCPU measure oversubscription.
	Speedup float64 `json:"speedup"`
}

// PerfReport is the full regression record emitted as BENCH_parallel.json.
type PerfReport struct {
	// Workload pins the measured configuration so future runs compare
	// like with like.
	Workload string `json:"workload"`
	// GoMaxProcs records the parallelism available when measuring —
	// worker scaling numbers are meaningless without it.
	GoMaxProcs int `json:"gomaxprocs"`
	// NumCPU records the machine's real core count. Trajectory points at
	// or below it measure scaling; points above it measure
	// oversubscription. Committed numbers are only honest alongside it.
	NumCPU    int          `json:"num_cpu"`
	Timestamp string       `json:"timestamp,omitempty"`
	Results   []PerfResult `json:"results"`
	// Trajectory is the worker-count × GOMAXPROCS sweep (optional).
	Trajectory []ProcsResult `json:"trajectory,omitempty"`
}

// perfWorkload mirrors the root bench_test.go workload: a 2k-vertex RMAT
// evolution, 16 snapshots, 1% batches, SSSP from the heaviest hub.
func perfWorkload(quick bool) (*evolve.Window, graph.VertexID, error) {
	spec := gen.GraphSpec{
		Name: "perf", Vertices: 2_048, Edges: 40_960,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 77,
	}
	es := gen.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Seed: 7}
	if quick {
		spec.Vertices, spec.Edges = 1_024, 20_480
		es.Snapshots = 8
	}
	ev, err := gen.Evolve(spec, es)
	if err != nil {
		return nil, 0, err
	}
	w, err := evolve.NewWindow(ev)
	if err != nil {
		return nil, 0, err
	}
	deg := make([]int, spec.Vertices)
	best := 0
	for _, e := range ev.Initial {
		deg[e.Src]++
		if deg[e.Src] > deg[best] {
			best = int(e.Src)
		}
	}
	return w, graph.VertexID(best), nil
}

// countEvents runs one engine end to end, outside the timed benchmark, and
// returns its processed-event total. For the sequential engine (workers 0)
// events is the count under a Stats probe — seeds as the hardware
// generates them — and timed is what benchOnce's unprobed run takes from
// its queues (seeds filtered at generation); the parallel engine has one
// count.
func countEvents(w *evolve.Window, src graph.VertexID, workers int) (events, timed int64, err error) {
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		return 0, 0, err
	}
	if workers == 0 {
		var st engine.Stats
		for _, probe := range []engine.Probe{&st, nil} {
			eng, err := engine.NewMulti(w, algo.New(algo.SSSP), src, probe)
			if err != nil {
				return 0, 0, err
			}
			if err := eng.Run(s); err != nil {
				return 0, 0, err
			}
			_, _, timed = eng.QueueCounters()
		}
		return st.Events, timed, nil
	}
	eng, err := engine.NewParallel(w, algo.New(algo.SSSP), src, workers)
	if err != nil {
		return 0, 0, err
	}
	if err := eng.Run(s); err != nil {
		return 0, 0, err
	}
	return eng.Events(), eng.Events(), nil
}

// benchOnce runs the full schedule-build + engine-run cycle once; the
// closure shape matches what BenchmarkParallelWorkersN in the root
// bench_test.go measures, so JSON numbers and `go test -bench` numbers are
// directly comparable.
func benchOnce(w *evolve.Window, src graph.VertexID, workers int) error {
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		return err
	}
	if workers == 0 {
		eng, err := engine.NewMulti(w, algo.New(algo.SSSP), src, nil)
		if err != nil {
			return err
		}
		return eng.Run(s)
	}
	eng, err := engine.NewParallel(w, algo.New(algo.SSSP), src, workers)
	if err != nil {
		return err
	}
	return eng.Run(s)
}

// RunPerfBench measures the sequential engine and the parallel engine at
// the given worker counts (nil means 1/2/4/8) and returns the report.
// rounds > 1 repeats every measurement and keeps the fastest ns/op, which
// suppresses scheduler and neighbor noise on shared machines.
func RunPerfBench(quick bool, workerCounts []int, rounds int, log io.Writer) (*PerfReport, error) {
	if workerCounts == nil {
		workerCounts = []int{1, 2, 4, 8}
	}
	if rounds < 1 {
		rounds = 1
	}
	w, src, err := perfWorkload(quick)
	if err != nil {
		return nil, err
	}
	rep := &PerfReport{
		Workload: fmt.Sprintf("rmat v=%d snapshots=%d batch=1%% algo=SSSP sched=BOE",
			w.NumVertices(), w.NumSnapshots()),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	configs := []int{0} // 0 = sequential Multi
	configs = append(configs, workerCounts...)
	for _, workers := range configs {
		name := "sequential"
		if workers > 0 {
			name = fmt.Sprintf("parallel-%d", workers)
		}
		events, timed, err := countEvents(w, src, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		var best testing.BenchmarkResult
		for round := 0; round < rounds; round++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := benchOnce(w, src, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
			if round == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
			if log != nil {
				fmt.Fprintf(log, "[perf %s round %d/%d: %s]\n", name, round+1, rounds, r.String())
			}
		}
		res := PerfResult{
			Name:        name,
			Workers:     workers,
			Iterations:  best.N,
			NsPerOp:     best.NsPerOp(),
			EventsPerOp: events,
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
		}
		if res.NsPerOp > 0 {
			res.EventsPerSec = float64(timed) / (float64(res.NsPerOp) / 1e9)
		}
		rep.Results = append(rep.Results, res)
	}
	sort.SliceStable(rep.Results, func(i, j int) bool {
		return rep.Results[i].Workers < rep.Results[j].Workers
	})
	// The sequential row (Workers == 0) sorts first and anchors the
	// inflation column.
	if len(rep.Results) > 0 && rep.Results[0].Workers == 0 && rep.Results[0].EventsPerOp > 0 {
		seq := float64(rep.Results[0].EventsPerOp)
		for i := range rep.Results {
			rep.Results[i].EventsInflation = float64(rep.Results[i].EventsPerOp) / seq
		}
	}
	return rep, nil
}

// InflationResult is one deterministic event-inflation measurement: the
// parallel engine's processed-event count at one worker count and
// GOMAXPROCS setting, relative to the sequential Multi engine on the same
// workload.
type InflationResult struct {
	// Workers is the parallel engine's worker (shard) count.
	Workers int `json:"workers"`
	// Procs is the GOMAXPROCS value the engine ran under. 1 exercises
	// the lock-free direct path; ≥2 exercises real mailbox delivery
	// through the sender-side coalescing table. The two paths suppress
	// redundant events by different mechanisms, so CI gates both.
	Procs       int   `json:"procs"`
	EventsPerOp int64 `json:"events_per_op"`
	// Inflation is EventsPerOp divided by the sequential engine's count.
	Inflation float64 `json:"events_inflation"`
}

// RunInflationGate measures the parallel engine's event inflation —
// events per op divided by the sequential engine's events per op on the
// perf workload — with no timing involved, so the numbers are exact and
// reproducible on a loaded CI box. Every worker count (nil means 1/2/4/8)
// is measured under GOMAXPROCS=1 and GOMAXPROCS=2. Returns the per-point
// results and the sequential baseline count. The caller's GOMAXPROCS is
// restored before returning.
func RunInflationGate(quick bool, workerCounts []int, log io.Writer) ([]InflationResult, int64, error) {
	if workerCounts == nil {
		workerCounts = []int{1, 2, 4, 8}
	}
	w, src, err := perfWorkload(quick)
	if err != nil {
		return nil, 0, err
	}
	seq, _, err := countEvents(w, src, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("sequential: %w", err)
	}
	if seq == 0 {
		return nil, 0, fmt.Errorf("sequential engine processed no events")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var out []InflationResult
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range workerCounts {
			ev, _, err := countEvents(w, src, workers)
			if err != nil {
				return nil, 0, fmt.Errorf("parallel-%d procs=%d: %w", workers, procs, err)
			}
			r := InflationResult{
				Workers: workers, Procs: procs, EventsPerOp: ev,
				Inflation: float64(ev) / float64(seq),
			}
			out = append(out, r)
			if log != nil {
				fmt.Fprintf(log, "[inflation workers=%d procs=%d: %d events/op, %.3fx]\n",
					workers, procs, ev, r.Inflation)
			}
		}
	}
	return out, seq, nil
}

// DefaultTrajectoryProcs returns the GOMAXPROCS values the trajectory
// sweeps by default: powers of two up to the machine's real core count,
// plus one 2× oversubscription point so the committed record shows where
// adding workers stops paying.
func DefaultTrajectoryProcs() []int {
	n := runtime.NumCPU()
	var procs []int
	for p := 1; p <= n; p *= 2 {
		procs = append(procs, p)
	}
	if len(procs) == 0 || procs[len(procs)-1] != n {
		procs = append(procs, n)
	}
	return append(procs, 2*n)
}

// RunPerfTrajectory measures the worker-count × GOMAXPROCS scaling
// trajectory: for each p in procs (nil = DefaultTrajectoryProcs), the
// parallel engine runs with p workers under GOMAXPROCS(p). The caller's
// GOMAXPROCS is restored before returning. rounds > 1 keeps the fastest
// ns/op per point.
func RunPerfTrajectory(quick bool, procs []int, rounds int, log io.Writer) ([]ProcsResult, error) {
	if procs == nil {
		procs = DefaultTrajectoryProcs()
	}
	if rounds < 1 {
		rounds = 1
	}
	w, src, err := perfWorkload(quick)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var out []ProcsResult
	for _, p := range procs {
		if p < 1 {
			return nil, fmt.Errorf("trajectory: procs value %d < 1", p)
		}
		// Pin first: the engine captures GOMAXPROCS at construction, and
		// the events a run processes depend on it.
		runtime.GOMAXPROCS(p)
		events, _, err := countEvents(w, src, p)
		if err != nil {
			return nil, fmt.Errorf("trajectory procs=%d: %w", p, err)
		}
		var best testing.BenchmarkResult
		for round := 0; round < rounds; round++ {
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := benchOnce(w, src, p); err != nil {
						b.Fatal(err)
					}
				}
			})
			if round == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
			if log != nil {
				fmt.Fprintf(log, "[trajectory procs=%d round %d/%d: %s]\n", p, round+1, rounds, r.String())
			}
		}
		res := ProcsResult{Procs: p, NsPerOp: best.NsPerOp(), EventsPerOp: events}
		if res.NsPerOp > 0 {
			res.EventsPerSec = float64(events) / (float64(res.NsPerOp) / 1e9)
		}
		out = append(out, res)
	}
	runtime.GOMAXPROCS(prev)
	if len(out) > 0 && out[0].NsPerOp > 0 {
		base := float64(out[0].NsPerOp)
		for i := range out {
			if out[i].NsPerOp > 0 {
				out[i].Speedup = base / float64(out[i].NsPerOp)
			}
		}
	}
	return out, nil
}

// WriteJSON serializes the report with stable indentation (committed to
// the repo, so diffs should be reviewable).
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Fprint renders the report as an aligned text table.
func (r *PerfReport) Fprint(w io.Writer) {
	t := Table{
		ID:     "perf",
		Title:  fmt.Sprintf("Engine throughput (%s, GOMAXPROCS=%d)", r.Workload, r.GoMaxProcs),
		Header: []string{"Engine", "ns/op", "events/s", "inflation", "allocs/op", "B/op"},
	}
	for _, res := range r.Results {
		infl := "-"
		if res.EventsInflation > 0 {
			infl = fmt.Sprintf("%.2fx", res.EventsInflation)
		}
		t.Rows = append(t.Rows, []string{
			res.Name,
			fmt.Sprintf("%d", res.NsPerOp),
			fmt.Sprintf("%.3g", res.EventsPerSec),
			infl,
			fmt.Sprintf("%d", res.AllocsPerOp),
			fmt.Sprintf("%d", res.BytesPerOp),
		})
	}
	t.Fprint(w)
	if len(r.Trajectory) == 0 {
		return
	}
	tt := Table{
		ID:     "perf-trajectory",
		Title:  fmt.Sprintf("Workers × GOMAXPROCS scaling trajectory (NumCPU=%d)", r.NumCPU),
		Header: []string{"Procs", "ns/op", "events/s", "speedup"},
	}
	for _, p := range r.Trajectory {
		tt.Rows = append(tt.Rows, []string{
			fmt.Sprintf("%d", p.Procs),
			fmt.Sprintf("%d", p.NsPerOp),
			fmt.Sprintf("%.3g", p.EventsPerSec),
			fmt.Sprintf("%.2fx", p.Speedup),
		})
	}
	tt.Fprint(w)
}
