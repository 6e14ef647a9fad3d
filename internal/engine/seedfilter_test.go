package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/fault"
	"mega/internal/gen"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/sched"
)

// smokeWindow is the 2k-vertex perf workload (the root bench_test.go
// workload): RMAT 2,048 v / 40,960 e, 16 snapshots, 1% batches, queried
// from the heaviest hub of G_0.
func smokeWindow(t testing.TB) (*evolve.Window, graph.VertexID) {
	t.Helper()
	spec := gen.GraphSpec{
		Name: "perf", Vertices: 2_048, Edges: 40_960,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 77,
	}
	ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w, err := evolve.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	return w, hubOf(ev)
}

// hubOf returns G_0's highest out-degree vertex, the benchmarks' source.
func hubOf(ev *gen.Evolution) graph.VertexID {
	deg := make([]int, ev.NumVertices)
	best := 0
	for _, e := range ev.Initial {
		deg[e.Src]++
		if deg[e.Src] > deg[best] {
			best = int(e.Src)
		}
	}
	return graph.VertexID(best)
}

// smokeProbedEvents is what a Stats probe counts for SSSP under BOE on the
// smoke window: the hardware model's event count, which EXPERIMENTS.md's
// numbers rest on. Measured on the commit before seeds were
// generation-filtered; a probed run must never move it.
const smokeProbedEvents = 28_217

// runMulti runs one engine over srcs (one source: NewMulti) and
// returns the per-source snapshots and the engine.
func runMulti(t *testing.T, w *evolve.Window, a algo.Algorithm, s *sched.Schedule, srcs []graph.VertexID, probe Probe) ([][][]float64, *Multi) {
	t.Helper()
	m, err := NewMultiSource(w, a, srcs, probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	out := make([][][]float64, len(srcs))
	for k := range srcs {
		out[k] = make([][]float64, w.NumSnapshots())
		for snap := range out[k] {
			out[k][snap] = m.SnapshotValuesFor(s, k, snap)
		}
	}
	return out, m
}

// midRunCheckpoint kills a run of the engine mk builds with a transient
// fault at the middle one of its round boundaries and returns the live
// checkpoint taken there (nil when the run has no rounds to be killed in).
func midRunCheckpoint(t *testing.T, label string, s *sched.Schedule, mk func() *Multi) []byte {
	t.Helper()
	counter := fault.NewPlan(1)
	if err := mk().RunContext(fault.Inject(context.Background(), counter), s, Limits{}); err != nil {
		t.Fatalf("%s: counting run: %v", label, err)
	}
	total := counter.Visits(fault.SiteEngineRound, fault.AnyShard)
	if total == 0 {
		return nil
	}
	plan := fault.NewPlan(1).Add(fault.Op{Site: fault.SiteEngineRound, Shard: fault.AnyShard, Kind: fault.KindTransient, Visit: (total + 1) / 2})
	victim := mk()
	if err := victim.RunContext(fault.Inject(context.Background(), plan), s, Limits{}); !megaerr.IsTransient(err) {
		t.Fatalf("%s: killed run returned %v, want a transient fault", label, err)
	}
	ckpt, err := victim.Checkpoint()
	if err != nil {
		t.Fatalf("%s: live checkpoint: %v", label, err)
	}
	return ckpt
}

// disguised hides a built-in algorithm behind another concrete type, the
// way a caller's wrapper would: same kind, same ops, but not one of algo's
// own types, so the engine must run it through the interface.
type disguised struct{ algo.Algorithm }

type disguisedSelfSeeding struct {
	algo.Algorithm
	algo.SelfSeeding
}

func disguise(a algo.Algorithm) algo.Algorithm {
	if ss, ok := a.(algo.SelfSeeding); ok {
		return disguisedSelfSeeding{a, ss}
	}
	return disguised{a}
}

// ssspKind makes any algorithm report a built-in's kind.
type ssspKind struct{ algo.Algorithm }

func (ssspKind) Kind() algo.Kind { return algo.SSSP }

// TestSeedFilterEquivalence proves the engine's two loops agree: the served
// loop (NopProbe and a built-in algorithm: ops by value, mask-bit iteration,
// seeds filtered at generation) changes no result and no priced count
// against the instrumented loop (interface ops, the hardware's seed loop).
// Over generated windows, all six algorithms (CC seeds every vertex
// itself), the three schedule modes and single- and multi-source runs — on
// the 16-snapshot smoke window with five sources, so every mode's rows span
// more than one mask word — a NopProbe run, a Stats-probed run and a
// NopProbe run of the same algorithm behind a wrapper type return
// Float64bits-identical snapshots; the filter only ever removes events, and
// the two instrumented runs process the same ones; and the probed count on
// the smoke window is the one pinned from before the filter existed. The
// loop is chosen by the algorithm's concrete type, never its Kind(): a
// diverging or panicking algorithm that reports SSSP still diverges and
// still panics. And the loops are interchangeable mid-run: a live
// checkpoint of a served run killed at its middle round resumes in the
// instrumented loop, and one of an instrumented run resumes in the served
// loop, to the same bits.
func TestSeedFilterEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1402))
	type win struct {
		w   *evolve.Window
		src graph.VertexID
	}
	wins := make([]win, 3)
	for i := range wins {
		w := randomWindow(t, r)
		wins[i] = win{w, graph.VertexID(r.Intn(w.NumVertices()))}
	}
	smoke, hub := smokeWindow(t)
	wins = append(wins, win{smoke, hub})

	kinds := append(append([]algo.Kind{}, algo.All...), algo.CC)
	for wi, wn := range wins {
		w := wn.w
		n := w.NumVertices()
		srcs := []graph.VertexID{wn.src, graph.VertexID((int(wn.src) + 1) % n), graph.VertexID((int(wn.src) + 2) % n)}
		if w == smoke {
			srcs = append(srcs, graph.VertexID((int(wn.src)+3)%n), graph.VertexID((int(wn.src)+4)%n))
		}
		for _, mode := range []sched.Mode{sched.DirectHop, sched.WorkSharing, sched.BOE} {
			s, err := sched.New(mode, w)
			if err != nil {
				t.Fatal(err)
			}
			if w == smoke && s.NumContexts*len(srcs) <= 64 {
				t.Fatalf("smoke %v: %d contexts x %d sources fit one mask word", mode, s.NumContexts, len(srcs))
			}
			for _, k := range kinds {
				a := algo.New(k)
				label := func(what string) string {
					return fmt.Sprintf("window %d %v %v %s", wi, mode, k, what)
				}
				plain, eng := runMulti(t, w, a, s, srcs[:1], nil)
				var st Stats
				probed, _ := runMulti(t, w, a, s, srcs[:1], &st)
				sameBits(t, label("probed"), probed[0], plain[0])
				if _, _, taken := eng.QueueCounters(); taken > st.Events {
					t.Fatalf("%s: unprobed run took %d events, probed run %d — the filter may only remove events",
						label("events"), taken, st.Events)
				}
				wrapped, wrappedEng := runMulti(t, w, disguise(a), s, srcs[:1], nil)
				sameBits(t, label("wrapped"), wrapped[0], plain[0])
				if _, _, taken := wrappedEng.QueueCounters(); taken != st.Events {
					t.Fatalf("%s: unprobed run of a wrapped algorithm took %d events, the probed run %d — both are the instrumented loop",
						label("events"), taken, st.Events)
				}
				if !eng.served || wrappedEng.served {
					t.Fatalf("%s: served loop chosen for built-in %v, for its wrapper %v; want true, false",
						label("loop"), eng.served, wrappedEng.served)
				}
				engines := []struct {
					name string
					mk   func() *Multi
				}{
					{"served", func() *Multi {
						m, _ := NewMulti(w, a, srcs[0], nil)
						return m
					}},
					{"instrumented", func() *Multi {
						m, _ := NewMulti(w, a, srcs[0], &Stats{})
						return m
					}},
				}
				for vi, victim := range engines {
					ckpt := midRunCheckpoint(t, label(victim.name), s, victim.mk)
					for hi, heir := range engines {
						if ckpt == nil || hi == vi {
							continue // the hand-off into and the one out of the served loop
						}
						eng := heir.mk()
						if err := eng.Restore(ckpt); err != nil {
							t.Fatalf("%s: Restore: %v", label(victim.name+" to "+heir.name), err)
						}
						if err := eng.RunContext(context.Background(), s, Limits{}); err != nil {
							t.Fatalf("%s: resumed run: %v", label(victim.name+" to "+heir.name), err)
						}
						sameBits(t, label(victim.name+" to "+heir.name), collectSnapshots(eng, s, w.NumSnapshots()), plain[0])
					}
				}
				if w == smoke && mode == sched.BOE && k == algo.SSSP && st.Events != smokeProbedEvents {
					t.Fatalf("%s: Stats.Events = %d, want the pinned %d", label("probed"), st.Events, smokeProbedEvents)
				}

				multi, _ := runMulti(t, w, a, s, srcs, nil)
				multiProbed, _ := runMulti(t, w, a, s, srcs, &Stats{})
				sameBits(t, label("multi-source[0]"), multi[0], plain[0])
				for i := range srcs {
					sameBits(t, label("multi-source probed"), multiProbed[i], multi[i])
				}
				for i := 1; i < len(srcs); i++ {
					single, _ := runMulti(t, w, a, s, srcs[i:i+1], &Stats{})
					sameBits(t, label("multi-source vs single"), multi[i], single[0])
				}
			}
		}
	}

	liar := ssspKind{flipFlop{}}
	if _, err := SolveContext(context.Background(), cycleWindow(t).CommonCSR(), liar, 0, NopProbe{}, Limits{}); !errors.Is(err, megaerr.ErrDivergence) {
		t.Fatalf("SolveContext of a diverging algorithm reporting SSSP: err = %v, want ErrDivergence", err)
	}
	w := batchCycleWindow(t)
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMulti(w, liar, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); !errors.Is(err, megaerr.ErrDivergence) {
		t.Fatalf("Multi run of a diverging algorithm reporting SSSP: err = %v, want ErrDivergence", err)
	}

	w = panickyWindow(t)
	if s, err = sched.New(sched.BOE, w); err != nil {
		t.Fatal(err)
	}
	if m, err = NewMulti(w, panicky{algo.New(algo.SSSP)}, 0, nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if got := recover(); got != "panicky EdgeFunc tripped" {
			t.Fatalf("Multi run of a panicking SSSP wrapper recovered %v, want its EdgeFunc's panic", got)
		}
	}()
	_ = m.Run(s)
}

// TestWindowBatchOfConcurrent is what a just-started server does: many
// goroutines construct an engine on a fresh window at once. Every engine
// must see the same shared tag slice, built once; run under -race this
// also proves the memo's publication is ordered.
func TestWindowBatchOfConcurrent(t *testing.T) {
	w := testMultiWindow(t, 6, 33)
	const n = 16
	engines := make([]*Multi, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			m, err := NewMulti(w, algo.New(algo.SSSP), 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = m
		}(i)
	}
	start.Done()
	done.Wait()
	if t.Failed() {
		return
	}
	want, err := w.BatchOf()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != w.Unified().NumUnionEdges() {
		t.Fatalf("BatchOf has %d tags for %d union edges", len(want), w.Unified().NumUnionEdges())
	}
	tagged := 0
	for _, b := range want {
		if b >= 0 {
			tagged++
		}
	}
	batchEdges := 0
	for _, b := range w.Batches() {
		batchEdges += len(b.Edges)
	}
	if tagged != batchEdges {
		t.Fatalf("%d union edges carry a batch tag, window has %d batch edges", tagged, batchEdges)
	}
	for i, m := range engines {
		if got := m.BatchOf(); len(got) != len(want) || &got[0] != &want[0] {
			t.Fatalf("engine %d holds its own tag slice, not the window's", i)
		}
	}
}
