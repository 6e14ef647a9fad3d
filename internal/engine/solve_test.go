package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/fault"
	"mega/internal/gen"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/testutil"
)

// solveGraph is one input of the static-solve property tests.
type solveGraph struct {
	name string
	g    *graph.CSR
	// zeroWeights marks a graph with weight-0 edges, where Viterbi's
	// src/wt improves on src: it still solves to the same bits, but
	// outside the settle-once bound.
	zeroWeights bool
}

// solveGraphs derives the static solve's inputs from randomEvolution: the
// CommonGraph (what a served query solves) and the denser last snapshot of
// each evolution, as drawn and with every weight lowered by one — weights
// in [0, 15], so zero-weight edges beside the ties — plus the graphs no
// generator draws: no vertex, one vertex, one vertex with a self-loop.
func solveGraphs(t *testing.T, r *rand.Rand) []solveGraph {
	t.Helper()
	graphs := []solveGraph{
		{name: "empty", g: graph.MustCSR(0, nil)},
		{name: "single", g: graph.MustCSR(1, nil)},
		{name: "self-loop", g: graph.MustCSR(1, []graph.Edge{{Src: 0, Dst: 0, Weight: 0}}), zeroWeights: true},
	}
	for i := 0; i < 3; i++ {
		ev := randomEvolution(t, r)
		for _, lowered := range []bool{false, true} {
			if lowered {
				for _, l := range append(append([]graph.EdgeList{ev.Initial}, ev.Adds...), ev.Dels...) {
					for j := range l {
						l[j].Weight--
					}
				}
			}
			w, err := evolve.NewWindow(ev)
			if err != nil {
				t.Fatal(err)
			}
			last := graph.MustCSR(w.NumVertices(), w.SnapshotEdges(w.NumSnapshots()-1))
			name := fmt.Sprintf("evolution %d lowered=%v", i, lowered)
			graphs = append(graphs,
				solveGraph{name + " common", w.CommonCSR(), lowered},
				solveGraph{name + " last", last, lowered})
		}
	}
	return graphs
}

// servedSolve runs the served solve alone, for its work counts.
func servedSolve(t *testing.T, g *graph.CSR, a algo.Algorithm, src graph.VertexID) (vals []float64, pops, scans int64) {
	t.Helper()
	o, served := servedOps(a, NopProbe{})
	if !served {
		t.Fatalf("%v is not served", a.Kind())
	}
	vals = make([]float64, g.NumVertices())
	for i := range vals {
		vals[i] = a.Identity()
	}
	pops, scans, err := solveServed(context.Background(), g, a, o, src, vals, Limits{}.withDefaults(len(vals), 1))
	if err != nil {
		t.Fatal(err)
	}
	return vals, pops, scans
}

// allKinds is the six built-ins.
var allKinds = append(append([]algo.Kind{}, algo.All...), algo.CC)

// TestServedSolveEquivalence: for every built-in, the best-first served
// solve returns the bits of the round-synchronous instrumented loop (the
// same algorithm behind a wrapper type) and of testutil.Reference, the
// Bellman-Ford oracle that shares no code with either — on graphs with
// ties, zero-weight edges, unreachable vertices, one vertex and none.
func TestServedSolveEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(2001))
	unreached := false
	for _, sg := range solveGraphs(t, r) {
		n := sg.g.NumVertices()
		srcs := []graph.VertexID{0}
		if n > 1 {
			srcs = append(srcs, graph.VertexID(r.Intn(n)), graph.VertexID(n-1))
		}
		for _, k := range allKinds {
			a := algo.New(k)
			if _, served := servedOps(disguise(a), NopProbe{}); served {
				t.Fatalf("%v behind a wrapper type is served", k)
			}
			for _, src := range srcs {
				label := fmt.Sprintf("%s %v from %d", sg.name, k, src)
				served, err := SolveContext(context.Background(), sg.g, a, src, NopProbe{}, Limits{})
				if err != nil {
					t.Fatalf("%s: served: %v", label, err)
				}
				instrumented, err := SolveContext(context.Background(), sg.g, disguise(a), src, NopProbe{}, Limits{})
				if err != nil {
					t.Fatalf("%s: instrumented: %v", label, err)
				}
				want := [][]float64{testutil.Reference(sg.g, a, src)}
				sameBits(t, label+" served", [][]float64{served}, want)
				sameBits(t, label+" instrumented", [][]float64{instrumented}, want)
				for _, x := range served {
					unreached = unreached || x == a.Identity()
				}
			}
		}
	}
	if !unreached {
		t.Fatal("no generated graph left a vertex unreached")
	}
}

// TestServedSolveSettlesOnce is the work bound the served solve exists
// for, and the deterministic proxy of its gain: it pops exactly the
// vertices that get a value and scans exactly their out-edges, each once —
// for every built-in, on the generated graphs, on the smoke window and (not
// under -short) at Wen′, where the round-synchronous loop it replaced
// scanned 1.74 M edges from the same source for the same 739,894.
func TestServedSolveSettlesOnce(t *testing.T) {
	r := rand.New(rand.NewSource(2002))
	graphs := solveGraphs(t, r)
	smoke, hub := smokeWindow(t)
	graphs = append(graphs, solveGraph{name: "smoke", g: smoke.CommonCSR()})
	hubs := map[string]graph.VertexID{"smoke": hub}
	if !testing.Short() {
		spec, _ := gen.PaperGraph("Wen")
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 16, BatchFraction: 0.01, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		w, err := evolve.NewWindow(ev)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, solveGraph{name: "wen", g: w.CommonCSR()})
		hubs["wen"] = hubOf(ev)
	}
	for _, sg := range graphs {
		n := sg.g.NumVertices()
		if n == 0 {
			continue
		}
		src, ok := hubs[sg.name]
		if !ok {
			src = graph.VertexID(r.Intn(n))
		}
		for _, k := range allKinds {
			if k == algo.Viterbi && sg.zeroWeights {
				continue
			}
			a := algo.New(k)
			vals, pops, scans := servedSolve(t, sg.g, a, src)
			want := testutil.Reference(sg.g, a, src)
			var reached, outEdges int64
			for v, x := range want {
				if x != a.Identity() {
					reached++
					outEdges += int64(sg.g.OutDegree(graph.VertexID(v)))
				}
			}
			if sg.name == "wen" && k != algo.CC && (reached != 26_595 || outEdges != 739_894) {
				t.Errorf("wen %v: the hub reaches %d vertices with %d out-edges, want 26,595 and 739,894", k, reached, outEdges)
			}
			if pops != reached || scans != outEdges {
				t.Errorf("%s %v from %d: %d pops and %d edge scans for %d reached vertices with %d out-edges",
					sg.name, k, src, pops, scans, reached, outEdges)
			}
			sameBits(t, sg.name, [][]float64{vals}, [][]float64{want})
		}
	}
}

// chainGraph is 0→1→…→n-1 with unit weights: a solve from 0 pops one
// vertex per lifecycle tick.
func chainGraph(n int) *graph.CSR {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1}
	}
	return graph.MustCSR(n, edges)
}

// TestServedSolveLifecycle: the served solve has no rounds, so every
// solveCadence pops it does what the instrumented solve does per round —
// context, watchdog, solve.round fault site, in that order.
func TestServedSolveLifecycle(t *testing.T) {
	sssp := algo.New(algo.SSSP)
	chain := chainGraph(2*solveCadence + 2) // checks at 0, 1 and 2 cadences

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, chain, sssp, 0, NopProbe{}, Limits{}); !errors.Is(err, megaerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled solve: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	// An injected cancel at the second check is seen by the third.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	plan := fault.NewPlan(1).Add(fault.Op{Site: fault.SiteSolveRound, Shard: fault.AnyShard, Kind: fault.KindCancel, Visit: 2})
	plan.BindCancel(cancel)
	if _, err := SolveContext(fault.Inject(ctx, plan), chain, sssp, 0, NopProbe{}, Limits{}); !errors.Is(err, megaerr.ErrCanceled) {
		t.Errorf("solve.round:cancel@2: err = %v, want ErrCanceled", err)
	}
	if got := plan.Visits(fault.SiteSolveRound, fault.AnyShard); got != 2 {
		t.Errorf("solve.round visited %d times before the cancellation was seen, want 2", got)
	}

	counter := fault.NewPlan(1)
	if _, err := SolveContext(fault.Inject(context.Background(), counter), chain, sssp, 0, NopProbe{}, Limits{}); err != nil {
		t.Fatal(err)
	}
	if got := counter.Visits(fault.SiteSolveRound, fault.AnyShard); got != 3 {
		t.Errorf("a solve of %d pops visited solve.round %d times, want 3", chain.NumVertices(), got)
	}

	// A negative cycle breaks the property that settles a vertex once, not
	// the solve: 1 and 2 re-enter the heap for ever and the watchdog trips
	// at the first check past its bound, one cadence in.
	negative := graph.MustCSR(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: -2}, {Src: 2, Dst: 1, Weight: 1},
	})
	for _, tc := range []struct {
		lim     Limits
		tripped string
	}{
		{Limits{}, "MaxEvents"},
		{Limits{MaxRounds: 5, MaxEvents: Unlimited}, "MaxRounds"},
	} {
		_, err := SolveContext(context.Background(), negative, sssp, 0, NopProbe{}, tc.lim)
		var div *megaerr.DivergenceError
		if !errors.Is(err, megaerr.ErrDivergence) || !errors.As(err, &div) {
			t.Fatalf("negative cycle under %+v: err = %v, want a *DivergenceError", tc.lim, err)
		}
		if div.Engine != "engine" || div.Limit != tc.tripped || div.Events != solveCadence || div.Rounds != 1 ||
			div.LiveEvents != 1 || (div.SampleVertex != 1 && div.SampleVertex != 2) {
			t.Errorf("negative cycle under %+v: diagnostics = %+v, want %s tripped after one cadence of %d pops with a cycle member queued",
				tc.lim, div, tc.tripped, solveCadence)
		}
	}
}
