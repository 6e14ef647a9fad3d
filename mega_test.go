package mega_test

import (
	"context"
	"errors"
	"os"
	"testing"

	"mega"
	"mega/internal/testutil"
)

func demoEvolution(t testing.TB) *mega.Evolution {
	t.Helper()
	spec := mega.GraphSpec{
		Name: "demo", Vertices: 512, Edges: 6_000,
		A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 9,
	}
	ev, err := mega.Evolve(spec, mega.EvolutionSpec{Snapshots: 6, BatchFraction: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestQuickstartFlow(t *testing.T) {
	ev := demoEvolution(t)
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	values, err := mega.Evaluate(w, mega.SSSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 6 {
		t.Fatalf("Evaluate returned %d snapshots, want 6", len(values))
	}
	for s := range values {
		want := testutil.ReferenceEdges(w.NumVertices(), w.SnapshotEdges(s),
			mega.NewAlgorithm(mega.SSSP), 0)
		if !testutil.EqualValues(values[s], want) {
			t.Errorf("snapshot %d values diverge from reference", s)
		}
	}
}

func TestEvaluateWithStats(t *testing.T) {
	ev := demoEvolution(t)
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	var stats mega.Stats
	if _, err := mega.Evaluate(w, mega.BFS, 0, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || stats.EdgesRead == 0 {
		t.Errorf("stats not collected: %+v", stats)
	}
}

func TestSolveStatic(t *testing.T) {
	g, err := mega.NewGraph(3, []mega.Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	vals := mega.Solve(g, mega.SSSP, 0, nil)
	if vals[2] != 5 {
		t.Errorf("dist(2) = %v, want 5", vals[2])
	}
}

// TestSolveSourceOutsideGraph: SolveContext reports a source the graph
// does not have as ErrInvalidInput (it used to panic indexing its queue);
// Solve, which has no error to return, panics with that error's text.
func TestSolveSourceOutsideGraph(t *testing.T) {
	g, err := mega.NewGraph(3, []mega.Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range append(mega.Algorithms(), mega.CC) {
		if _, err := mega.SolveContext(context.Background(), g, k, 7, nil, mega.Limits{}); !errors.Is(err, mega.ErrInvalidInput) {
			t.Errorf("%v: SolveContext from vertex 7 of 3: err = %v, want ErrInvalidInput", k, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Solve from vertex 7 of 3 returned")
		}
	}()
	mega.Solve(g, mega.SSSP, 7, nil)
}

func TestSimulateEndToEnd(t *testing.T) {
	ev := demoEvolution(t)
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	js, err := mega.SimulateJetStream(ev, mega.SSWP, 0, mega.JetStreamSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	boe, err := mega.Simulate(w, mega.SSWP, 0, mega.BOE, mega.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if js.Cycles <= 0 || boe.Cycles <= 0 {
		t.Fatal("zero cycle counts")
	}
	// Final snapshot solutions must agree between baseline and MEGA.
	last := len(boe.SnapshotValues) - 1
	if !testutil.EqualValues(js.SnapshotValues[last], boe.SnapshotValues[last]) {
		t.Error("JetStream and MEGA disagree on the final snapshot")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, k := range mega.Algorithms() {
		got, err := mega.ParseAlgorithm(k.String())
		if err != nil || got != k {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestPaperGraphsExposed(t *testing.T) {
	if len(mega.PaperGraphs()) != 6 {
		t.Errorf("PaperGraphs = %d entries, want 6", len(mega.PaperGraphs()))
	}
}

func TestWindowFromPartsPublicAPI(t *testing.T) {
	initial := mega.EdgeList{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}.Normalize()
	adds := []mega.EdgeList{{{Src: 0, Dst: 2, Weight: 1}}}
	dels := []mega.EdgeList{{{Src: 1, Dst: 2, Weight: 1}}}
	w, err := mega.NewWindowFromParts(3, 2, initial, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := mega.Evaluate(w, mega.BFS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0][2] != 2 {
		t.Errorf("snapshot 0 hops(2) = %v, want 2", vals[0][2])
	}
	if vals[1][2] != 1 {
		t.Errorf("snapshot 1 hops(2) = %v, want 1 (via added edge)", vals[1][2])
	}
}

func TestEdgeListWorkflow(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/graph.txt"
	content := "# demo\n0 1 2\n1 2 3\n2 3 1\n3 4 2\n0 2 9\n1 3 4\n2 4 6\n0 3 8\n"
	if err := writeFileHelper(path, content); err != nil {
		t.Fatal(err)
	}
	n, edges, err := mega.LoadEdgeList(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(edges) != 8 {
		t.Fatalf("loaded V=%d E=%d", n, len(edges))
	}
	ev, err := mega.EvolveFromEdges(n, edges, mega.EvolutionSpec{Snapshots: 2, BatchFraction: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mega.Evaluate(w, mega.SSSP, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRecomputePublicAPI(t *testing.T) {
	ev := demoEvolution(t)
	w, err := mega.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := mega.SimulateRecompute(w, mega.BFS, 0, mega.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	boe, err := mega.Simulate(w, mega.BFS, 0, mega.BOE, mega.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cycles <= boe.Cycles {
		t.Errorf("recompute %d cycles not above BOE %d", rec.Cycles, boe.Cycles)
	}
}

func writeFileHelper(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
