package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/sched"
)

// flipFlop is a deliberately non-monotone Algorithm: Better accepts any
// different value, so a cycle not containing the source ping-pongs ever
// growing values forever. The divergence watchdog must abort it.
type flipFlop struct{}

func (flipFlop) Kind() algo.Kind                         { return algo.Kind(97) }
func (flipFlop) Identity() float64                       { return math.Inf(1) }
func (flipFlop) SourceValue() float64                    { return 0 }
func (flipFlop) EdgeFunc(srcVal, weight float64) float64 { return srcVal + weight }
func (flipFlop) Better(a, b float64) bool                { return a != b }

// cycleWindow is a single-snapshot window whose graph has a 1↔2 cycle fed
// from source 0 — the smallest shape on which flipFlop diverges.
func cycleWindow(t *testing.T) *evolve.Window {
	t.Helper()
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 1, Weight: 1},
	}
	w, err := evolve.NewWindowFromParts(3, 1, edges, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSolveContextDivergenceWatchdog(t *testing.T) {
	w := cycleWindow(t)
	_, err := SolveContext(context.Background(), w.CommonCSR(), flipFlop{}, 0, NopProbe{}, Limits{})
	if !errors.Is(err, megaerr.ErrDivergence) {
		t.Fatalf("SolveContext err = %v, want ErrDivergence", err)
	}
	var div *megaerr.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("err %v is not a *DivergenceError", err)
	}
	if div.Engine != "engine" || div.Rounds == 0 {
		t.Errorf("diagnostics = %+v, want engine-tagged nonzero rounds", div)
	}
	if div.SampleVertex != 1 && div.SampleVertex != 2 {
		t.Errorf("SampleVertex = %d, want a cycle member (1 or 2)", div.SampleVertex)
	}
}

func TestMultiDivergenceWatchdog(t *testing.T) {
	w := cycleWindow(t)
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMulti(w, flipFlop{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = m.RunContext(context.Background(), s, Limits{})
	if !errors.Is(err, megaerr.ErrDivergence) {
		t.Fatalf("RunContext err = %v, want ErrDivergence", err)
	}
}

// batchCycleWindow is cycleWindow with the cycle closed by a batch: the
// base solve converges even for flipFlop, and snapshot 1 adds the back edge
// that makes the batch application ping-pong.
func batchCycleWindow(t *testing.T) *evolve.Window {
	t.Helper()
	initial := graph.EdgeList{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
	}
	adds := []graph.EdgeList{{{Src: 2, Dst: 1, Weight: 1}}}
	dels := []graph.EdgeList{nil}
	w, err := evolve.NewWindowFromParts(3, 2, initial, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMultiRunContextCanceled(t *testing.T) {
	w := testMultiWindow(t, 3, 91)
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMulti(w, algo.New(algo.SSSP), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.RunContext(ctx, s, Limits{})
	if !errors.Is(err, megaerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want ErrCanceled and context.Canceled", err)
	}
}

// panicky is SSSP with a booby-trapped EdgeFunc: any propagation from a
// vertex whose value reached the trigger panics. The base graph keeps all
// values small, so the panic fires only inside a batch application.
type panicky struct{ algo.Algorithm }

func (p panicky) EdgeFunc(srcVal, weight float64) float64 {
	if srcVal >= 7 {
		panic("panicky EdgeFunc tripped")
	}
	return p.Algorithm.EdgeFunc(srcVal, weight)
}

// panickyWindow trips panicky only inside a batch application. Common
// graph: 0→1 and 5→6, all weight 1; vertex 5 is unreachable in the base
// solve, so the base pass never sees a big value. The batch edge 0→5
// (weight 100) seeds value 100 at vertex 5; propagating 5→6 then calls
// EdgeFunc(100, 1) and panics.
func panickyWindow(t *testing.T) *evolve.Window {
	t.Helper()
	initial := graph.EdgeList{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 5, Dst: 6, Weight: 1},
	}
	adds := []graph.EdgeList{{{Src: 0, Dst: 5, Weight: 100}}}
	dels := []graph.EdgeList{nil}
	w, err := evolve.NewWindowFromParts(7, 2, initial, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestValuesBeforeRunAreNil(t *testing.T) {
	w := testMultiWindow(t, 3, 93)
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Values(0); v != nil {
		t.Errorf("Multi.Values before Run = %v, want nil", v)
	}
	if v := m.SnapshotValues(s, 0); v != nil {
		t.Errorf("Multi.SnapshotValues before Run = %v, want nil", v)
	}
}

func TestMultiRunTwiceTypedError(t *testing.T) {
	w := testMultiWindow(t, 3, 94)
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); !errors.Is(err, megaerr.ErrInvalidInput) {
		t.Fatalf("second Run err = %v, want ErrInvalidInput", err)
	}
}
