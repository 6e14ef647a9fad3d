package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/gen"
	"mega/internal/graph"
	"mega/internal/sched"
	"mega/internal/testutil"
)

func TestSolveDiamondAllAlgorithms(t *testing.T) {
	g, _ := testutil.Diamond()
	for _, k := range algo.All {
		a := algo.New(k)
		got := Solve(g, a, 0, NopProbe{})
		want := testutil.Reference(g, a, 0)
		if !testutil.EqualValues(got, want) {
			t.Errorf("%v: Solve = %v, want %v", k, got, want)
		}
	}
}

func TestSolveHandChecked(t *testing.T) {
	g, _ := testutil.Diamond()
	sssp := Solve(g, algo.New(algo.SSSP), 0, NopProbe{})
	// 0→2 (2) →4 (5) →5 (3): dist(5) = 10 via 2-4; alt 0→1→3→5 = 11.
	if sssp[5] != 10 {
		t.Errorf("SSSP dist(5) = %v, want 10", sssp[5])
	}
	sswp := Solve(g, algo.New(algo.SSWP), 0, NopProbe{})
	// Widest to 5: path 0→1(4)→4(7)→5(3) width 3; 0→1→3→5 width min(4,1,6)=1.
	if sswp[5] != 3 {
		t.Errorf("SSWP width(5) = %v, want 3", sswp[5])
	}
	bfs := Solve(g, algo.New(algo.BFS), 0, NopProbe{})
	if bfs[5] != 3 {
		t.Errorf("BFS hops(5) = %v, want 3", bfs[5])
	}
}

func TestSolveUnreachable(t *testing.T) {
	g := graph.MustCSR(3, graph.EdgeList{{Src: 0, Dst: 1, Weight: 2}})
	for _, k := range algo.All {
		a := algo.New(k)
		vals := Solve(g, a, 0, NopProbe{})
		if vals[2] != a.Identity() {
			t.Errorf("%v: unreachable vertex has %v, want identity", k, vals[2])
		}
	}
}

func TestSolveMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		edges := testutil.RandomConnectedEdges(r, n, r.Intn(3*n), 8)
		g := graph.MustCSR(n, edges)
		for _, k := range algo.All {
			a := algo.New(k)
			if !testutil.EqualValues(Solve(g, a, 0, NopProbe{}), testutil.Reference(g, a, 0)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// streamHistory drives a Stream through an evolution hop by hop, checking
// the solution against the reference at every snapshot.
func checkStreamAgainstReference(t *testing.T, ev *gen.Evolution, k algo.Kind) {
	t.Helper()
	a := algo.New(k)
	g0 := graph.MustCSR(ev.NumVertices, ev.Initial)
	s, err := NewStream(g0, a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := ev.Initial.Clone()
	if !testutil.EqualValues(s.Values(), testutil.ReferenceEdges(ev.NumVertices, cur, a, 0)) {
		t.Fatalf("%v: initial solve wrong", k)
	}
	for j := range ev.Adds {
		// Deletions first (on the mid graph), then additions — matching
		// the deletion-free motivation's separation of the two phases.
		mid := cur.Minus(ev.Dels[j])
		midG := graph.MustCSR(ev.NumVertices, mid)
		s.ApplyDeletions(midG, ev.Dels[j])
		if !testutil.EqualValues(s.Values(), testutil.Reference(midG, a, 0)) {
			t.Fatalf("%v: hop %d deletions produced wrong values", k, j)
		}
		cur = mid.Union(ev.Adds[j])
		newG := graph.MustCSR(ev.NumVertices, cur)
		s.ApplyAdditions(newG, ev.Adds[j])
		if !testutil.EqualValues(s.Values(), testutil.Reference(newG, a, 0)) {
			t.Fatalf("%v: hop %d additions produced wrong values", k, j)
		}
	}
}

func TestStreamMatchesReference(t *testing.T) {
	spec := gen.TestGraph
	ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 5, BatchFraction: 0.02, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range algo.All {
		checkStreamAgainstReference(t, ev, k)
	}
}

func TestStreamMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := gen.GraphSpec{
			Name: "q", Vertices: 64, Edges: 400,
			A: 0.57, B: 0.19, C: 0.19, MaxWeight: 8, Seed: seed,
		}
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{
			Snapshots:     2 + r.Intn(4),
			BatchFraction: 0.01 + r.Float64()*0.03,
			Seed:          seed,
		})
		if err != nil {
			return false
		}
		k := algo.All[r.Intn(len(algo.All))]
		checkStreamAgainstReference(t, ev, k)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeletionCostExceedsAddition(t *testing.T) {
	// Figure 2's premise, functionally: a deletion batch generates far
	// more work (events + edge reads) than an equal-sized addition batch.
	spec := gen.TestGraph
	ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 2, BatchFraction: 0.04, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	a := algo.New(algo.SSSP)
	g0 := graph.MustCSR(ev.NumVertices, ev.Initial)

	var addStats, delStats Stats
	s, err := NewStream(g0, a, 0, &addStats)
	if err != nil {
		t.Fatal(err)
	}
	cur := ev.Initial.Clone()
	mid := cur.Minus(ev.Dels[0])
	full := mid.Union(ev.Adds[0])
	// Additions measured on their own stream run.
	s.ApplyAdditions(graph.MustCSR(ev.NumVertices, cur.Union(ev.Adds[0])), ev.Adds[0])
	// Deletions measured on a fresh stream from G_0.
	s2, err := NewStream(g0, a, 0, &delStats)
	if err != nil {
		t.Fatal(err)
	}
	s2.ApplyDeletions(graph.MustCSR(ev.NumVertices, mid), ev.Dels[0])
	_ = full

	addWork := addStats.Events + addStats.EdgesRead
	delWork := delStats.Events + delStats.EdgesRead
	if delWork < 2*addWork {
		t.Errorf("deletion work %d < 2x addition work %d; Figure 2 premise broken", delWork, addWork)
	}
}

func TestStreamSourceInvariant(t *testing.T) {
	// Deleting edges around the source must never corrupt its value.
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
	}.Normalize()
	g := graph.MustCSR(3, edges)
	a := algo.New(algo.SSSP)
	s, err := NewStream(g, a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dels := graph.EdgeList{{Src: 0, Dst: 1, Weight: 1}}.Normalize()
	mid := edges.Minus(dels)
	s.ApplyDeletions(graph.MustCSR(3, mid), dels)
	if s.Values()[0] != 0 {
		t.Errorf("source value = %v after deletion, want 0", s.Values()[0])
	}
	want := testutil.ReferenceEdges(3, mid, a, 0)
	if !testutil.EqualValues(s.Values(), want) {
		t.Errorf("values = %v, want %v", s.Values(), want)
	}
}

func TestStreamErrors(t *testing.T) {
	g := graph.MustCSR(2, graph.EdgeList{{Src: 0, Dst: 1, Weight: 1}})
	if _, err := NewStream(g, algo.New(algo.BFS), 7, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func testMultiWindow(t testing.TB, snapshots int, seed int64) *evolve.Window {
	t.Helper()
	spec := gen.TestGraph
	spec.Seed = seed
	ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: snapshots, BatchFraction: 0.02, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	w, err := evolve.NewWindow(ev)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMultiAllModesMatchReference(t *testing.T) {
	w := testMultiWindow(t, 5, 21)
	for _, k := range algo.All {
		a := algo.New(k)
		for _, mode := range []sched.Mode{sched.DirectHop, sched.WorkSharing, sched.BOE} {
			s, err := sched.New(mode, w)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMulti(w, a, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(s); err != nil {
				t.Fatalf("%v/%v: Run: %v", k, mode, err)
			}
			for snap := 0; snap < w.NumSnapshots(); snap++ {
				want := testutil.ReferenceEdges(w.NumVertices(), w.SnapshotEdges(snap), a, 0)
				if !testutil.EqualValues(m.SnapshotValues(s, snap), want) {
					t.Errorf("%v/%v: snapshot %d values wrong", k, mode, snap)
				}
			}
		}
	}
}

func TestMultiModesAgree(t *testing.T) {
	w := testMultiWindow(t, 8, 22)
	a := algo.New(algo.SSWP)
	var results [][]float64
	for _, mode := range []sched.Mode{sched.DirectHop, sched.WorkSharing, sched.BOE} {
		s, _ := sched.New(mode, w)
		m, err := NewMulti(w, a, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(s); err != nil {
			t.Fatal(err)
		}
		flat := make([]float64, 0, w.NumSnapshots()*w.NumVertices())
		for snap := 0; snap < w.NumSnapshots(); snap++ {
			flat = append(flat, m.SnapshotValues(s, snap)...)
		}
		results = append(results, flat)
	}
	if !testutil.EqualValues(results[0], results[1]) || !testutil.EqualValues(results[1], results[2]) {
		t.Error("modes disagree on final snapshot values")
	}
}

func TestMultiMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := gen.GraphSpec{
			Name: "q", Vertices: 80, Edges: 500,
			A: 0.57, B: 0.19, C: 0.19, MaxWeight: 8, Seed: seed,
		}
		n := 1 + r.Intn(7)
		ev, err := gen.Evolve(spec, gen.EvolutionSpec{
			Snapshots: n, BatchFraction: 0.01 + r.Float64()*0.03, Seed: seed,
		})
		if err != nil {
			return false
		}
		w, err := evolve.NewWindow(ev)
		if err != nil {
			return false
		}
		k := algo.All[r.Intn(len(algo.All))]
		a := algo.New(k)
		mode := []sched.Mode{sched.DirectHop, sched.WorkSharing, sched.BOE}[r.Intn(3)]
		s, err := sched.New(mode, w)
		if err != nil {
			return false
		}
		m, err := NewMulti(w, a, 0, nil)
		if err != nil {
			return false
		}
		if err := m.Run(s); err != nil {
			return false
		}
		for snap := 0; snap < n; snap++ {
			want := testutil.ReferenceEdges(w.NumVertices(), w.SnapshotEdges(snap), a, 0)
			if !testutil.EqualValues(m.SnapshotValues(s, snap), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestBOESharesFetchesDirectHopDoesNot(t *testing.T) {
	w := testMultiWindow(t, 8, 23)
	a := algo.New(algo.SSSP)

	var boeStats Stats
	sBOE, _ := sched.New(sched.BOE, w)
	m, err := NewMulti(w, a, 0, &boeStats)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(sBOE); err != nil {
		t.Fatal(err)
	}

	var dhStats Stats
	sDH, _ := sched.New(sched.DirectHop, w)
	m2, err := NewMulti(w, a, 0, &dhStats)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(sDH); err != nil {
		t.Fatal(err)
	}

	if boeStats.SharedServed == 0 {
		t.Error("BOE shared no fetches")
	}
	if dhStats.SharedServed != 0 {
		t.Errorf("Direct-Hop shared %d fetches; contexts never run concurrently", dhStats.SharedServed)
	}
	if boeStats.EdgesRead >= dhStats.EdgesRead {
		t.Errorf("BOE edges read %d >= Direct-Hop %d; reuse missing", boeStats.EdgesRead, dhStats.EdgesRead)
	}
}

func TestMultiRunTwiceFails(t *testing.T) {
	w := testMultiWindow(t, 3, 24)
	s, _ := sched.New(sched.BOE, w)
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(s); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestMultiBadSource(t *testing.T) {
	w := testMultiWindow(t, 3, 25)
	if _, err := NewMulti(w, algo.New(algo.BFS), graph.VertexID(1<<30), nil); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestStatsRoundCapture(t *testing.T) {
	g, _ := testutil.Diamond()
	stats := &Stats{CaptureRounds: true}
	Solve(g, algo.New(algo.BFS), 0, stats)
	if len(stats.EventsPerRound) == 0 {
		t.Fatal("no round series captured")
	}
	var total int64
	for _, e := range stats.EventsPerRound {
		total += e
	}
	if total != stats.Events {
		t.Errorf("round series sums to %d, want %d", total, stats.Events)
	}
}

func TestMultiProbeFanOut(t *testing.T) {
	g, _ := testutil.Diamond()
	var a, b Stats
	Solve(g, algo.New(algo.SSSP), 0, NewMultiProbe(&a, &b))
	if a.Events == 0 || a.Events != b.Events || a.EdgesRead != b.EdgesRead {
		t.Errorf("fan-out mismatch: %+v vs %+v", a.Events, b.Events)
	}
}

// newWindowHelper wraps evolve.NewWindow for test files in this package.
func newWindowHelper(ev *gen.Evolution) (*evolve.Window, error) {
	return evolve.NewWindow(ev)
}

// Connected components (the self-seeding extension) must agree with the
// reference solver on all schedules, and deletions must split
// components correctly in the streaming baseline.
func TestConnectedComponentsAllEngines(t *testing.T) {
	w := testMultiWindow(t, 5, 41)
	a := algo.New(algo.CC)
	for _, mode := range []sched.Mode{sched.DirectHop, sched.WorkSharing, sched.BOE} {
		s, err := sched.New(mode, w)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMulti(w, a, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(s); err != nil {
			t.Fatal(err)
		}
		for snap := 0; snap < w.NumSnapshots(); snap++ {
			want := testutil.ReferenceEdges(w.NumVertices(), w.SnapshotEdges(snap), a, 0)
			if !testutil.EqualValues(m.SnapshotValues(s, snap), want) {
				t.Errorf("CC/%v: snapshot %d labels wrong", mode, snap)
			}
		}
	}
}

func TestConnectedComponentsStream(t *testing.T) {
	spec := gen.TestGraph
	ev, err := gen.Evolve(spec, gen.EvolutionSpec{Snapshots: 4, BatchFraction: 0.03, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamAgainstReference(t, ev, algo.CC)
}

func TestConnectedComponentsSplit(t *testing.T) {
	// Two vertices linked by a single (bidirectional) bridge: deleting it
	// must restore separate labels.
	edges := graph.EdgeList{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1}, {Src: 3, Dst: 2, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 1, Weight: 1},
	}.Normalize()
	a := algo.New(algo.CC)
	st, err := NewStream(graph.MustCSR(4, edges), a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Values()[3] != 0 {
		t.Fatalf("joined label(3) = %v, want 0", st.Values()[3])
	}
	dels := graph.EdgeList{{Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 1, Weight: 1}}.Normalize()
	mid := edges.Minus(dels)
	st.ApplyDeletions(graph.MustCSR(4, mid), dels)
	if st.Values()[3] != 2 || st.Values()[1] != 0 {
		t.Errorf("after split labels = %v, want [0 0 2 2]", st.Values())
	}
}
