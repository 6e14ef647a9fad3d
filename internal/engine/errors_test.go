package engine

import (
	"context"
	"errors"
	"testing"

	"mega/internal/algo"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/sched"
)

// Error-path tests for hand-built (invalid) schedules: the engine must
// reject them rather than corrupt state.

func TestRunOpApplyNoTargets(t *testing.T) {
	w := testMultiWindow(t, 3, 71)
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{
		Mode: sched.BOE, NumContexts: 3, SnapshotCtx: []int{0, 1, 2},
		Ops: []sched.Op{
			{Kind: sched.OpInit, Ctx: 0, Stage: 0},
			{Kind: sched.OpApply, Batch: &w.Batches()[0], Targets: nil, Stage: 1},
		},
	}
	if err := m.Run(s); err == nil {
		t.Fatal("OpApply with no targets accepted")
	}
}

func TestRunApplyUninitializedContext(t *testing.T) {
	w := testMultiWindow(t, 3, 72)
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{
		Mode: sched.BOE, NumContexts: 3, SnapshotCtx: []int{0, 1, 2},
		Ops: []sched.Op{
			{Kind: sched.OpApply, Batch: &w.Batches()[0], Targets: []int{1}, Stage: 0},
		},
	}
	if err := m.Run(s); err == nil {
		t.Fatal("OpApply to uninitialized context accepted")
	}
}

func TestRunCopyFromUninitialized(t *testing.T) {
	w := testMultiWindow(t, 3, 73)
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{
		Mode: sched.WorkSharing, NumContexts: 3, SnapshotCtx: []int{0, 1, 2},
		Ops: []sched.Op{{Kind: sched.OpCopy, Ctx: 0, From: 2, Stage: 0}},
	}
	if err := m.Run(s); err == nil {
		t.Fatal("OpCopy from uninitialized context accepted")
	}
}

func TestRunUnknownOpKind(t *testing.T) {
	w := testMultiWindow(t, 2, 74)
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{
		Mode: sched.BOE, NumContexts: 2, SnapshotCtx: []int{0, 1},
		Ops: []sched.Op{{Kind: sched.OpKind(9), Ctx: 0, Stage: 0}},
	}
	if err := m.Run(s); err == nil {
		t.Fatal("unknown op kind accepted")
	}
}

func TestRunSharedComputeConflict(t *testing.T) {
	// Two ops of one stage computing on a shared op's broadcast source
	// must be rejected: the broadcast would replay foreign seeds.
	w := testMultiWindow(t, 4, 75)
	var del, add *sched.Op
	boe, _ := sched.New(sched.BOE, w)
	for i := range boe.Ops {
		op := &boe.Ops[i]
		if op.Kind != sched.OpApply {
			continue
		}
		if op.SharedCompute && del == nil {
			del = op
		} else if !op.SharedCompute && add == nil {
			add = op
		}
	}
	if del == nil || add == nil {
		t.Skip("window produced no shared/unshared op pair")
	}
	m, err := NewMulti(w, algo.New(algo.BFS), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ops []sched.Op
	for c := 0; c < 4; c++ {
		ops = append(ops, sched.Op{Kind: sched.OpInit, Ctx: c, Stage: 0})
	}
	conflicting := *add
	conflicting.Targets = []int{del.Targets[0]}
	conflicting.Stage = 1
	shared := *del
	shared.Stage = 1
	ops = append(ops, shared, conflicting)
	s := &sched.Schedule{Mode: sched.BOE, NumContexts: 4, SnapshotCtx: []int{0, 1, 2, 3}, Ops: ops}
	if err := m.Run(s); err == nil {
		t.Fatal("conflicting shared-compute stage accepted")
	}
}

func TestStatsMaxLiveEvents(t *testing.T) {
	w := testMultiWindow(t, 4, 76)
	stats := &Stats{}
	m, err := NewMulti(w, algo.New(algo.SSSP), 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sched.New(sched.BOE, w)
	if err := m.Run(s); err != nil {
		t.Fatal(err)
	}
	if stats.MaxLiveEvents <= 0 {
		t.Error("MaxLiveEvents never recorded")
	}
	if stats.Ops == 0 || stats.Rounds == 0 {
		t.Errorf("ops=%d rounds=%d", stats.Ops, stats.Rounds)
	}
}

// TestSolveContextRejectsSourceOutsideGraph: the static solver used to
// index its queue with whatever source it was handed. Both of its loops,
// and self-seeding algorithms that never read the source, refuse one
// outside the graph, as NewMulti does; the empty graph has no source to
// check and still solves to nothing.
func TestSolveContextRejectsSourceOutsideGraph(t *testing.T) {
	g := graph.MustCSR(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}})
	for _, k := range allKinds {
		for _, a := range []algo.Algorithm{algo.New(k), disguise(algo.New(k))} {
			for _, probe := range []Probe{NopProbe{}, &Stats{}} {
				for _, src := range []graph.VertexID{3, 7} {
					if _, err := SolveContext(context.Background(), g, a, src, probe, Limits{}); !errors.Is(err, megaerr.ErrInvalidInput) {
						t.Errorf("%v (%T, %T) from %d on 3 vertices: err = %v, want ErrInvalidInput", k, a, probe, src, err)
					}
				}
				if _, err := SolveContext(context.Background(), g, a, 2, probe, Limits{}); err != nil {
					t.Errorf("%v (%T, %T) from the last vertex: %v", k, a, probe, err)
				}
				if vals, err := SolveContext(context.Background(), graph.MustCSR(0, nil), a, 0, probe, Limits{}); err != nil || len(vals) != 0 {
					t.Errorf("%v (%T, %T) on the empty graph: %v, %v; want no values and no error", k, a, probe, vals, err)
				}
			}
		}
	}
}
