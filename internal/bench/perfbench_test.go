package bench

import "testing"

// TestTrajectoryEventsMatchInflation pins the trajectory's honesty: the
// events/op it reports at procs=p must be the count the pinned run
// actually processes — RunInflationGate's deterministic count for
// (workers=p, procs=p) — not one taken under the caller's GOMAXPROCS.
func TestTrajectoryEventsMatchInflation(t *testing.T) {
	procs := []int{1, 2}
	traj, err := RunPerfTrajectory(true, procs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	infl, _, err := RunInflationGate(true, procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{}
	for _, r := range infl {
		if r.Workers == r.Procs {
			want[r.Procs] = r.EventsPerOp
		}
	}
	if len(traj) != len(procs) {
		t.Fatalf("trajectory has %d points, want %d", len(traj), len(procs))
	}
	for _, r := range traj {
		if r.EventsPerOp != want[r.Procs] {
			t.Errorf("procs=%d: trajectory reports %d events/op, the pinned run processes %d",
				r.Procs, r.EventsPerOp, want[r.Procs])
		}
	}
}
