package engine

import (
	"context"
	"math/rand"
	"testing"

	"mega/internal/algo"
	"mega/internal/evolve"
	"mega/internal/gen"
	"mega/internal/metrics"
	"mega/internal/sched"
)

// counterValue finds one labeled counter in a snapshot (-1 if absent).
func counterValue(snap *metrics.Snapshot, name string, labels map[string]string) int64 {
	for _, p := range snap.Counters {
		if p.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if p.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return p.Value
		}
	}
	return -1
}

// randomEvolution draws a random RMAT evolution for property tests: integer
// weights in [1, 16] (so path values tie), a power-law degree distribution
// (so some vertices are unreachable from any source).
func randomEvolution(t testing.TB, r *rand.Rand) *gen.Evolution {
	t.Helper()
	spec := gen.TestGraph
	spec.Vertices = 256 + r.Intn(512)
	spec.Edges = spec.Vertices * (4 + r.Intn(8))
	spec.Seed = r.Int63()
	ev, err := gen.Evolve(spec, gen.EvolutionSpec{
		Snapshots:     2 + r.Intn(5),
		BatchFraction: 0.005 + r.Float64()*0.04,
		Imbalance:     1 + r.Float64()*2,
		Seed:          r.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// randomWindow builds the window of a randomEvolution.
func randomWindow(t testing.TB, r *rand.Rand) *evolve.Window {
	t.Helper()
	w, err := evolve.NewWindow(randomEvolution(t, r))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Property: on random RMAT evolutions the probe-level Stats event count,
// the engine's queue counters, and the metrics-layer counter families all
// agree — events taken from the queues are exactly the events processed,
// and pushed − coalesced == taken (conservation).
func TestStatsMatchMetricsCountsMulti(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	for trial := 0; trial < 4; trial++ {
		w := randomWindow(t, r)
		s, err := sched.New(sched.BOE, w)
		if err != nil {
			t.Fatal(err)
		}
		st := &Stats{}
		m, err := NewMulti(w, algo.New(algo.SSSP), 0, st)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		m.SetMetrics(reg)
		if err := m.RunContext(context.Background(), s, Limits{}); err != nil {
			t.Fatal(err)
		}
		pushed, coalesced, taken := m.QueueCounters()
		if pushed-coalesced != taken {
			t.Fatalf("trial %d: conservation violated: pushed %d − coalesced %d != taken %d",
				trial, pushed, coalesced, taken)
		}
		if st.Events != taken {
			t.Fatalf("trial %d: probe Stats.Events = %d, queue taken = %d", trial, st.Events, taken)
		}
		snap := reg.Snapshot()
		lbl := map[string]string{"engine": "multi"}
		if got := counterValue(snap, "engine_events_processed", lbl); got != st.Events {
			t.Fatalf("trial %d: metrics engine_events_processed = %d, Stats.Events = %d",
				trial, got, st.Events)
		}
		if got := counterValue(snap, "queue_taken", lbl); got != taken {
			t.Fatalf("trial %d: metrics queue_taken = %d, engine taken = %d", trial, got, taken)
		}
		if got := counterValue(snap, "queue_pushed", lbl); got != pushed {
			t.Fatalf("trial %d: metrics queue_pushed = %d, engine pushed = %d", trial, got, pushed)
		}
		for _, ar := range m.AuditQueues() {
			if err := ar.Err(); err != nil {
				t.Fatalf("trial %d: audit %s failed: %v", trial, ar.Name, err)
			}
		}
	}
}
