// Community watch: track how communities merge and split as a network
// evolves, using the CC extension algorithm (self-seeding connected
// components — beyond the paper's Table 1, exercising §3.2's generality
// claim). The evolving window is evaluated two ways and cross-checked:
// the functional engine and the cycle-level microarchitectural simulator.
package main

import (
	"fmt"
	"log"

	"mega"
)

func main() {
	// A sparse network whose connectivity is fragile: components split
	// when contacts expire and merge when new ones appear.
	spec := mega.GraphSpec{
		Name: "community", Vertices: 4_096, Edges: 10_000,
		A: 0.40, B: 0.25, C: 0.25, MaxWeight: 4, Seed: 12,
	}
	ev, err := mega.Evolve(spec, mega.EvolutionSpec{
		Snapshots: 10, BatchFraction: 0.02, Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	w, err := mega.NewWindow(ev)
	if err != nil {
		log.Fatal(err)
	}

	// Connected components on every snapshot at once. CC ignores the
	// source argument (every vertex seeds its own label).
	labels, err := mega.Evaluate(w, mega.CC, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network: %d nodes, %d initial links, %d snapshots\n\n",
		spec.Vertices, len(ev.Initial), w.NumSnapshots())
	fmt.Printf("%-9s %-12s %-22s\n", "snapshot", "components", "largest component")
	for s, ls := range labels {
		sizes := map[float64]int{}
		for _, l := range ls {
			sizes[l]++
		}
		largest := 0
		for _, n := range sizes {
			if n > largest {
				largest = n
			}
		}
		fmt.Printf("%-9d %-12d %d nodes (%.1f%%)\n",
			s, len(sizes), largest, 100*float64(largest)/float64(len(ls)))
	}

	// Cross-check with the cycle-level hardware model, which also reports
	// how the datapath behaved.
	micro, err := mega.SimulateCycleLevel(w, mega.CC, 0, mega.DefaultUarchConfig())
	if err != nil {
		log.Fatal(err)
	}
	for s := range labels {
		for v := range labels[s] {
			if labels[s][v] != micro.SnapshotValues[s][v] {
				log.Fatalf("snapshot %d vertex %d: cycle-level model disagrees", s, v)
			}
		}
	}
	fmt.Printf("\ncycle-level model agrees ✓ — %d cycles, %d events, %.0f%% PE utilization\n",
		micro.Cycles, micro.Events, micro.Utilization(mega.DefaultUarchConfig())*100)
}
