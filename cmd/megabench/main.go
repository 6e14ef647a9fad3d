// Command megabench regenerates the tables and figures of the MEGA
// paper's evaluation on the scaled stand-in workloads.
//
// Usage:
//
//	megabench [-exp id[,id...]] [-quick] [-v]
//
// With no -exp flag every experiment runs in paper order. Experiment IDs:
// fig2 fig3 fig4 fig5 fig10 table4 fig14 fig15 fig16 fig17 fig18 fig19
// fig20 fig21 table5.
//
// With -metrics FILE every freshly simulated configuration's instrument
// families and invariant-audit outcomes accumulate into one registry,
// written as a JSON snapshot after the selected experiments finish. The
// snapshot is validated by `megasim -verify-metrics`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mega/internal/algo"
	"mega/internal/bench"
	"mega/internal/gen"
	"mega/internal/metrics"
)

func main() {
	exp := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	quick := flag.Bool("quick", false, "use smaller graphs and fewer algorithms")
	verbose := flag.Bool("v", false, "log per-run progress to stderr")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	format := flag.String("format", "text", "output format: text or csv")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot of the simulated runs to this file")
	flag.Parse()

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "megabench: unknown format %q\n", *format)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	c := bench.NewContext()
	if *verbose {
		c.Log = os.Stderr
	}
	if *metricsPath != "" {
		c.Metrics = metrics.New()
	}
	if *quick {
		c.Graphs = []gen.GraphSpec{
			{Name: "PK", Vertices: 1_024, Edges: 19_200, A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 101},
			{Name: "LJ", Vertices: 2_048, Edges: 35_000, A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 102},
			{Name: "Wen", Vertices: 4_096, Edges: 120_000, A: 0.45, B: 0.15, C: 0.15, MaxWeight: 16, Seed: 106},
		}
		c.Algos = []algo.Kind{algo.BFS, algo.SSSP, algo.SSWP}
	}

	ids := bench.IDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	start := time.Now()
	for _, id := range ids {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "megabench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		tables, err := e.Run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "megabench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *format == "csv" {
				t.FprintCSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", e.ID, time.Since(t0).Seconds())
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "[total %.1fs]\n", time.Since(start).Seconds())
	}
	if c.Metrics != nil {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "megabench: metrics: %v\n", err)
			os.Exit(1)
		}
		if err := c.Metrics.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "megabench: metrics: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "megabench: metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "megabench: wrote %s\n", *metricsPath)
	}
}
