// Command benchmark is this repository's benchmark: it builds the real
// cmd/megaserve, drives it closed-loop over loopback with four named
// workloads, verifies results bit for bit, prints every metric by name
// with its unit, and — in a separate traced run — prices every layer from
// outside through its public functions. See README.md.
//
//	bash benchmark/run.sh --workload cold-pk --seed 1 --seconds 24 --trace 0
//	cd benchmark && go run . [-workload all] [-trace both] [-seed 1] [-out runs.jsonl]
//	cd benchmark && go run . -compare A.jsonl B.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	keepFreedPagesMapped()
	os.Exit(realMain())
}

// lazyFree is the GODEBUG setting that makes the Go runtime hand free heap
// back to the system with MADV_FREE: the pages stay mapped until the
// kernel needs them, so touching them again costs no page fault.
const lazyFree = "madvdontneed=0"

// keepFreedPagesMapped restarts the process once with lazyFree set (the
// runtime reads GODEBUG only at start-up). The ladder collects before
// every rung so that a rung pays only for its own garbage, and after
// back-to-back collections the runtime's scavenger keeps just a tenth more
// than the live heap: with the default MADV_DONTNEED a rung that allocates
// megabytes (the recovery wrapper: 31 checkpoints) then faults every page
// back in — 3,500 faults and 3–4 ms per PK′ call, 25,000 and 30 ms at
// Wen′ — which a server reusing a steady heap never pays. Servers are
// started without the setting (serverEnv).
func keepFreedPagesMapped() {
	old := os.Getenv("GODEBUG")
	if strings.Contains(old, "madvdontneed=") {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	val := lazyFree
	if old != "" {
		val = old + "," + lazyFree
	}
	// Exec returns only when it failed; the run then goes on as it is.
	_ = syscall.Exec(exe, os.Args, append(os.Environ(), "GODEBUG="+val))
}

// serverEnv is the environment megaserve gets: this process's, without
// the setting keepFreedPagesMapped added, so rss_mb means what it means
// for any megaserve.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if val, ok := strings.CutPrefix(kv, "GODEBUG="); ok {
			val = strings.TrimSuffix(strings.TrimSuffix(val, lazyFree), ",")
			if val == "" {
				continue
			}
			kv = "GODEBUG=" + val
		}
		env = append(env, kv)
	}
	return env
}

func realMain() int {
	workloadName := flag.String("workload", "all", "hot-pk, cold-pk, durable-pk, cold-wen, or all")
	seed := flag.Int64("seed", 1, "seed of the query sequence; the server receives only the requests")
	seconds := flag.Float64("seconds", runSeconds, "measured seconds per run, split into three rounds")
	traceMode := flag.String("trace", "both", "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run; both")
	out := flag.String("out", "", "append each run's full record to this file as one JSON line")
	root := flag.String("root", "..", "repo checkout to build cmd/megaserve from (the default suits a run from the benchmark directory)")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl; exits 1 on a worse metric")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two files: A.jsonl B.jsonl")
			return 2
		}
		bad, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if bad {
			return 1
		}
		return 0
	}

	var todo []workload
	for _, wl := range workloads {
		if *workloadName == "all" || *workloadName == wl.Name {
			todo = append(todo, wl)
		}
	}
	var traces []int
	switch *traceMode {
	case "0":
		traces = []int{0}
	case "1":
		traces = []int{1}
	case "both":
		traces = []int{0, 1}
	}
	if len(todo) == 0 || len(traces) == 0 || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}

	// The load generator shares the host's CPUs with the server it
	// measures; collecting its own garbage less often keeps it out of the
	// way (its live heap is a few responses and the reference values).
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	b, cleanup, err := setup(ctx, *root, *seed, *seconds)
	defer cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	code := 0
	for _, wl := range todo {
		for _, trace := range traces {
			run := b.runGated
			if trace == 1 {
				run = b.runTraced
			}
			res, err := run(ctx, wl)
			if err != nil {
				// No result line: the driver must not mistake a broken run
				// for a measurement.
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", wl.Name, trace, err)
				return 1
			}
			res.print(os.Stdout)
			if *out != "" {
				if err := res.appendJSONL(*out); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
			}
			fmt.Println(res.contractLine())
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// setup finds the checkout, makes the scratch directory inside it and
// builds megaserve there. cleanup removes the scratch directory and is
// safe to call whatever setup returned.
func setup(ctx context.Context, root string, seed int64, seconds float64) (*bench, func(), error) {
	cleanup := func() {}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, cleanup, err
	}
	base := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, cleanup, err
	}
	workdir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, cleanup, err
	}
	cleanup = func() { os.RemoveAll(workdir) }

	b := &bench{root: root, workdir: workdir, bin: filepath.Join(workdir, "megaserve"), seed: seed, seconds: seconds,
		// One closed-loop client per CPU, at most megaserve's default capacity.
		clients: min(runtime.NumCPU(), 4)}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", b.bin, "./cmd/megaserve")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return nil, cleanup, fmt.Errorf("go build ./cmd/megaserve in %s: %v\n%s", root, err, outp)
	}
	b.buildS = time.Since(t0).Seconds()
	b.host = b.hostInfo()
	return b, cleanup, nil
}
