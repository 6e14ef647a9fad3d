// Command megasim simulates one evolving-graph query on the MEGA
// accelerator (or the JetStream baseline) and prints timing, memory-system
// and functional statistics.
//
// Usage:
//
//	megasim [-graph PK|LJ|OR|DL|UK|Wen] [-algo SSSP] [-mode boe|ws|dh|jetstream|recompute|eval]
//	        [-snapshots 16] [-batch 0.01] [-onchip 524288] [-load dir]
//	        [-fault SPEC]... [-checkpoint FILE] [-checkpoint-every N] [-resume] [-retries N]
//	        [-state-dir DIR]
//
// By default it runs SSSP over 16 snapshots of the PK stand-in under BOE.
// With -load it consumes a dataset directory written by megagen instead of
// synthesizing one.
//
// Mode "eval" runs the functional query through the fault-tolerant
// evaluator: with -checkpoint or -state-dir it checkpoints every
// -checkpoint-every rounds (persisting atomically to -checkpoint) and
// retries transient faults from the last checkpoint; with neither it
// encodes no periodic checkpoint and a retry resumes from one taken at
// the failure itself. A panic is contained and reported, not retried.
// With -resume it restarts from the persisted checkpoint file. -fault
// injects deterministic faults using the
// "site[#shard]:kind[=latency]@visit[xevery]" grammar, e.g.
// -fault engine.round:transient@100 or -fault engine.round:panic@7.
//
// -state-dir DIR (eval and serve modes) spools checkpoints into a
// crash-safe durable store keyed by the query's content identity: kill
// the process mid-run, rerun the same command, and the query resumes
// from its last durable checkpoint instead of recomputing (the eval
// report gains a "resumed:" line). Disk-fault sites (store.write,
// store.sync, store.rename, store.dirsync) compose with -fault.
//
// Observability: -metrics FILE writes a JSON snapshot of the run's metric
// families (cache, per-channel DRAM traffic, queue traffic, engine event
// counts) and invariant-audit outcomes. -verify-metrics FILE validates a
// previously written snapshot — required families present (see -require)
// and every audit passed — and exits without simulating.
//
// Mode "serve" runs a batch of concurrent queries through the
// admission-controlled query service (bounded concurrency, priority wait
// queue, load shedding, panic containment, graceful drain). -queries FILE
// (or "-" for stdin) supplies one query per line as key=value fields:
// algo, source, priority (low|normal|high), deadline, queue-timeout,
// label, tenant, and repeatable fault specs. -capacity and -queue-depth
// bound the service; -drain bounds the shutdown drain.
//
// Exit codes: 0 success, 1 generic failure, 2 invalid input, 3 canceled
// (signal or -timeout), 4 query divergence, 5 checkpoint corruption or
// mismatch, 6 invariant-audit violation, 7 service overload (admission
// rejection or shed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mega"
)

// Exit codes, also documented in the package comment and README.
const (
	exitOK         = 0
	exitGeneric    = 1
	exitInvalid    = 2
	exitCanceled   = 3
	exitDivergence = 4
	exitCheckpoint = 5
	exitAudit      = 6
	exitOverload   = 7
)

// faultList collects repeatable -fault flags.
type faultList []mega.FaultOp

func (f *faultList) String() string {
	specs := make([]string, len(*f))
	for i, op := range *f {
		specs[i] = op.String()
	}
	return strings.Join(specs, ",")
}

func (f *faultList) Set(spec string) error {
	op, err := mega.ParseFaultOp(spec)
	if err != nil {
		return err
	}
	*f = append(*f, op)
	return nil
}

func main() {
	graphName := flag.String("graph", "PK", "paper stand-in graph name")
	algoName := flag.String("algo", "SSSP", "algorithm: BFS SSSP SSWP SSNP Viterbi")
	mode := flag.String("mode", "boe", "workflow: boe, ws, dh, jetstream, recompute, eval, serve")
	snapshots := flag.Int("snapshots", 16, "snapshot window size")
	batch := flag.Float64("batch", 0.01, "per-hop batch fraction of edges")
	imbalance := flag.Float64("imbalance", 1, "largest/smallest batch ratio")
	onchip := flag.Int64("onchip", 0, "on-chip memory bytes (0 = default)")
	source := flag.Int("source", -1, "source vertex (-1 = highest out-degree)")
	load := flag.String("load", "", "load a megagen dataset directory instead of synthesizing")
	edgeList := flag.String("edgelist", "", "build the window from a SNAP-style edge-list file")
	profile := flag.Bool("profile", false, "print the per-operation timing profile")
	timeout := flag.Duration("timeout", 0, "abort the simulation after this duration (0 = none)")
	ckptFile := flag.String("checkpoint", "", "eval: persist checkpoints to this file (atomic rename)")
	ckptEvery := flag.Int("checkpoint-every", 0, "eval: with -checkpoint or -state-dir, checkpoint every N rounds (0 = default 32)")
	resume := flag.Bool("resume", false, "eval: resume from the -checkpoint file")
	stateDir := flag.String("state-dir", "", "eval/serve: durable checkpoint store directory (crash-safe resume)")
	retries := flag.Int("retries", 0, "eval: max restarts after transient faults (0 = default 3)")
	queries := flag.String("queries", "", "serve: query-spec file, one query per line (- = stdin)")
	capacity := flag.Int("capacity", 0, "serve: max concurrently running queries (0 = default 4)")
	queueDepth := flag.Int("queue-depth", 0, "serve: max queued queries (0 = default 64)")
	cacheBytes := flag.Int64("cache-bytes", 0, "serve: cross-query result cache budget in bytes (0 = disabled)")
	drain := flag.Duration("drain", 0, "serve: graceful-drain deadline at shutdown (0 = 10s)")
	faultSeed := flag.Int64("fault-seed", 42, "seed for probabilistic fault ops")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot (instruments + audits) to this file")
	verifyPath := flag.String("verify-metrics", "", "validate a metrics snapshot file and exit (no simulation)")
	require := flag.String("require", "cache_hits,dram_channel_bytes,queue_pushed,engine_events_processed",
		"comma-separated metric families -verify-metrics must find (empty = audits only)")
	var faults faultList
	flag.Var(&faults, "fault", "inject a deterministic fault (repeatable): site[#shard]:kind[=latency]@visit[xevery]")
	flag.Parse()

	if *verifyPath != "" {
		if err := verifyMetrics(*verifyPath, *require); err != nil {
			exitWith(err)
		}
		fmt.Printf("metrics snapshot %s: ok\n", *verifyPath)
		return
	}

	// SIGINT/SIGTERM cancel the run cooperatively: the engines observe the
	// context at their next round/cycle boundary and unwind cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if len(faults) > 0 {
		plan := mega.NewFaultPlan(*faultSeed)
		for _, op := range faults {
			plan.Add(op)
		}
		ctx = mega.WithFaultPlan(ctx, plan)
	}

	showProfile = *profile
	opts := evalOptions{
		ckptFile: *ckptFile, ckptEvery: *ckptEvery,
		resume: *resume, retries: *retries,
		stateDir:    *stateDir,
		metricsPath: *metricsPath,
		queries:     *queries,
		capacity:    *capacity, queueDepth: *queueDepth,
		cacheBytes: *cacheBytes,
		drain:      *drain, faultSeed: *faultSeed,
	}
	if err := run(ctx, *graphName, *algoName, *mode, *snapshots, *batch, *imbalance, *onchip, *source, *load, *edgeList, opts); err != nil {
		exitWith(err)
	}
}

// classify maps a typed error to its documented exit code and stderr
// prefix. It is the single source of truth for the exit-code contract;
// the table test in main_test.go keeps it in sync with the megaerr
// sentinels.
func classify(err error) (code int, prefix string) {
	switch {
	case err == nil:
		return exitOK, ""
	case errors.Is(err, mega.ErrInvalidInput):
		return exitInvalid, "invalid input"
	case errors.Is(err, mega.ErrCheckpoint):
		return exitCheckpoint, "checkpoint"
	case errors.Is(err, mega.ErrOverload):
		return exitOverload, "overloaded"
	case errors.Is(err, mega.ErrCanceled):
		return exitCanceled, "canceled"
	case errors.Is(err, mega.ErrDivergence):
		return exitDivergence, "query diverged"
	case errors.Is(err, mega.ErrAudit):
		return exitAudit, "invariant audit failed"
	default:
		return exitGeneric, ""
	}
}

// exitWith maps a typed error to the documented exit codes and terminates.
func exitWith(err error) {
	code, prefix := classify(err)
	if prefix != "" {
		fmt.Fprintf(os.Stderr, "megasim: %s: %v\n", prefix, err)
	} else {
		fmt.Fprintln(os.Stderr, "megasim:", err)
	}
	os.Exit(code)
}

// verifyMetrics validates a snapshot file against the required families.
func verifyMetrics(path, require string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: reading metrics snapshot: %v", mega.ErrInvalidInput, err)
	}
	var fams []string
	for _, f := range strings.Split(require, ",") {
		if f = strings.TrimSpace(f); f != "" {
			fams = append(fams, f)
		}
	}
	return mega.ValidateMetricsJSON(data, fams...)
}

// writeMetrics snapshots reg to path (atomically, like checkpoints).
func writeMetrics(path string, reg *mega.MetricsRegistry) error {
	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		return err
	}
	return writeFileAtomic(path, []byte(buf.String()))
}

// evalOptions carries the eval- and serve-mode flags through run.
type evalOptions struct {
	ckptFile    string
	ckptEvery   int
	resume      bool
	retries     int
	stateDir    string
	metricsPath string

	// serve-mode knobs.
	queries    string
	capacity   int
	queueDepth int
	cacheBytes int64
	drain      time.Duration
	faultSeed  int64
}

func run(ctx context.Context, graphName, algoName, mode string, snapshots int, batch, imbalance float64, onchip int64, source int, load, edgeList string, opts evalOptions) error {
	kind, err := mega.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	var reg *mega.MetricsRegistry
	if opts.metricsPath != "" {
		reg = mega.NewMetricsRegistry()
	}

	var ev *mega.Evolution
	switch {
	case load != "":
		if ev, err = mega.LoadEvolutionContext(ctx, load); err != nil {
			return err
		}
	case edgeList != "":
		n, edges, lerr := mega.LoadEdgeList(edgeList, 1)
		if lerr != nil {
			return lerr
		}
		es := mega.EvolutionSpec{
			Snapshots: snapshots, BatchFraction: batch, Imbalance: imbalance, Seed: 42,
		}
		if ev, err = mega.EvolveFromEdges(n, edges, es); err != nil {
			return err
		}
	default:
		spec, ok := findGraph(graphName)
		if !ok {
			return fmt.Errorf("unknown graph %q", graphName)
		}
		es := mega.EvolutionSpec{
			Snapshots: snapshots, BatchFraction: batch, Imbalance: imbalance, Seed: 42,
		}
		if ev, err = mega.Evolve(spec, es); err != nil {
			return err
		}
	}

	src := mega.VertexID(0)
	if source >= 0 {
		src = mega.VertexID(source)
	} else {
		src = hub(ev)
	}

	var res *mega.SimResult
	switch mode {
	case "eval":
		w, werr := mega.NewWindow(ev)
		if werr != nil {
			return werr
		}
		return runEval(ctx, w, kind, src, opts, reg)
	case "serve":
		w, werr := mega.NewWindow(ev)
		if werr != nil {
			return werr
		}
		return runServe(ctx, w, kind, src, opts, reg)
	case "jetstream":
		cfg := mega.JetStreamSimConfig()
		if onchip > 0 {
			cfg.OnChipBytes = onchip
		}
		res, err = mega.SimulateJetStreamContext(ctx, ev, kind, src, cfg)
	case "recompute":
		w, werr := mega.NewWindow(ev)
		if werr != nil {
			return werr
		}
		cfg := mega.DefaultSimConfig()
		if onchip > 0 {
			cfg.OnChipBytes = onchip
		}
		res, err = mega.SimulateRecomputeContext(ctx, w, kind, src, cfg)
	case "boe-cycle":
		w, werr := mega.NewWindow(ev)
		if werr != nil {
			return werr
		}
		r, uerr := mega.SimulateCycleLevelContext(ctx, w, kind, src, mega.DefaultUarchConfig())
		if uerr != nil {
			return uerr
		}
		fmt.Printf("workflow:        BOE (cycle-level) / %s (source %d)\n", kind, src)
		fmt.Printf("snapshots:       %d\n", len(r.SnapshotValues))
		fmt.Printf("cycles:          %d (%.4f ms @1GHz)\n", r.Cycles, float64(r.Cycles)/1e6)
		fmt.Printf("events:          %d dispatched, %d applied, %d generated, %d coalesced\n",
			r.Events, r.Applied, r.Generated, r.Coalesced)
		fmt.Printf("edge unit:       %d fetches, %d cache hits, %.2f MB DRAM\n",
			r.Fetches, r.CacheHits, mb(r.DRAMBytes))
		fmt.Printf("PE utilization:  %.0f%%, max live events %d\n",
			r.Utilization(mega.DefaultUarchConfig())*100, r.MaxLiveEvents)
		if reg != nil {
			r.RecordMetrics(reg)
			return writeMetrics(opts.metricsPath, reg)
		}
		return nil
	case "jetstream-cycle":
		r, uerr := mega.SimulateStreamCycleLevelContext(ctx, ev, kind, src, mega.DefaultUarchConfig())
		if uerr != nil {
			return uerr
		}
		fmt.Printf("workflow:        JetStream (cycle-level) / %s (source %d)\n", kind, src)
		fmt.Printf("cycles:          %d (%.4f ms @1GHz)\n", r.Cycles, float64(r.Cycles)/1e6)
		fmt.Printf("  deletions:     %d cycles (%.0f%%)\n", r.DelCycles,
			100*float64(r.DelCycles)/float64(r.Cycles))
		fmt.Printf("  additions:     %d cycles\n", r.AddCycles)
		fmt.Printf("events:          %d processed, %d generated\n", r.Events, r.Generated)
		fmt.Printf("edge unit:       %d fetches, %d cache hits, %.2f MB DRAM\n",
			r.Fetches, r.CacheHits, mb(r.DRAMBytes))
		if reg != nil {
			r.RecordMetrics(reg)
			return writeMetrics(opts.metricsPath, reg)
		}
		return nil
	case "boe", "ws", "dh":
		w, werr := mega.NewWindow(ev)
		if werr != nil {
			return werr
		}
		cfg := mega.DefaultSimConfig()
		if onchip > 0 {
			cfg.OnChipBytes = onchip
		}
		m := map[string]mega.ScheduleMode{"boe": mega.BOE, "ws": mega.WorkSharing, "dh": mega.DirectHop}[mode]
		res, err = mega.SimulateContext(ctx, w, kind, src, m, cfg)
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		return err
	}

	fmt.Printf("workflow:        %s / %s (source %d)\n", res.Workflow, res.Algo, src)
	fmt.Printf("snapshots:       %d\n", len(res.SnapshotValues))
	fmt.Printf("cycles:          %d (%.4f ms @1GHz)\n", res.Cycles, res.TimeMs)
	fmt.Printf("cycles w/ BP:    %d (%.4f ms)\n", res.CyclesBP, res.TimeMsBP)
	fmt.Printf("partitions:      %d\n", res.Partitions)
	fmt.Printf("DRAM traffic:    %.2f MB (spill %.2f MB, bin swap %.2f MB)\n",
		mb(res.DRAMBytes), mb(res.SpillBytes), mb(res.SwapBytes))
	fmt.Printf("edge cache:      %d hits / %d misses\n", res.CacheHits, res.CacheMiss)
	fmt.Printf("events:          %d processed, %d applied, %d generated\n",
		res.Counts.Events, res.Counts.Applied, res.Counts.GeneratedEvents)
	fmt.Printf("edges read:      %d (+%d reused by concurrent snapshots)\n",
		res.Counts.EdgesRead, res.Counts.SharedEdges)
	fmt.Printf("rounds:          %d\n", res.Counts.Rounds)
	if showProfile {
		fmt.Printf("\n%-10s %6s %9s %9s %9s %9s\n", "op", "batch", "contexts", "rounds", "events", "cycles")
		for _, p := range res.OpProfiles {
			fmt.Printf("%-10s %6d %9d %9d %9d %9d\n",
				p.Kind, p.BatchEdges, p.Contexts, p.Rounds, p.Events, p.Cycles)
		}
	}
	if reg != nil {
		res.RecordMetrics(reg)
		return writeMetrics(opts.metricsPath, reg)
	}
	return nil
}

// runEval answers the query through the fault-tolerant evaluator and
// prints a recovery report alongside a functional summary.
func runEval(ctx context.Context, w *mega.Window, kind mega.AlgorithmKind, src mega.VertexID, opts evalOptions, reg *mega.MetricsRegistry) (retErr error) {
	ropt := mega.RecoverOptions{
		CheckpointEvery: opts.ckptEvery,
		MaxRetries:      opts.retries,
		Metrics:         reg,
	}
	if opts.ckptFile != "" {
		ropt.Sink = func(b []byte) error { return writeFileAtomic(opts.ckptFile, b) }
	}
	if opts.resume {
		if opts.ckptFile == "" {
			return fmt.Errorf("%w: -resume requires -checkpoint FILE", mega.ErrInvalidInput)
		}
		data, rerr := os.ReadFile(opts.ckptFile)
		if rerr != nil {
			return fmt.Errorf("%w: reading resume file: %v", mega.ErrCheckpoint, rerr)
		}
		ropt.Checkpoint = data
	}
	var store *mega.CheckpointStore
	if opts.stateDir != "" {
		var serr error
		store, serr = mega.OpenCheckpointStore(mega.CheckpointStoreConfig{
			Dir:     opts.stateDir,
			Faults:  mega.FaultPlanFromContext(ctx),
			Metrics: reg,
		})
		if serr != nil {
			return serr
		}
		id, ierr := mega.CheckpointIDFor(w, kind, src, "")
		if ierr != nil {
			store.Close()
			return ierr
		}
		ropt.Store = store
		ropt.StoreID = id
		// Close after the evaluation; the store audit (strict under
		// MEGA_CHAOS) joins the run's own error so a books violation
		// surfaces as exit code 6 even when the query itself succeeded.
		defer func() {
			if cerr := store.Close(); cerr != nil && retErr == nil {
				retErr = cerr
			}
		}()
	}

	values, rec, err := mega.EvaluateRecover(ctx, w, kind, src, mega.BOE, ropt)
	fmt.Printf("workflow:        eval / %s (source %d)\n", kind, src)
	fmt.Printf("attempts:        %d (%d resumed from checkpoint)\n", rec.Attempts, rec.Resumes)
	if rec.DurableResume {
		fmt.Printf("resumed:         true (durable checkpoint from %s)\n", opts.stateDir)
	}
	for _, f := range rec.Faults {
		fmt.Printf("survived fault:  %s\n", f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("snapshots:       %d\n", len(values))
	identity := mega.NewAlgorithm(kind).Identity()
	for s, vals := range values {
		reached := 0
		for _, v := range vals {
			if v != identity {
				reached++
			}
		}
		fmt.Printf("  snapshot %2d:   %d/%d vertices reached\n", s, reached, len(vals))
	}
	if reg != nil {
		return writeMetrics(opts.metricsPath, reg)
	}
	return nil
}

// writeFileAtomic persists b so that a crash mid-write never leaves a
// truncated checkpoint. It delegates to the store's shared publish helper
// (temp write, fsync, rename, parent-directory fsync — the last step is
// what makes the rename itself durable across a crash).
func writeFileAtomic(path string, b []byte) error {
	return mega.AtomicWriteFile(path, b)
}

// showProfile is set by the -profile flag.
var showProfile bool

func findGraph(name string) (mega.GraphSpec, bool) {
	for _, s := range mega.PaperGraphs() {
		if s.Name == name {
			return s, true
		}
	}
	return mega.GraphSpec{}, false
}

func hub(ev *mega.Evolution) mega.VertexID {
	deg := make([]int, ev.NumVertices)
	best := 0
	for _, e := range ev.Initial {
		deg[e.Src]++
		if deg[e.Src] > deg[best] {
			best = int(e.Src)
		}
	}
	return mega.VertexID(best)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
