// Command megaserve runs the hardened HTTP front end for the concurrent
// evolving-graph query service, or acts as its one-shot client.
//
// Server mode (default):
//
//	megaserve [-listen 127.0.0.1:8080] [-addr-file FILE]
//	          [-graph PK|LJ|OR|DL|UK|Wen] [-snapshots 16] [-batch 0.01] [-load dir]
//	          [-capacity 4] [-queue-depth 64] [-default-deadline D] [-default-queue-timeout D]
//	          [-tenants name:weight[:maxrun[:maxqueue[:burst]]]]... [-tenants @FILE]
//	          [-drain 10s] [-allow-faults] [-fault-seed 42]
//	          [-state-dir DIR] [-checkpoint-every N]
//
// -state-dir enables the crash-safe durable checkpoint store: running
// queries spool checkpoints there, and a cold start against the same
// directory validates the store, re-admits orphaned in-flight work, and
// resumes it from its last durable checkpoint (see DESIGN.md §15 and the
// README's "Surviving crashes" walkthrough). /stats gains a store block.
//
// It synthesizes (or loads) an evolving-graph window, stands up the
// admission-controlled query service over it, and serves:
//
//	POST /v1/query   run one query (JSON spec: algo, source, priority,
//	                 deadline, queue_timeout, label)
//	GET  /healthz    process liveness (always ok while the process serves)
//	GET  /readyz     admission readiness (flips false the moment a drain begins)
//	GET  /metrics    JSON snapshot of the metrics registry
//	GET  /stats      service accounting snapshot + retry_after_hint_ms
//
// Failures map onto the status codes 400 invalid / 422 divergence /
// 429 overload (with Retry-After) / 499 caller hung up / 503 draining /
// 504 deadline / 500 internal, each with a structured JSON error body
// whose "kind" field carries the megaerr taxonomy across the wire.
//
// SIGINT/SIGTERM triggers the ordered graceful drain: readiness flips,
// the HTTP layer stops accepting and finishes in-flight requests, then
// the query service drains within -drain. A clean drain exits 0.
//
// Tenant QoS: each -tenants spec registers one tenant's contract —
// scheduling weight, then optional max-running, max-queued, and burst
// caps. The flag repeats, and "-tenants @FILE" reads one spec per line
// (blank lines and #-comments ignored). Requests select their tenant
// via the X-Mega-Tenant header; untagged requests bill to "default".
//
// Client mode (-server URL): submit one query (or fetch -stats) against a
// running megaserve, with typed-error reconstruction and bounded retries
// on 429/503/connection failures:
//
//	megaserve -server http://127.0.0.1:8080 [-algo SSSP] [-source 0]
//	          [-priority high] [-deadline 2s] [-tenant NAME] [-retries 3]
//	          [-stats]
//
// -stats prints the aggregate accounting line followed by one
// "tenant=" line per tenant the service has seen.
//
// Exit codes (same contract as megasim): 0 success, 1 generic failure,
// 2 invalid input, 3 canceled, 4 query divergence, 5 checkpoint
// corruption, 6 invariant-audit violation, 7 service overload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mega"
	"mega/internal/httpfront"
)

// Exit codes, mirroring megasim's documented contract.
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

// classify maps a typed error to its documented exit code and stderr
// prefix — the same table as megasim's, kept in sync by the table test.
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

// tenantSpecsFlag collects repeated -tenants values verbatim; parsing
// happens in parseTenantSpecs so the grammar errors carry the taxonomy.
type tenantSpecsFlag []string

func (f *tenantSpecsFlag) String() string { return strings.Join(*f, ",") }
func (f *tenantSpecsFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// parseTenantSpecs expands and parses the -tenants values into a tenant
// table. A value starting with '@' names a file holding one spec per
// line; blank lines and lines starting with '#' are skipped. Duplicate
// tenant names are refused.
func parseTenantSpecs(specs []string) (map[string]mega.TenantConfig, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	tenants := make(map[string]mega.TenantConfig)
	add := func(spec string) error {
		name, cfg, err := mega.ParseTenantSpec(spec)
		if err != nil {
			return err
		}
		if _, dup := tenants[name]; dup {
			return fmt.Errorf("%w: -tenants: duplicate tenant %q", mega.ErrInvalidInput, name)
		}
		tenants[name] = cfg
		return nil
	}
	for _, spec := range specs {
		if !strings.HasPrefix(spec, "@") {
			if err := add(spec); err != nil {
				return nil, err
			}
			continue
		}
		path := spec[1:]
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%w: -tenants %s: %v", mega.ErrInvalidInput, spec, err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if err := add(line); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	return tenants, nil
}

func exitWith(err error) {
	code, prefix := classify(err)
	if prefix != "" {
		fmt.Fprintf(os.Stderr, "megaserve: %s: %v\n", prefix, err)
	} else {
		fmt.Fprintln(os.Stderr, "megaserve:", err)
	}
	os.Exit(code)
}

func main() {
	// Server-mode flags.
	listen := flag.String("listen", "127.0.0.1:8080", "server: listen address (port 0 = ephemeral)")
	addrFile := flag.String("addr-file", "", "server: write the bound address to this file (for ephemeral ports)")
	graphName := flag.String("graph", "PK", "server: paper stand-in graph name")
	snapshots := flag.Int("snapshots", 16, "server: snapshot window size")
	batch := flag.Float64("batch", 0.01, "server: per-hop batch fraction of edges")
	imbalance := flag.Float64("imbalance", 1, "server: largest/smallest batch ratio")
	load := flag.String("load", "", "server: load a megagen dataset directory instead of synthesizing")
	edgeList := flag.String("edgelist", "", "server: build the window from a SNAP-style edge-list file")
	capacity := flag.Int("capacity", 0, "server: max concurrently running queries (0 = default 4)")
	queueDepth := flag.Int("queue-depth", 0, "server: max queued queries (0 = default 64)")
	defDeadline := flag.Duration("default-deadline", 0, "server: deadline for requests that set none (0 = none)")
	defQueueTimeout := flag.Duration("default-queue-timeout", 0, "server: queue timeout for requests that set none (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "server: graceful-drain deadline at shutdown")
	allowFaults := flag.Bool("allow-faults", false, "server: honor fault-injection specs in query bodies (chaos testing)")
	faultSeed := flag.Int64("fault-seed", 42, "server: seed for probabilistic fault ops")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "server: cross-query result cache budget in bytes (0 disables sharing)")
	stateDir := flag.String("state-dir", "", "server: durable checkpoint store directory (empty disables crash recovery)")
	stateBytes := flag.Int64("state-bytes", 0, "server: durable store byte budget (0 = default 256MiB)")
	ckptEvery := flag.Int("checkpoint-every", 0, "server: with -state-dir, checkpoint running queries every N rounds (0 = default 32)")
	var tenantSpecs tenantSpecsFlag
	flag.Var(&tenantSpecs, "tenants", "server: tenant contract name:weight[:maxrun[:maxqueue[:burst[:cachebytes]]]], repeatable; @FILE reads one per line")

	// Client-mode flags.
	server := flag.String("server", "", "client: server base URL; presence selects client mode")
	algoName := flag.String("algo", "SSSP", "client: algorithm: BFS SSSP SSWP SSNP Viterbi CC")
	source := flag.Int64("source", 0, "client: source vertex")
	priority := flag.String("priority", "", "client: low, normal, or high")
	deadline := flag.Duration("deadline", 0, "client: per-query deadline (0 = server default)")
	queueTimeout := flag.Duration("queue-timeout", 0, "client: queue-wait bound (0 = server default)")
	tenant := flag.String("tenant", "", "client: tenant to bill the query to (X-Mega-Tenant header)")
	retries := flag.Int("retries", 0, "client: max retries on overload/draining (0 = default 3, negative = none)")
	stats := flag.Bool("stats", false, "client: fetch /stats instead of querying")
	var clientFaults tenantSpecsFlag
	flag.Var(&clientFaults, "fault", "client: fault-injection spec for the query (repeatable; server must run -allow-faults)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	if *server != "" {
		err = runClient(ctx, clientOptions{
			server: *server, algo: *algoName, source: *source, priority: *priority,
			deadline: *deadline, queueTimeout: *queueTimeout,
			tenant: *tenant, retries: *retries, stats: *stats,
			faults: clientFaults,
		})
	} else {
		err = runServer(ctx, serverOptions{
			listen: *listen, addrFile: *addrFile,
			graph: *graphName, snapshots: *snapshots, batch: *batch, imbalance: *imbalance,
			load: *load, edgeList: *edgeList,
			capacity: *capacity, queueDepth: *queueDepth,
			defDeadline: *defDeadline, defQueueTimeout: *defQueueTimeout,
			tenantSpecs: tenantSpecs,
			drain:       *drain, allowFaults: *allowFaults, faultSeed: *faultSeed,
			cacheBytes: *cacheBytes,
			stateDir:   *stateDir, stateBytes: *stateBytes, ckptEvery: *ckptEvery,
		})
	}
	if err != nil {
		exitWith(err)
	}
}

type serverOptions struct {
	listen, addrFile             string
	graph                        string
	snapshots                    int
	batch, imbalance             float64
	load, edgeList               string
	capacity, queueDepth         int
	defDeadline, defQueueTimeout time.Duration
	tenantSpecs                  []string
	drain                        time.Duration
	allowFaults                  bool
	faultSeed                    int64
	cacheBytes                   int64
	stateDir                     string
	stateBytes                   int64
	ckptEvery                    int
}

// buildWindow synthesizes or loads the evolving-graph window the server
// answers queries over, reusing megagen's formats.
func buildWindow(ctx context.Context, opt serverOptions) (*mega.Window, error) {
	var ev *mega.Evolution
	var err error
	switch {
	case opt.load != "":
		ev, err = mega.LoadEvolutionContext(ctx, opt.load)
	case opt.edgeList != "":
		var n int
		var edges mega.EdgeList
		if n, edges, err = mega.LoadEdgeList(opt.edgeList, 1); err == nil {
			ev, err = mega.EvolveFromEdges(n, edges, mega.EvolutionSpec{
				Snapshots: opt.snapshots, BatchFraction: opt.batch, Imbalance: opt.imbalance, Seed: 42,
			})
		}
	default:
		var spec mega.GraphSpec
		found := false
		for _, s := range mega.PaperGraphs() {
			if strings.EqualFold(s.Name, opt.graph) {
				spec, found = s, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: unknown graph %q", mega.ErrInvalidInput, opt.graph)
		}
		ev, err = mega.Evolve(spec, mega.EvolutionSpec{
			Snapshots: opt.snapshots, BatchFraction: opt.batch, Imbalance: opt.imbalance, Seed: 42,
		})
	}
	if err != nil {
		return nil, err
	}
	return mega.NewWindow(ev)
}

func runServer(ctx context.Context, opt serverOptions) error {
	win, err := buildWindow(ctx, opt)
	if err != nil {
		return err
	}
	tenants, err := parseTenantSpecs(opt.tenantSpecs)
	if err != nil {
		return err
	}
	reg := mega.NewMetricsRegistry()
	var store *mega.CheckpointStore
	if opt.stateDir != "" {
		store, err = mega.OpenCheckpointStore(mega.CheckpointStoreConfig{
			Dir:      opt.stateDir,
			MaxBytes: opt.stateBytes,
			Metrics:  reg,
		})
		if err != nil {
			return err
		}
	}
	svc, err := mega.NewQueryService(mega.ServeOptions{
		Capacity:            opt.capacity,
		QueueDepth:          opt.queueDepth,
		DefaultDeadline:     opt.defDeadline,
		DefaultQueueTimeout: opt.defQueueTimeout,
		Tenants:             tenants,
		CacheBytes:          opt.cacheBytes,
		CheckpointEvery:     opt.ckptEvery,
		Metrics:             reg,
		Store:               store,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return err
	}
	if store != nil {
		// Cold-start recovery: re-admit the in-flight work a dead process
		// left in the store; each orphan resumes from its last durable
		// checkpoint in the background under normal admission control.
		n, rerr := svc.RecoverOrphans(ctx, win)
		if rerr != nil {
			cctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			svc.Close(cctx)
			return rerr
		}
		fmt.Fprintf(os.Stderr, "megaserve: state dir %s: recovered %d orphaned queries\n", opt.stateDir, n)
	}
	front, err := httpfront.New(httpfront.Config{
		Service:             svc,
		Window:              win,
		Metrics:             reg,
		AllowFaultInjection: opt.allowFaults,
		FaultSeed:           opt.faultSeed,
	})
	if err != nil {
		// The service never served; close it with a bounded drain so the
		// error path does not leak its goroutines.
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		svc.Close(cctx)
		return err
	}

	ln, err := net.Listen("tcp", opt.listen)
	if err != nil {
		cctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		svc.Close(cctx)
		return fmt.Errorf("%w: listen %s: %v", mega.ErrInvalidInput, opt.listen, err)
	}
	addr := ln.Addr().String()
	if opt.addrFile != "" {
		if err := writeFileAtomic(opt.addrFile, []byte(addr+"\n")); err != nil {
			ln.Close()
			cctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			svc.Close(cctx)
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "megaserve: serving %s (%d vertices, %d snapshots) on http://%s\n",
		opt.graph, win.NumVertices(), win.NumSnapshots(), addr)

	serveErr := make(chan error, 1)
	go func() { serveErr <- front.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener failed on its own; drain the service regardless.
		dctx, cancel := context.WithTimeout(context.Background(), opt.drain)
		defer cancel()
		return errors.Join(err, front.Shutdown(dctx))
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "megaserve: signal received, draining (deadline %s)\n", opt.drain)
	dctx, cancel := context.WithTimeout(context.Background(), opt.drain)
	defer cancel()
	if err := front.Shutdown(dctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "megaserve: drained cleanly")
	return nil
}

type clientOptions struct {
	server       string
	algo         string
	source       int64
	priority     string
	deadline     time.Duration
	queueTimeout time.Duration
	tenant       string
	retries      int
	stats        bool
	faults       []string
}

func runClient(ctx context.Context, opt clientOptions) error {
	c, err := httpfront.NewClient(httpfront.ClientConfig{
		BaseURL:    opt.server,
		MaxRetries: opt.retries,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	if opt.stats {
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("state=%s admitted=%d completed=%d failed=%d canceled=%d rejected=%d shed=%d running=%d queued=%d retry_after_hint=%s\n",
			st.State, st.Admitted, st.Completed, st.Failed, st.Canceled,
			st.Rejected, st.Shed, st.Running, st.Queued,
			time.Duration(st.RetryAfterHintMs)*time.Millisecond)
		if st.Cache.MaxBytes > 0 {
			fmt.Printf("cache hits=%d misses=%d lookups=%d coalesced=%d engine_runs=%d entries=%d bytes=%d/%d\n",
				st.Cache.Hits, st.Cache.Misses, st.Cache.Lookups,
				st.CoalescedQueries, st.EngineRuns,
				st.Cache.Entries, st.Cache.Bytes, st.Cache.MaxBytes)
		}
		if st.Store.MaxBytes > 0 {
			fmt.Printf("store queries=%d segments=%d bytes=%d/%d writes=%d promoted=%d failed=%d quarantined=%d reclaimed=%d resumes=%d\n",
				st.Store.Queries, st.Store.Segments, st.Store.Bytes, st.Store.MaxBytes,
				st.Store.Writes, st.Store.Promoted, st.Store.Failed,
				st.Store.Quarantined, st.Store.Reclaimed, st.Store.Resumes)
		}
		for _, tn := range st.Tenants {
			fmt.Printf("tenant=%s weight=%d admitted=%d completed=%d failed=%d canceled=%d rejected=%d shed=%d running=%d queued=%d retry_after_hint=%s\n",
				tn.Name, tn.Weight, tn.Admitted, tn.Completed, tn.Failed,
				tn.Canceled, tn.Rejected, tn.Shed, tn.Running, tn.Queued,
				time.Duration(tn.RetryAfterHintMs)*time.Millisecond)
		}
		return nil
	}

	res, err := c.Query(ctx, httpfront.QuerySpec{
		Algo:         opt.algo,
		Source:       opt.source,
		Priority:     opt.priority,
		Deadline:     httpfront.Duration(opt.deadline),
		QueueTimeout: httpfront.Duration(opt.queueTimeout),
		Tenant:       opt.tenant,
		Faults:       opt.faults,
	})
	if err != nil {
		return err
	}
	cache := res.Report.Cache
	if cache == "" {
		cache = "none"
	}
	fmt.Printf("snapshots=%d engine=%s cache=%s resumed=%t attempts=%d queue_wait=%s run_time=%s request_id=%s\n",
		len(res.Values), res.Report.Engine, cache, res.Report.Resumed, res.Report.Attempts,
		time.Duration(res.Report.QueueWait), time.Duration(res.Report.RunTime), res.RequestID)
	for i, snap := range res.Values {
		reached := 0
		for _, v := range snap {
			if !isUnreached(v) {
				reached++
			}
		}
		fmt.Printf("snapshot %2d: %d/%d vertices reached\n", i, reached, len(snap))
	}
	return nil
}

// isUnreached reports whether v is an identity value (±Inf) — an
// unreached vertex under every built-in algorithm.
func isUnreached(v float64) bool { return math.IsInf(v, 0) }

// writeFileAtomic persists b via the store's crash-safe publish helper
// (temp-file + fsync + rename + parent-directory fsync) so a concurrently
// polling reader never sees a truncated address file and a crash right
// after the write cannot lose it.
func writeFileAtomic(path string, b []byte) error {
	return mega.AtomicWriteFile(path, b)
}
