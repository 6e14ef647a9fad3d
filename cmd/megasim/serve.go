package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mega"
)

// querySpec is one parsed line of a -queries file.
type querySpec struct {
	req   mega.QueryRequest
	plan  *mega.FaultPlan
	label string
}

// parseQuerySpec parses one query line of the serve-mode input. Lines are
// whitespace-separated key=value pairs:
//
//	algo=SSSP source=7 priority=high deadline=2s queue-timeout=100ms \
//	    label=q7 tenant=team-a fault=engine.round:transient@3
//
// Every key is optional; algo and source default to the corresponding
// megasim flags. tenant bills the query to that tenant's
// admission quota (absent = the default tenant). fault is repeatable and
// builds a per-query deterministic fault plan seeded by seed.
func parseQuerySpec(line string, defaults querySpec, seed int64) (querySpec, error) {
	spec := defaults
	var plan *mega.FaultPlan
	for _, field := range strings.Fields(line) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return spec, fmt.Errorf("%w: query field %q is not key=value", mega.ErrInvalidInput, field)
		}
		switch key {
		case "algo":
			kind, err := mega.ParseAlgorithm(val)
			if err != nil {
				return spec, err
			}
			spec.req.Algo = kind
		case "source":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return spec, fmt.Errorf("%w: bad source %q", mega.ErrInvalidInput, val)
			}
			spec.req.Source = mega.VertexID(v)
		case "priority":
			p, err := mega.ParseQueryPriority(val)
			if err != nil {
				return spec, err
			}
			spec.req.Priority = p
		case "deadline":
			d, err := time.ParseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("%w: bad deadline %q: %v", mega.ErrInvalidInput, val, err)
			}
			spec.req.Deadline = d
		case "queue-timeout":
			d, err := time.ParseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("%w: bad queue-timeout %q: %v", mega.ErrInvalidInput, val, err)
			}
			spec.req.QueueTimeout = d
		case "label":
			spec.label = val
		case "tenant":
			if err := mega.ValidateQueryTenant(val); err != nil {
				return spec, err
			}
			spec.req.Tenant = val
		case "fault":
			op, err := mega.ParseFaultOp(val)
			if err != nil {
				return spec, err
			}
			if plan == nil {
				plan = mega.NewFaultPlan(seed)
			}
			plan.Add(op)
		default:
			return spec, fmt.Errorf("%w: unknown query field %q", mega.ErrInvalidInput, key)
		}
	}
	spec.plan = plan
	return spec, nil
}

// readQuerySpecs parses the serve-mode input: one query per line, blank
// lines and #-comments skipped. path "-" reads stdin.
func readQuerySpecs(path string, defaults querySpec, seed int64) ([]querySpec, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("%w: opening queries file: %v", mega.ErrInvalidInput, err)
		}
		defer f.Close()
		r = f
	}
	var specs []querySpec
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		spec, err := parseQuerySpec(line, defaults, seed+int64(lineNo))
		if err != nil {
			return nil, fmt.Errorf("queries line %d: %w", lineNo, err)
		}
		if spec.label == "" {
			spec.label = fmt.Sprintf("q%d", len(specs))
		}
		specs = append(specs, spec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: reading queries: %v", mega.ErrInvalidInput, err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: no queries in %s", mega.ErrInvalidInput, path)
	}
	return specs, nil
}

// runServe answers a batch of concurrent queries through the admission-
// controlled query service and reports each query's status, the service's
// accounting, and (with -metrics) a snapshot including the drain audit.
// The process exit status reflects the first failed query, if any.
func runServe(ctx context.Context, w *mega.Window, kind mega.AlgorithmKind, src mega.VertexID, opts evalOptions, reg *mega.MetricsRegistry) error {
	if opts.queries == "" {
		return fmt.Errorf("%w: -mode serve requires -queries FILE (use - for stdin)", mega.ErrInvalidInput)
	}
	defaults := querySpec{req: mega.QueryRequest{Window: w, Algo: kind, Source: src}}
	specs, err := readQuerySpecs(opts.queries, defaults, opts.faultSeed)
	if err != nil {
		return err
	}

	var store *mega.CheckpointStore
	if opts.stateDir != "" {
		store, err = mega.OpenCheckpointStore(mega.CheckpointStoreConfig{
			Dir:     opts.stateDir,
			Faults:  mega.FaultPlanFromContext(ctx),
			Metrics: reg,
		})
		if err != nil {
			return err
		}
	}
	svc, err := mega.NewQueryService(mega.ServeOptions{
		Capacity:        opts.capacity,
		QueueDepth:      opts.queueDepth,
		CheckpointEvery: opts.ckptEvery,
		MaxRetries:      opts.retries,
		CacheBytes:      opts.cacheBytes,
		Metrics:         reg,
		Store:           store, // service takes ownership; Close closes it
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return err
	}
	if store != nil {
		// Cold start: re-admit whatever a killed process left behind so
		// those queries finish alongside this run's batch.
		if n, rerr := svc.RecoverOrphans(ctx, w); rerr != nil {
			drainCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			svc.Close(drainCtx)
			return rerr
		} else if n > 0 {
			fmt.Printf("recovered:       %d orphaned queries from %s\n", n, opts.stateDir)
		}
	}

	type outcome struct {
		res *mega.QueryResult
		err error
	}
	outcomes := make([]outcome, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec querySpec) {
			defer wg.Done()
			qctx := ctx
			if spec.plan != nil {
				qctx = mega.WithFaultPlan(qctx, spec.plan)
			}
			res, err := svc.Submit(qctx, spec.req)
			outcomes[i] = outcome{res: res, err: err}
		}(i, spec)
	}
	wg.Wait()

	drain := opts.drain
	if drain <= 0 {
		drain = 10 * time.Second
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	closeErr := svc.Close(drainCtx)

	fmt.Printf("workflow:        serve / %d queries (capacity %d, queue %d)\n",
		len(specs), opts.capacity, opts.queueDepth)
	var firstErr error
	failed := 0
	for i, o := range outcomes {
		if o.err != nil {
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
			fmt.Printf("  query %-12s FAILED: %v\n", specs[i].label+":", o.err)
			continue
		}
		r := o.res.Report
		status := r.Engine
		if r.Cache != "" && r.Cache != "hit" {
			status += " (" + r.Cache + ")"
		}
		fmt.Printf("  query %-12s ok engine=%s attempts=%d wait=%s run=%s\n",
			specs[i].label+":", status, r.Attempts,
			r.QueueWait.Round(time.Microsecond), r.RunTime.Round(time.Microsecond))
	}
	st := svc.Stats()
	fmt.Printf("queries:         %d ok, %d failed\n", len(specs)-failed, failed)
	fmt.Printf("accounting:      %d admitted = %d completed + %d failed + %d canceled + %d shed; %d rejected\n",
		st.Admitted, st.Completed, st.Failed, st.Canceled, st.Shed, st.Rejected)
	// A single default tenant reproduces the aggregate exactly; only a
	// genuinely multi-tenant run earns the per-tenant breakdown.
	if len(st.Tenants) > 1 {
		for _, tn := range st.Tenants {
			fmt.Printf("  tenant %-12s weight=%d admitted=%d completed=%d failed=%d canceled=%d shed=%d rejected=%d\n",
				tn.Name+":", tn.Weight, tn.Admitted, tn.Completed, tn.Failed,
				tn.Canceled, tn.Shed, tn.Rejected)
		}
	}
	if st.Cache.MaxBytes > 0 {
		fmt.Printf("cache:           %d hits / %d lookups, %d coalesced, %d batched, %d seeded; %d engine runs\n",
			st.Cache.Hits, st.Cache.Lookups, st.CoalescedQueries, st.BatchedQueries,
			st.SeededQueries, st.EngineRuns)
	}
	if st.Store.MaxBytes > 0 {
		fmt.Printf("store:           %d queries, %d segments, %d/%d bytes; %d writes (%d promoted, %d failed, %d quarantined), %d reclaimed, %d resumes\n",
			st.Store.Queries, st.Store.Segments, st.Store.Bytes, st.Store.MaxBytes,
			st.Store.Writes, st.Store.Promoted, st.Store.Failed,
			st.Store.Quarantined, st.Store.Reclaimed, st.Store.Resumes)
	}

	if reg != nil {
		if err := writeMetrics(opts.metricsPath, reg); err != nil {
			return err
		}
	}
	if closeErr != nil {
		return closeErr
	}
	return firstErr
}
