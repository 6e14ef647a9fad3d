package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"mega"
	"mega/internal/algo"
	"mega/internal/engine"
	"mega/internal/httpfront"
	"mega/internal/qcache"
	"mega/internal/sched"
)

// The traced pass prices every layer from outside: the same keys go up a
// ladder of public entry points, one span per call, and a rung's self
// time is its span minus the rung below for the same key. It runs
// in-process after the servers are gone, so nothing competes with it.

// cacheBytes is megaserve's default -cache-bytes.
const cacheBytes = 64 << 20

// ladderOut collects per-key values per metric; the reported number is
// the median over keys.
type ladderOut struct {
	vals      map[string][]float64
	negatives map[string]int // per self-time metric: keys whose difference came out negative
}

func newLadderOut() *ladderOut {
	return &ladderOut{vals: map[string][]float64{}, negatives: map[string]int{}}
}

func (o *ladderOut) put(name string, v float64) { o.vals[name] = append(o.vals[name], v) }

// self records rung − below. A negative difference is kept as measured
// and counted, never clamped to zero.
func (o *ladderOut) self(name string, rung, below float64) {
	d := rung - below
	if d < 0 {
		o.negatives[name]++
	}
	o.put(name, d)
}

// notes reports every self-time metric that came out negative for some
// key, with the worst case.
func (o *ladderOut) notes() (out []string) {
	for _, name := range sortedKeys(o.negatives) {
		worst := 0.0
		for _, v := range o.vals[name] {
			worst = min(worst, v)
		}
		out = append(out, fmt.Sprintf("%s: negative for %d of %d keys (lowest %.4f): the rung below cost more than the rung itself on those calls",
			name, o.negatives[name], len(o.vals[name]), worst))
	}
	return out
}

// ladder is the state the rungs share across keys.
type ladder struct {
	ctx    context.Context
	w      *mega.Window
	verify *verifier
	tr     *tracer
	out    *ladderOut

	cache    *qcache.Cache
	svc      *mega.QueryService // for Submit rungs
	frontSvc *mega.QueryService // behind the handler rungs
	handler  http.Handler
	ts       *httptest.Server
	client   *httpfront.Client
	store    *mega.CheckpointStore
}

// call times fn as one span and returns its duration in ms and the bytes
// allocated meanwhile in KB (runtime.MemStats.TotalAlloc delta, read
// outside the timed interval). A collection first gives every rung the
// same clean heap, so a rung pays for the garbage it makes itself and not
// for what the rung before it left behind (keepFreedPagesMapped is what
// keeps that from costing the next rung a page fault per page).
func (l *ladder) call(name string, parent, query int, fn func() error) (durMs, allocKB float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = fn()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	l.tr.add(name, parent, query, t0, t1)
	if err != nil {
		err = fmt.Errorf("ladder %s: %w", name, err)
	}
	return ms(t1.Sub(t0)), float64(m1.TotalAlloc-m0.TotalAlloc) / 1000, err
}

// runLadder takes keys up the rungs; the store rungs, which fsync, run
// for the first storeKeys only. v holds mega.EvaluateContext's values for
// every key, events its processed-event counts; every rung's values are
// checked against the reference bit for bit.
func runLadder(ctx context.Context, w *mega.Window, keys []key, storeKeys int, v *verifier, events map[key]int64, workdir string, tr *tracer) (*ladderOut, error) {
	out := newLadderOut()
	l := &ladder{ctx: ctx, w: w, verify: v, tr: tr, out: out}

	var err error
	if l.cache, err = qcache.New(qcache.Config{MaxBytes: cacheBytes}); err != nil {
		return nil, err
	}
	defer l.cache.Close()
	if l.svc, err = mega.NewQueryService(mega.ServeOptions{CacheBytes: cacheBytes}); err != nil {
		return nil, err
	}
	defer closeService(l.svc)
	if l.frontSvc, err = mega.NewQueryService(mega.ServeOptions{CacheBytes: cacheBytes}); err != nil {
		return nil, err
	}
	defer closeService(l.frontSvc)
	front, err := httpfront.New(httpfront.Config{Service: l.frontSvc, Window: w})
	if err != nil {
		return nil, err
	}
	l.handler = front.Handler()
	l.ts = httptest.NewServer(l.handler)
	defer l.ts.Close()
	if l.client, err = newClient(l.ts.URL); err != nil {
		return nil, err
	}
	defer l.client.Close()
	storeDir, err := os.MkdirTemp(workdir, "ladder-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	if l.store, err = mega.OpenCheckpointStore(mega.CheckpointStoreConfig{Dir: filepath.Join(storeDir, "state")}); err != nil {
		return nil, err
	}
	defer l.store.Close()

	for i, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := l.climb(k, i < storeKeys); err != nil {
			return nil, err
		}
		out.put("engine.multi_events", float64(events[k]))
	}
	return out, nil
}

func closeService(svc *mega.QueryService) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	svc.Close(ctx)
}

// climb takes one key up every rung.
func (l *ladder) climb(k key, withStore bool) error {
	q := l.tr.newQuery()
	root := l.tr.reserve("ladder.key", q)
	start := time.Now()
	defer func() { l.tr.finish(root, start, time.Now()) }()
	out := l.out
	same := func(rung string, vals [][]float64) error {
		bitwise, err := l.verify.check(k, vals)
		if err == nil && !bitwise {
			err = fmt.Errorf("%s source %d has no reference values", k.Algo, k.Source)
		}
		if err != nil {
			return fmt.Errorf("ladder %s: %w", rung, err)
		}
		return nil
	}

	// Identity: the window fingerprint folded with the key.
	var id mega.CheckpointQueryID
	d, _, err := l.call("engine.fingerprint", root, q, func() (err error) {
		id, err = mega.CheckpointIDFor(l.w, k.Algo, k.Source, mega.DefaultTenantName)
		return err
	})
	if err != nil {
		return err
	}
	out.put("engine.fingerprint_ms", d)

	// Bare engine.
	var vals [][]float64
	multiMs, alloc, err := l.call("engine.multi", root, q, func() (err error) {
		vals, err = mega.EvaluateContext(l.ctx, l.w, k.Algo, k.Source)
		return err
	})
	if err == nil {
		err = same("engine.multi", vals)
	}
	if err != nil {
		return err
	}
	out.put("engine.multi_ms", multiMs)
	out.put("engine.multi_alloc_kb", alloc)

	// Parallel engine, 1 worker and nproc workers: the body of
	// mega.EvaluateParallelContext, kept open so the events of the very
	// run that is timed can be read.
	for _, p := range []struct {
		name    string
		workers int
	}{{"par1", 1}, {"parN", runtime.NumCPU()}} {
		var eng *engine.Parallel
		d, _, err := l.call("engine."+p.name, root, q, func() (err error) {
			vals, eng, err = evaluateParallel(l.ctx, l.w, k, p.workers)
			return err
		})
		if err == nil {
			err = same("engine."+p.name, vals)
		}
		if err != nil {
			return err
		}
		out.put("engine."+p.name+"_ms", d)
		out.put("engine."+p.name+"_events", float64(eng.Events()))
	}

	// Checkpoint encode and restore on a finished sequential engine.
	if err := l.checkpointRungs(k, root, q); err != nil {
		return err
	}

	// Recovery wrapper, no store: what every served query runs. The sink
	// only counts: keeping 31 checkpoints alive would make the allocator
	// fault in fresh pages for each, which no served query pays.
	var ckptCount, ckptBytes int
	var rec *mega.Recovery
	recoverMs, alloc, err := l.call("recover", root, q, func() (err error) {
		vals, rec, err = mega.EvaluateRecover(l.ctx, l.w, k.Algo, k.Source, mega.BOE, mega.RecoverOptions{
			Sink: func(b []byte) error { ckptCount++; ckptBytes += len(b); return nil },
		})
		return err
	})
	if err == nil {
		err = same("recover", vals)
	}
	if err != nil {
		return err
	}
	out.self("recover.self_ms", recoverMs, multiMs)
	out.put("recover.alloc_kb", alloc)
	out.put("recover.checkpoints", float64(ckptCount))
	out.put("recover.ckpt_kb", float64(ckptBytes)/1000)

	if withStore {
		if err := l.storeRungs(k, id, recoverMs, root, q, same); err != nil {
			return err
		}
	}

	// Result cache, on the real result set.
	fp, err := l.cache.Fingerprint(l.w)
	if err != nil {
		return err
	}
	ck := qcache.KeyFor(fp, uint32(k.Algo), uint32(k.Source))
	d, _, err = l.call("qcache.insert", root, q, func() error {
		if !l.cache.Insert(ck, fp, mega.DefaultTenantName, vals, rec.Base) {
			return fmt.Errorf("result not resident")
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.put("qcache.insert_us", d*1000)
	d, _, err = l.call("qcache.lookup", root, q, func() error {
		got, ok := l.cache.Lookup(ck, fp)
		if !ok {
			return fmt.Errorf("miss on a just-inserted key")
		}
		return same("qcache.lookup", got)
	})
	if err != nil {
		return err
	}
	out.put("qcache.lookup_hit_us", d*1000)

	// Query service: a miss, then a hit.
	req := mega.QueryRequest{Window: l.w, Algo: k.Algo, Source: k.Source}
	var res *mega.QueryResult
	submit := func() (err error) { res, err = l.svc.Submit(l.ctx, req); return err }
	d, _, err = l.call("serve.submit_miss", root, q, submit)
	if err == nil {
		err = same("serve.submit_miss", res.Values)
	}
	if err != nil {
		return err
	}
	out.self("serve.miss_self_ms", d, recoverMs)
	submitHitMs, submitHitKB, err := l.call("serve.submit_hit", root, q, submit)
	if err == nil && res.Report.Cache != "hit" {
		err = fmt.Errorf("ladder serve.submit_hit: second Submit reported cache=%q", res.Report.Cache)
	}
	if err == nil {
		err = same("serve.submit_hit", res.Values)
	}
	if err != nil {
		return err
	}
	out.put("serve.hit_us", submitHitMs*1000)
	out.put("serve.hit_alloc_kb", submitHitKB)

	// HTTP front end, on the hit path: the handler's own work (decode the
	// spec, build the request, base64/JSON-encode the values) is the same
	// for a hit and a miss, and against a 0.1 ms Submit it is not drowned
	// by the engine's run-to-run noise. The first call fills the cache.
	body, _ := json.Marshal(httpfront.QuerySpec{Algo: k.Algo.String(), Source: int64(k.Source)})
	var recd *httptest.ResponseRecorder
	serveHTTP := func() error {
		recd = httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		l.handler.ServeHTTP(recd, r)
		if recd.Code != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", recd.Code, recd.Body.String())
		}
		return nil
	}
	if _, _, err = l.call("httpfront.handler_miss", root, q, serveHTTP); err != nil {
		return err
	}
	handlerMs, handlerKB, err := l.call("httpfront.handler_hit", root, q, serveHTTP)
	if err != nil {
		return err
	}
	out.self("httpfront.handler_self_ms", handlerMs, submitHitMs)
	out.self("httpfront.alloc_kb", handlerKB, submitHitKB)
	out.put("httpfront.resp_kb", float64(stableBodyBytes(recd.Body.Bytes()))/1000)

	// Client over in-process loopback, hit path.
	var qr *httpfront.QueryResult
	d, _, err = l.call("httpfront.client_hit", root, q, func() (err error) {
		qr, err = l.client.Query(l.ctx, httpfront.QuerySpec{Algo: k.Algo.String(), Source: int64(k.Source)})
		return err
	})
	if err == nil {
		err = same("httpfront.client_hit", qr.Values)
	}
	if err != nil {
		return err
	}
	out.self("httpfront.client_self_ms", d, handlerMs)
	return nil
}

// evaluateParallel is the body of mega.EvaluateParallelContext with the
// engine handed back.
func evaluateParallel(ctx context.Context, w *mega.Window, k key, workers int) ([][]float64, *engine.Parallel, error) {
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.NewParallel(w, algo.New(k.Algo), k.Source, workers)
	if err != nil {
		return nil, nil, err
	}
	if err := eng.RunContext(ctx, s, mega.Limits{}); err != nil {
		return nil, nil, err
	}
	out := make([][]float64, w.NumSnapshots())
	for snap := range out {
		out[snap] = eng.SnapshotValues(s, snap)
	}
	return out, eng, nil
}

// checkpointRungs times Multi.Checkpoint on a finished run and
// Multi.Restore of those bytes into a fresh engine.
func (l *ladder) checkpointRungs(k key, root, q int) error {
	s, err := sched.New(sched.BOE, l.w)
	if err != nil {
		return err
	}
	eng, err := engine.NewMulti(l.w, algo.New(k.Algo), k.Source, nil)
	if err != nil {
		return err
	}
	if err := eng.RunContext(l.ctx, s, mega.Limits{}); err != nil {
		return err
	}
	var data []byte
	d, _, err := l.call("engine.ckpt_encode", root, q, func() (err error) {
		data, err = eng.Checkpoint()
		return err
	})
	if err != nil {
		return err
	}
	l.out.put("engine.ckpt_encode_ms", d)
	l.out.put("engine.ckpt_kb", float64(len(data))/1000)
	fresh, err := engine.NewMulti(l.w, algo.New(k.Algo), k.Source, nil)
	if err != nil {
		return err
	}
	d, _, err = l.call("engine.restore", root, q, func() error { return fresh.Restore(data) })
	if err != nil {
		return err
	}
	l.out.put("engine.restore_ms", d)
	return nil
}

// storeRungs captures the query's checkpoints in an untimed run (the
// engine hands over a fresh buffer per checkpoint, so the reference can be
// kept), replays them through Store.Write, Load and Delete, then runs the
// recovery wrapper with the store attached.
func (l *ladder) storeRungs(k key, id mega.CheckpointQueryID, recoverMs float64, root, q int, same func(string, [][]float64) error) error {
	out := l.out
	var ckpts [][]byte
	if _, _, err := mega.EvaluateRecover(l.ctx, l.w, k.Algo, k.Source, mega.BOE, mega.RecoverOptions{
		Sink: func(b []byte) error { ckpts = append(ckpts, b); return nil },
	}); err != nil {
		return fmt.Errorf("ladder capturing checkpoints: %w", err)
	}
	if len(ckpts) == 0 {
		return fmt.Errorf("ladder: %s source %d took no checkpoint to replay", k.Algo, k.Source)
	}
	for _, c := range ckpts {
		d, _, err := l.call("ckptstore.write", root, q, func() error { return l.store.Write(id, c) })
		if err != nil {
			return err
		}
		out.put("ckptstore.write_ms", d)
		out.put("ckptstore.write_kb", float64(len(c))/1000)
	}
	d, _, err := l.call("ckptstore.load", root, q, func() error {
		data, _, err := l.store.Load(id)
		if err == nil && !bytes.Equal(data, ckpts[len(ckpts)-1]) {
			err = fmt.Errorf("loaded bytes differ from the last generation written")
		}
		return err
	})
	if err != nil {
		return err
	}
	out.put("ckptstore.load_ms", d)
	d, _, err = l.call("ckptstore.delete", root, q, func() error { return l.store.Delete(id) })
	if err != nil {
		return err
	}
	out.put("ckptstore.delete_ms", d)

	var vals [][]float64
	var peak int64
	d, _, err = l.call("recover.durable", root, q, func() (err error) {
		vals, _, err = mega.EvaluateRecover(l.ctx, l.w, k.Algo, k.Source, mega.BOE, mega.RecoverOptions{
			Store: l.store, StoreID: id,
			// Runs after each store write: the store's own books give the
			// query's live on-disk footprint.
			Sink: func([]byte) error { peak = max(peak, l.store.Stats().Bytes); return nil },
		})
		return err
	})
	if err == nil {
		err = same("recover.durable", vals)
	}
	if err != nil {
		return err
	}
	out.self("ckptstore.self_ms", d, recoverMs)
	out.put("ckptstore.disk_kb_per_query", float64(peak)/1000)
	return nil
}

// stableBodyBytes sizes a /v1/query response without the parts that vary
// from run to run (the report's duration strings and the request ID), so
// the size repeats exactly. A body that is not a JSON object counts whole.
func stableBodyBytes(body []byte) int {
	var fields map[string]json.RawMessage
	if json.Unmarshal(body, &fields) != nil {
		return len(body)
	}
	n := 0
	for name, raw := range fields {
		if name == "report" || name == "request_id" {
			continue
		}
		n += len(name) + len(raw)
	}
	return n
}

// simStats are the paper oracle's simulated statistics for PK′ SSSP BOE
// and the host time the two simulators took.
type simStats struct {
	boeCycles, events, uarchCycles int64
	simHostMs, uarchHostMs         float64
}

// runSimulators calls each simulator twice: the simulated statistics
// must be identical between the calls (and on any commit that only
// changes host speed); host time is the mean of the two.
func runSimulators(w *mega.Window, src mega.VertexID, tr *tracer) (simStats, error) {
	var st simStats
	q := tr.newQuery()
	var sims [2]*mega.SimResult
	var cyc [2]*mega.UarchResult
	for i := range sims {
		t0 := time.Now()
		r, err := mega.Simulate(w, mega.SSSP, src, mega.BOE, mega.DefaultSimConfig())
		if err != nil {
			return st, err
		}
		t1 := time.Now()
		tr.add("sim.boe", 0, q, t0, t1)
		sims[i] = r
		st.simHostMs += ms(t1.Sub(t0)) / 2

		t0 = time.Now()
		u, err := mega.SimulateCycleLevel(w, mega.SSSP, src, mega.DefaultUarchConfig())
		if err != nil {
			return st, err
		}
		t1 = time.Now()
		tr.add("uarch.boe", 0, q, t0, t1)
		cyc[i] = u
		st.uarchHostMs += ms(t1.Sub(t0)) / 2
	}
	if !reflect.DeepEqual(sims[0], sims[1]) {
		return st, fmt.Errorf("mega.Simulate: statistics differ between two calls (cycles %d vs %d, events %d vs %d)",
			sims[0].Cycles, sims[1].Cycles, sims[0].Counts.Events, sims[1].Counts.Events)
	}
	if !reflect.DeepEqual(cyc[0], cyc[1]) {
		return st, fmt.Errorf("mega.SimulateCycleLevel: statistics differ between two calls (cycles %d vs %d)",
			cyc[0].Cycles, cyc[1].Cycles)
	}
	st.boeCycles, st.events, st.uarchCycles = sims[0].Cycles, sims[0].Counts.Events, cyc[0].Cycles
	return st, nil
}
