package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"mega/internal/httpfront"
)

// verifier checks every response's shape and, for keys with a reference,
// its values bit for bit.
type verifier struct {
	snapshots, vertices int
	refs                map[key][][]float64
}

// check returns nil for a correct response; bitwise reports whether the
// values were compared against a reference (not just shape-checked).
func (v *verifier) check(k key, vals [][]float64) (bitwise bool, err error) {
	if len(vals) != v.snapshots {
		return false, fmt.Errorf("%s source %d: %d snapshots, want %d", k.Algo, k.Source, len(vals), v.snapshots)
	}
	for s, snap := range vals {
		if len(snap) != v.vertices {
			return false, fmt.Errorf("%s source %d: snapshot %d has %d values, want %d", k.Algo, k.Source, s, len(snap), v.vertices)
		}
	}
	ref, ok := v.refs[k]
	if !ok {
		return false, nil
	}
	for s, snap := range vals {
		for i, x := range snap {
			if math.Float64bits(x) != math.Float64bits(ref[s][i]) {
				return true, fmt.Errorf("%s source %d: snapshot %d vertex %d = %v (%#x), reference %v (%#x)",
					k.Algo, k.Source, s, i, x, math.Float64bits(x), ref[s][i], math.Float64bits(ref[s][i]))
			}
		}
	}
	return true, nil
}

// roundResult is what one closed-loop round measured.
type roundResult struct {
	QPS         float64 // sum over clients of verified-OK responses ÷ that client's elapsed time
	LatMs       []float64
	QueueWaitMs []float64
	RunMs       []float64
	// Traced rounds only: wrote-request → first byte → body read → decoded.
	WaitMs, TransferMs, DecodeMs []float64

	Attempted, Failed int
	BitVerified       int
	CacheHits         int      // responses the server reported as cache hits
	Exhausted         bool     // the key source ran dry before the round ended
	Errors            []string // the first few failures, for the report
}

const maxReportedErrors = 5

// runRound drives the clients closed-loop — each sends its next request
// only after the previous reply is decoded and verified — for dur (0 = until
// the key source is empty). Latency is send → decoded QueryResult. With a
// tracer, every request also records its client-side spans.
func runRound(ctx context.Context, clients []*httpfront.Client, dur time.Duration, next keySource, v *verifier, tr *tracer) roundResult {
	var (
		mu  sync.Mutex
		res roundResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *httpfront.Client) {
			defer wg.Done()
			var local roundResult
			last := start
			ok := 0
			for ctx.Err() == nil && (dur == 0 || time.Since(start) < dur) {
				k, more := next(c)
				if !more {
					local.Exhausted = true
					break
				}
				spec := httpfront.QuerySpec{Algo: k.Algo.String(), Source: int64(k.Source)}
				qctx := ctx
				var rt reqTimes
				if tr != nil {
					qctx = withReqTimes(ctx, &rt)
				}
				t0 := time.Now()
				qr, err := cl.Query(qctx, spec)
				t1 := time.Now()
				last = t1
				local.Attempted++
				if err == nil {
					var bitwise bool
					if bitwise, err = v.check(k, qr.Values); bitwise {
						local.BitVerified++
					}
				}
				if err != nil {
					local.Failed++
					if len(local.Errors) < maxReportedErrors {
						local.Errors = append(local.Errors, err.Error())
					}
					continue
				}
				ok++
				local.LatMs = append(local.LatMs, ms(t1.Sub(t0)))
				local.QueueWaitMs = append(local.QueueWaitMs, ms(time.Duration(qr.Report.QueueWait)))
				local.RunMs = append(local.RunMs, ms(time.Duration(qr.Report.RunTime)))
				if qr.Report.Cache == "hit" {
					local.CacheHits++
				}
				if tr != nil && !rt.wrote.IsZero() && !rt.firstByte.IsZero() && !rt.bodyRead.IsZero() {
					local.WaitMs = append(local.WaitMs, ms(rt.firstByte.Sub(rt.wrote)))
					local.TransferMs = append(local.TransferMs, ms(rt.bodyRead.Sub(rt.firstByte)))
					local.DecodeMs = append(local.DecodeMs, ms(t1.Sub(rt.bodyRead)))
					q := tr.newQuery()
					root := tr.add("client.query", 0, q, t0, t1)
					tr.add("http.wait", root, q, rt.wrote, rt.firstByte)
					tr.add("http.transfer", root, q, rt.firstByte, rt.bodyRead)
					tr.add("http.decode", root, q, rt.bodyRead, t1)
				}
			}
			if elapsed := last.Sub(start).Seconds(); ok > 0 && elapsed > 0 {
				local.QPS = float64(ok) / elapsed
			}
			mu.Lock()
			defer mu.Unlock()
			res.merge(local)
		}(c, cl)
	}
	wg.Wait()
	return res
}

// merge folds one client's measurements into the round's (QPS adds:
// clients run side by side) or one round's samples into a pool (whose QPS
// is then meaningless; rounds keep their own).
func (r *roundResult) merge(o roundResult) {
	r.QPS += o.QPS
	r.LatMs = append(r.LatMs, o.LatMs...)
	r.QueueWaitMs = append(r.QueueWaitMs, o.QueueWaitMs...)
	r.RunMs = append(r.RunMs, o.RunMs...)
	r.WaitMs = append(r.WaitMs, o.WaitMs...)
	r.TransferMs = append(r.TransferMs, o.TransferMs...)
	r.DecodeMs = append(r.DecodeMs, o.DecodeMs...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.BitVerified += o.BitVerified
	r.CacheHits += o.CacheHits
	r.Exhausted = r.Exhausted || o.Exhausted
	for _, e := range o.Errors {
		if len(r.Errors) < maxReportedErrors {
			r.Errors = append(r.Errors, e)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
