package engine

import (
	"context"

	"mega/internal/algo"
	"mega/internal/fault"
	"mega/internal/graph"
)

const (
	// solveCadence is a "round" of the served static solve: every this many
	// pops it checks its context, its watchdog and the solve.round fault
	// site, the three things the instrumented solve does per round.
	solveCadence = 4096
	// heapArity is the frontier heap's fan-out: a sift-down's children
	// share one cache line of h, and the tree is half a binary heap's
	// depth under the decrease-keys that dominate.
	heapArity = 4
)

// frontier is the served static solve's queue: an indexed d-ary heap of
// vertices ordered by ops.better on their current value. A vertex is in it
// at most once — an improvement to a queued vertex moves it up in place —
// so it never holds more than V entries and never pops a stale one.
type frontier struct {
	o    ops
	vals []float64
	h    []graph.VertexID
	pos  []uint32 // pos[v] is 1 + v's index in h; 0 when v is not queued
}

// improved queues v, or restores the heap order around it, after vals[v]
// got better.
func (f *frontier) improved(v graph.VertexID) {
	i := int(f.pos[v]) - 1
	if i < 0 {
		i = len(f.h)
		f.h = append(f.h, v)
	}
	key := f.vals[v]
	for i > 0 {
		p := (i - 1) / heapArity
		pv := f.h[p]
		if !f.o.better(key, f.vals[pv]) {
			break
		}
		f.h[i], f.pos[pv] = pv, uint32(i+1)
		i = p
	}
	f.h[i], f.pos[v] = v, uint32(i+1)
}

// pop removes and returns the vertex with the best value.
func (f *frontier) pop() graph.VertexID {
	top := f.h[0]
	f.pos[top] = 0
	n := len(f.h) - 1
	v := f.h[n]
	f.h = f.h[:n]
	if n == 0 {
		return top
	}
	key, i := f.vals[v], 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best, bestKey := c, f.vals[f.h[c]]
		for j := c + 1; j < min(c+heapArity, n); j++ {
			if k := f.vals[f.h[j]]; f.o.better(k, bestKey) {
				best, bestKey = j, k
			}
		}
		if !f.o.better(bestKey, key) {
			break
		}
		f.h[i] = f.h[best]
		f.pos[f.h[i]] = uint32(i + 1)
		i = best
	}
	f.h[i], f.pos[v] = v, uint32(i+1)
	return top
}

// solveServed is the static solve with nothing listening and a built-in
// algorithm: best-first instead of round by round. It pops the vertex with
// the best value, relaxes its out-edges, writes an improving candidate
// straight into vals and queues (or moves up) its vertex. The built-ins'
// edge functions never improve on the value they extend (weights are
// non-negative), so a popped vertex is final and every reachable vertex is
// expanded exactly once — where the round-synchronous loop re-expands a
// vertex every round its value improves. The values are the same bits
// either way: both orders are fair iterations of one monotone operator
// from the same start, and its least fixed point is unique. An input that
// breaks the property (a negative weight) only costs the bound — an
// improved vertex that already left the heap re-enters it — and on a
// negative cycle the watchdog trips as it does for the instrumented loop.
//
// It returns how many vertices it popped and how many edges it scanned.
func solveServed(ctx context.Context, g *graph.CSR, a algo.Algorithm, o ops, src graph.VertexID, vals []float64, lim Limits) (pops, scans int64, err error) {
	n := len(vals)
	f := frontier{o: o, vals: vals, h: make([]graph.VertexID, 0, n), pos: make([]uint32, n)}
	if ss, ok := a.(algo.SelfSeeding); ok {
		for v := range vals {
			if x := ss.VertexInit(uint32(v)); o.better(x, vals[v]) {
				vals[v] = x
				f.improved(graph.VertexID(v))
			}
		}
	} else if x := a.SourceValue(); o.better(x, vals[src]) {
		vals[src] = x
		f.improved(src)
	}
	fp := fault.From(ctx)
	for len(f.h) > 0 {
		if pops%solveCadence == 0 {
			err := checkCtx(ctx, "solve round")
			// MaxRounds in pops: a round of the round model handles at most
			// one event per vertex, so pops/n rounds' worth are spent.
			if err == nil && (lim.roundsExceeded(int(pops/int64(n))) || lim.eventsExceeded(pops)) {
				err = divergenceError(lim, int(pops/solveCadence), pops, int64(len(f.h)), int64(f.h[0]))
			}
			if err == nil {
				err = fp.CheckCtx(ctx, fault.SiteSolveRound)
			}
			if err != nil {
				return pops, scans, err
			}
		}
		v := f.pop()
		pops++
		val := vals[v]
		dsts, ws := g.OutEdges(v)
		scans += int64(len(dsts))
		for i, d := range dsts {
			if c := o.edge(val, ws[i]); o.better(c, vals[d]) {
				vals[d] = c
				f.improved(d)
			}
		}
	}
	return pops, scans, nil
}
