package engine

import (
	"math/bits"

	"mega/internal/algo"
	"mega/internal/graph"
)

// batchSet is a bitset over batch IDs, tracking which addition batches a
// context has applied.
type batchSet []uint64

func (b batchSet) add(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b batchSet) has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

// ctxQueue is the coalescing event queue of the multi-context engine. For
// each (vertex, context) it keeps at most one pending candidate — the best
// seen — mirroring the accelerator's coalescing event bins. A vertex with
// anything pending owns one row: its candidates, their batch tags and its
// context mask, each contiguous, so taking every snapshot's event for a
// vertex together (which is how MEGA shares edge fetches across
// concurrently executing snapshots) reads a cache line or two per array,
// not one per context. Rows are handed out in first-push order — row r
// belongs to touched[r] — and given back all at once when the round has
// been processed, so the queue is as large as the busiest round, not as
// the graph: only slot is per vertex. The three row arrays always span
// cap(touched) rows, and every mask word outside a live row is zero.
type ctxQueue struct {
	nc      int              // contexts per row
	words   int              // mask words per row, (nc+63)/64
	slot    []uint32         // [v] 1 + v's row, 0 while v has nothing pending
	touched []graph.VertexID // [r] the vertex row r belongs to
	mask    []uint64         // [r*words+c/64] bit c%64: a candidate is pending
	pending []float64        // [r*nc+c] candidate value, meaningful under its mask bit
	tag     []int32          // [r*nc+c] batch tag of the candidate
	count   int              // live coalesced events
}

// newCtxQueue builds an empty queue with room for rows rows; it grows past
// that on demand.
func newCtxQueue(numCtx, numVertices, rows int) *ctxQueue {
	q := &ctxQueue{nc: numCtx, words: (numCtx + 63) / 64, slot: make([]uint32, numVertices)}
	q.grow(rows)
	return q
}

// grow extends the row arrays to rows rows.
func (q *ctxQueue) grow(rows int) {
	more := rows - cap(q.touched)
	q.touched = append(make([]graph.VertexID, 0, rows), q.touched...)
	q.mask = append(q.mask, make([]uint64, more*q.words)...)
	q.pending = append(q.pending, make([]float64, more*q.nc)...)
	q.tag = append(q.tag, make([]int32, more*q.nc)...)
}

// claim marks (ctx, v) pending, opening a row for v if it has none. It
// returns the candidate's index in pending and tag, and whether the slot
// was free: the caller stores there when it was and coalesces when not.
func (q *ctxQueue) claim(ctx int, v graph.VertexID) (int, bool) {
	r := int(q.slot[v]) - 1
	if r < 0 {
		r = q.open(v)
	}
	w, bit := r*q.words+ctx>>6, uint64(1)<<(uint(ctx)&63)
	fresh := q.mask[w]&bit == 0
	if fresh {
		q.mask[w] |= bit
		q.count++
	}
	return r*q.nc + ctx, fresh
}

// open gives v the next row, doubling the row arrays when all are taken.
func (q *ctxQueue) open(v graph.VertexID) int {
	r := len(q.touched)
	if r == cap(q.touched) {
		q.grow(max(2*r, 64))
	}
	q.touched = append(q.touched, v)
	q.slot[v] = uint32(r + 1)
	return r
}

// push coalesces a candidate for (ctx, v), keeping the better value and
// its batch tag (events from different batches targeting one vertex may
// safely coalesce, §4.2). It returns true when the event occupies a new
// queue slot (false when it merged into an existing one).
func (q *ctxQueue) push(a algo.Algorithm, ctx int, v graph.VertexID, val float64, batch int32) bool {
	i, fresh := q.claim(ctx, v)
	if fresh || a.Better(val, q.pending[i]) {
		q.pending[i], q.tag[i] = val, batch
	}
	return fresh
}

// pushBuiltin is push with a built-in algorithm's inlined comparison.
func (q *ctxQueue) pushBuiltin(o ops, ctx int, v graph.VertexID, val float64, batch int32) bool {
	i, fresh := q.claim(ctx, v)
	if fresh || o.better(val, q.pending[i]) {
		q.pending[i], q.tag[i] = val, batch
	}
	return fresh
}

// take removes and returns row r's pending candidate and batch tag for ctx.
func (q *ctxQueue) take(ctx, r int) (float64, int32, bool) {
	w, bit := r*q.words+ctx>>6, uint64(1)<<(uint(ctx)&63)
	if q.mask[w]&bit == 0 {
		return 0, 0, false
	}
	q.mask[w] &^= bit
	q.count--
	return q.pending[r*q.nc+ctx], q.tag[r*q.nc+ctx], true
}

// reset gives every row back once the round's events have been taken.
// Anything a loop left pending goes with them: only a restored checkpoint
// naming a context its stage does not compute can leave any, and such an
// event was pushed and never taken, which the conservation audit reports.
func (q *ctxQueue) reset() {
	for _, v := range q.touched {
		q.slot[v] = 0
	}
	clear(q.mask[:len(q.touched)*q.words])
	q.touched = q.touched[:0]
	q.count = 0
}

// dump lists the coalesced pending entries in touched order (ties within
// a vertex by ascending context).
func (q *ctxQueue) dump() []ckptEntry {
	out := make([]ckptEntry, 0, q.count)
	for r, v := range q.touched {
		for w := 0; w < q.words; w++ {
			for m := q.mask[r*q.words+w]; m != 0; m &= m - 1 {
				c := w<<6 + bits.TrailingZeros64(m)
				out = append(out, ckptEntry{ctx: int32(c), v: v, val: q.pending[r*q.nc+c], tag: q.tag[r*q.nc+c]})
			}
		}
	}
	return out
}
