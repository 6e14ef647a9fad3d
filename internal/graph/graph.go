// Package graph provides the graph representations used throughout MEGA:
// plain immutable CSR graphs with optional in-edge indexes, edge lists with
// set algebra (union, difference, intersection), the unified evolving-graph
// CSR of the paper's Figure 6, and vertex range partitioning.
//
// All graphs are directed and weighted. Vertices are dense integer IDs in
// [0, NumVertices). A (src, dst) pair identifies an edge; parallel edges are
// not supported (the evolving-graph set algebra requires set semantics).
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. IDs are dense: every ID in [0, NumVertices)
// is a valid vertex, even if it has no edges.
type VertexID uint32

// Edge is a directed weighted edge. Weight is ignored by algorithms that do
// not use weights (e.g. BFS).
type Edge struct {
	Src, Dst VertexID
	Weight   float64
}

// Key returns the canonical 64-bit identity of the edge's endpoints.
// Weights do not participate in edge identity.
func (e Edge) Key() uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }

// KeyOf returns the canonical edge key for a (src, dst) pair.
func KeyOf(src, dst VertexID) uint64 { return uint64(src)<<32 | uint64(dst) }

// CSR is an immutable compressed-sparse-row graph. It always carries the
// out-edge index; the in-edge index is built on demand (it is required only
// by the deletion-recompute path of the streaming baseline).
type CSR struct {
	numVertices int

	// Out-edge index.
	offsets []uint32 // len numVertices+1
	dsts    []VertexID
	weights []float64

	// In-edge index (lazily built by EnsureInEdges).
	inOffsets []uint32
	inSrcs    []VertexID
	inWeights []float64
}

// NewCSR builds a CSR over numVertices vertices from the given edges.
// Edges are deduplicated by (src, dst); when duplicates occur the last
// weight wins. Edges referencing vertices outside [0, numVertices) cause
// an error.
func NewCSR(numVertices int, edges []Edge) (*CSR, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	// Deduplicate, keeping the last occurrence's weight.
	deduped := sorted[:0]
	for _, e := range sorted {
		if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
			return nil, fmt.Errorf("graph: edge %d->%d outside vertex range [0,%d)", e.Src, e.Dst, numVertices)
		}
		if n := len(deduped); n > 0 && deduped[n-1].Src == e.Src && deduped[n-1].Dst == e.Dst {
			deduped[n-1].Weight = e.Weight
			continue
		}
		deduped = append(deduped, e)
	}

	g := &CSR{
		numVertices: numVertices,
		offsets:     make([]uint32, numVertices+1),
		dsts:        make([]VertexID, len(deduped)),
		weights:     make([]float64, len(deduped)),
	}
	for i, e := range deduped {
		g.offsets[e.Src+1]++
		g.dsts[i] = e.Dst
		g.weights[i] = e.Weight
	}
	for v := 1; v <= numVertices; v++ {
		g.offsets[v] += g.offsets[v-1]
	}
	return g, nil
}

// MustCSR is NewCSR that panics on error, for tests and fixed literals.
func MustCSR(numVertices int, edges []Edge) *CSR {
	g, err := NewCSR(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int { return g.numVertices }

// NumEdges returns the number of (deduplicated) edges.
func (g *CSR) NumEdges() int { return len(g.dsts) }

// OutDegree returns the out-degree of v.
func (g *CSR) OutDegree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// OutEdges returns the destination and weight slices for v's out-edges.
// The returned slices alias the graph's storage and must not be modified.
func (g *CSR) OutEdges(v VertexID) (dsts []VertexID, weights []float64) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.dsts[lo:hi], g.weights[lo:hi]
}

// EdgeRange returns the half-open range of edge indexes for v's out-edges.
// Edge indexes are stable identities used by the reuse instrumentation.
func (g *CSR) EdgeRange(v VertexID) (lo, hi uint32) {
	return g.offsets[v], g.offsets[v+1]
}

// HasEdge reports whether the edge (src, dst) exists, using binary search.
func (g *CSR) HasEdge(src, dst VertexID) bool {
	dsts, _ := g.OutEdges(src)
	i := sort.Search(len(dsts), func(i int) bool { return dsts[i] >= dst })
	return i < len(dsts) && dsts[i] == dst
}

// Weight returns the weight of edge (src, dst) and whether it exists.
func (g *CSR) Weight(src, dst VertexID) (float64, bool) {
	dsts, ws := g.OutEdges(src)
	i := sort.Search(len(dsts), func(i int) bool { return dsts[i] >= dst })
	if i < len(dsts) && dsts[i] == dst {
		return ws[i], true
	}
	return 0, false
}

// Edges returns a fresh slice of all edges in src-major order.
func (g *CSR) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.numVertices; v++ {
		dsts, ws := g.OutEdges(VertexID(v))
		for i, d := range dsts {
			out = append(out, Edge{Src: VertexID(v), Dst: d, Weight: ws[i]})
		}
	}
	return out
}

// EnsureInEdges builds the in-edge index if it has not been built yet.
// The streaming baseline's deletion recompute pulls over in-edges; the
// MEGA (addition-only) paths never call this.
func (g *CSR) EnsureInEdges() {
	if g.inOffsets != nil {
		return
	}
	g.inOffsets = make([]uint32, g.numVertices+1)
	g.inSrcs = make([]VertexID, len(g.dsts))
	g.inWeights = make([]float64, len(g.dsts))
	for _, d := range g.dsts {
		g.inOffsets[d+1]++
	}
	for v := 1; v <= g.numVertices; v++ {
		g.inOffsets[v] += g.inOffsets[v-1]
	}
	cursor := make([]uint32, g.numVertices)
	copy(cursor, g.inOffsets[:g.numVertices])
	for v := 0; v < g.numVertices; v++ {
		dsts, ws := g.OutEdges(VertexID(v))
		for i, d := range dsts {
			at := cursor[d]
			g.inSrcs[at] = VertexID(v)
			g.inWeights[at] = ws[i]
			cursor[d]++
		}
	}
}

// InEdges returns the source and weight slices for v's in-edges.
// EnsureInEdges must have been called first.
func (g *CSR) InEdges(v VertexID) (srcs []VertexID, weights []float64) {
	if g.inOffsets == nil {
		panic("graph: InEdges called before EnsureInEdges")
	}
	lo, hi := g.inOffsets[v], g.inOffsets[v+1]
	return g.inSrcs[lo:hi], g.inWeights[lo:hi]
}

// InDegree returns the in-degree of v. EnsureInEdges must have been called.
func (g *CSR) InDegree(v VertexID) int {
	if g.inOffsets == nil {
		panic("graph: InDegree called before EnsureInEdges")
	}
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}
