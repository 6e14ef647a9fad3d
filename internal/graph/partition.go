package graph

import "fmt"

// Partitioning splits the vertex ID space into contiguous, near-uniform
// ranges. MEGA partitions at vertex granularity so that each event-queue
// bin holds the events of one partition's vertices (§3.2, Figure 9).
type Partitioning struct {
	numVertices int
	bounds      []VertexID // len parts+1; part p covers [bounds[p], bounds[p+1])
}

// NewPartitioning creates parts contiguous vertex ranges over numVertices
// vertices. parts must be in [1, numVertices] unless numVertices is 0.
func NewPartitioning(numVertices, parts int) (*Partitioning, error) {
	if parts < 1 {
		return nil, fmt.Errorf("graph: partition count %d < 1", parts)
	}
	if numVertices > 0 && parts > numVertices {
		return nil, fmt.Errorf("graph: %d partitions for %d vertices", parts, numVertices)
	}
	p := &Partitioning{
		numVertices: numVertices,
		bounds:      make([]VertexID, parts+1),
	}
	for i := 0; i <= parts; i++ {
		p.bounds[i] = VertexID(int64(numVertices) * int64(i) / int64(parts))
	}
	return p, nil
}

// Parts returns the number of partitions.
func (p *Partitioning) Parts() int { return len(p.bounds) - 1 }

// PartOf returns the partition that owns vertex v.
func (p *Partitioning) PartOf(v VertexID) int {
	// Ranges are near-uniform, so direct computation followed by a local
	// correction beats binary search.
	parts := p.Parts()
	if p.numVertices == 0 {
		return 0
	}
	guess := int(int64(v) * int64(parts) / int64(p.numVertices))
	if guess >= parts {
		guess = parts - 1
	}
	for guess > 0 && v < p.bounds[guess] {
		guess--
	}
	for guess < parts-1 && v >= p.bounds[guess+1] {
		guess++
	}
	return guess
}

// Range returns the half-open vertex range [lo, hi) of partition part.
func (p *Partitioning) Range(part int) (lo, hi VertexID) {
	return p.bounds[part], p.bounds[part+1]
}

// Size returns the number of vertices in partition part.
func (p *Partitioning) Size(part int) int {
	return int(p.bounds[part+1] - p.bounds[part])
}
