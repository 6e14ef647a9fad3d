// Package evolve implements the CommonGraph formulation of evolving-graph
// processing (§2.1): for a window of N snapshots, the CommonGraph holds the
// edges present in every snapshot, and each hop's addition batch Δ+_j and
// deletion batch Δ−_j become *addition-only* batches applied on top of it:
//
//	Δ−_j is needed by snapshots 0..j   (the edge existed until hop j)
//	Δ+_j is needed by snapshots j+1..N-1 (the edge exists from hop j on)
//
// so any snapshot is reachable from the CommonGraph purely by additions,
// eliminating deletion processing. The package also exposes the
// triangular-grid intermediate CommonGraphs (Figure 1a) used by the
// Work-Sharing workflow, and builds the unified CSR (Figure 6) that MEGA
// uses as its storage format.
package evolve

import (
	"slices"
	"sync"

	"mega/internal/gen"
	"mega/internal/graph"
	"mega/internal/megaerr"
)

// Batch is one addition-only batch of the deletion-free formulation.
type Batch struct {
	// ID indexes the batch within Window.Batches().
	ID int
	// Hop is the j of Δ±_j.
	Hop int
	// FromDeletion marks batches that were deletion batches Δ−_j in the
	// raw history and were converted to additions toward earlier
	// snapshots.
	FromDeletion bool
	// Edges is the normalized batch content.
	Edges graph.EdgeList
	// Users is the set of snapshots whose edge set includes this batch.
	Users graph.SnapshotMask
}

// Window is a group of snapshots represented as CommonGraph + batches, with
// the unified CSR built over the union of edges.
type Window struct {
	numVertices int
	snapshots   int
	common      graph.EdgeList
	batches     []Batch
	unified     *graph.UnifiedCSR

	commonOnce sync.Once
	commonCSR  *graph.CSR

	tagsOnce sync.Once
	batchOf  []int32
	tagsErr  error
}

// NewWindow builds a Window from a generated evolution history.
func NewWindow(ev *gen.Evolution) (*Window, error) {
	return NewWindowFromParts(ev.NumVertices, ev.NumSnapshots(), ev.Initial, ev.Adds, ev.Dels)
}

// NewWindowFromParts builds a Window from raw history parts: the initial
// snapshot G_0 and per-hop addition/deletion batches (len snapshots-1
// each). The history must satisfy the CommonGraph disjointness invariant:
// every edge is touched by at most one batch within the window, deletions
// are edges of G_0, additions are disjoint from G_0.
func NewWindowFromParts(numVertices, snapshots int, initial graph.EdgeList, adds, dels []graph.EdgeList) (*Window, error) {
	if numVertices < 1 {
		return nil, megaerr.Invalidf("evolve: vertex count %d < 1", numVertices)
	}
	if snapshots < 1 {
		return nil, megaerr.Invalidf("evolve: snapshot count %d < 1", snapshots)
	}
	if snapshots > 64 {
		return nil, megaerr.Invalidf("evolve: snapshot count %d exceeds the 64-snapshot unified-representation limit", snapshots)
	}
	hops := snapshots - 1
	if len(adds) != hops || len(dels) != hops {
		return nil, megaerr.Invalidf("evolve: %d snapshots need %d add and del batches, got %d and %d", snapshots, hops, len(adds), len(dels))
	}

	common := initial.Clone().Normalize()
	for j := range dels {
		common = common.Minus(dels[j])
	}

	full := graph.MaskAll(snapshots)
	var batches []Batch
	for j := 0; j < hops; j++ {
		// Δ−_j: present in snapshots 0..j.
		if len(dels[j]) > 0 {
			batches = append(batches, Batch{
				ID: len(batches), Hop: j, FromDeletion: true,
				Edges: dels[j].Clone().Normalize(),
				Users: graph.MaskAll(j + 1),
			})
		}
		// Δ+_j: present in snapshots j+1..N-1.
		if len(adds[j]) > 0 {
			batches = append(batches, Batch{
				ID: len(batches), Hop: j, FromDeletion: false,
				Edges: adds[j].Clone().Normalize(),
				Users: full &^ graph.MaskAll(j+1),
			})
		}
	}

	lists := make([]graph.EdgeList, len(batches))
	users := make([]graph.SnapshotMask, len(batches))
	for i, b := range batches {
		lists[i] = b.Edges
		users[i] = b.Users
	}
	unified, err := graph.BuildUnified(numVertices, snapshots, common, lists, users)
	if err != nil {
		return nil, megaerr.Invalidf("evolve: building unified representation: %v", err)
	}
	return &Window{
		numVertices: numVertices,
		snapshots:   snapshots,
		common:      common,
		batches:     batches,
		unified:     unified,
	}, nil
}

// NumVertices returns the vertex count.
func (w *Window) NumVertices() int { return w.numVertices }

// NumSnapshots returns the window size N.
func (w *Window) NumSnapshots() int { return w.snapshots }

// Common returns the CommonGraph edge list (do not modify).
func (w *Window) Common() graph.EdgeList { return w.common }

// CommonCSR materializes the CommonGraph as a CSR. The CSR is built once
// and cached — the Window is immutable, and every engine run starts from
// the CommonGraph, so rebuilding it per run was pure overhead.
func (w *Window) CommonCSR() *graph.CSR {
	w.commonOnce.Do(func() {
		w.commonCSR = graph.MustCSR(w.numVertices, w.common)
	})
	return w.commonCSR
}

// BatchOf maps each union edge index of the unified CSR to the ID of the
// addition batch carrying that edge, or -1 for CommonGraph edges — the
// version tags of Figure 6. Like the CommonGraph CSR, the map depends only
// on the window, so it is built once (the error, if any, is memoized with
// it) and shared read-only by every engine and simulator run. It fails if
// a non-common edge belongs to more than one batch, which CommonGraph
// histories never produce.
func (w *Window) BatchOf() ([]int32, error) {
	w.tagsOnce.Do(func() { w.batchOf, w.tagsErr = w.buildBatchOf() })
	return w.batchOf, w.tagsErr
}

func (w *Window) buildBatchOf() ([]int32, error) {
	union := w.unified.Union()
	batchOf := make([]int32, union.NumEdges())
	for i := range batchOf {
		batchOf[i] = -1
	}
	// The union CSR keeps each vertex's destinations sorted, so a binary
	// search resolves a batch edge in O(log deg); a linear scan is
	// O(B·deg) on batches landing on the hubs of skewed graphs.
	for bi := range w.batches {
		b := &w.batches[bi]
		for _, e := range b.Edges {
			lo, _ := union.EdgeRange(e.Src)
			dsts, _ := union.OutEdges(e.Src)
			i, found := slices.BinarySearch(dsts, e.Dst)
			if !found {
				return nil, megaerr.Invalidf("evolve: batch %d edge %d->%d missing from union graph", b.ID, e.Src, e.Dst)
			}
			idx := int(lo) + i
			if batchOf[idx] != -1 {
				return nil, megaerr.Invalidf("evolve: edge %d->%d belongs to batches %d and %d", e.Src, e.Dst, batchOf[idx], b.ID)
			}
			batchOf[idx] = int32(b.ID)
		}
	}
	return batchOf, nil
}

// Batches returns all addition-only batches (do not modify).
func (w *Window) Batches() []Batch { return w.batches }

// Batch returns the batch for hop j of the given kind, or false when the
// hop's batch was empty.
func (w *Window) Batch(hop int, fromDeletion bool) (Batch, bool) {
	for _, b := range w.batches {
		if b.Hop == hop && b.FromDeletion == fromDeletion {
			return b, true
		}
	}
	return Batch{}, false
}

// Unified returns the unified evolving-graph CSR.
func (w *Window) Unified() *graph.UnifiedCSR { return w.unified }

// SnapshotEdges materializes snapshot s from the unified representation.
func (w *Window) SnapshotEdges(s int) graph.EdgeList {
	return w.unified.SnapshotEdges(s)
}

// SnapshotCSR materializes snapshot s as a CSR (for baselines/validation).
func (w *Window) SnapshotCSR(s int) *graph.CSR {
	return graph.MustCSR(w.numVertices, w.SnapshotEdges(s))
}

// VersionTable returns, for each snapshot, the IDs of the addition-only
// batches composing it — the contents of MEGA's hardware version table
// (§4.3), the look-up table "containing information about the composition
// of different snapshots".
func (w *Window) VersionTable() [][]int {
	table := make([][]int, w.snapshots)
	for _, b := range w.batches {
		for s := 0; s < w.snapshots; s++ {
			if b.Users.Has(s) {
				table[s] = append(table[s], b.ID)
			}
		}
	}
	return table
}

// ICGEdges returns the intermediate CommonGraph of the snapshot range
// [lo, hi] from the triangular grid (Figure 1a): the edges shared by every
// snapshot in the range,
//
//	ICG(lo,hi) = Common ∪ {Δ+_j : j < lo} ∪ {Δ−_j : j ≥ hi}.
//
// ICG(0, N-1) is the CommonGraph itself and ICG(s, s) is snapshot s.
func (w *Window) ICGEdges(lo, hi int) graph.EdgeList {
	out := w.common.Clone()
	for _, b := range w.batches {
		if (!b.FromDeletion && b.Hop < lo) || (b.FromDeletion && b.Hop >= hi) {
			out = out.Union(b.Edges)
		}
	}
	return out
}

// ICGDelta returns the batches that take ICG(lo,hi) to ICG(lo2,hi2) where
// [lo2,hi2] ⊆ [lo,hi]: the Δ+ batches with lo ≤ j < lo2 and the Δ− batches
// with hi2 ≤ j < hi.
func (w *Window) ICGDelta(lo, hi, lo2, hi2 int) []Batch {
	var out []Batch
	for _, b := range w.batches {
		if !b.FromDeletion && b.Hop >= lo && b.Hop < lo2 {
			out = append(out, b)
		}
		if b.FromDeletion && b.Hop >= hi2 && b.Hop < hi {
			out = append(out, b)
		}
	}
	return out
}
