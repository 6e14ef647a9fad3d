// Package algo defines the five iterative graph algorithms evaluated in the
// MEGA paper (Table 1): BFS, SSSP, SSWP, SSNP, and Viterbi. All five are
// selection-based single-source path problems expressible in the
// delta-accumulative incremental computation (DAIC) model: a vertex value is
// the best (min or max) over candidates produced by its in-edges, and a
// better candidate arriving over any edge can be applied independently of
// arrival order. This monotonicity is what makes asynchronous event-driven
// execution and addition-only incremental updates correct.
package algo

import (
	"fmt"
	"math"
)

// Kind enumerates the supported algorithms.
type Kind int

const (
	BFS Kind = iota
	SSSP
	SSWP
	SSNP
	Viterbi
	// CC (connected components by minimum-label propagation) is an
	// extension beyond the paper's Table 1, demonstrating §3.2's
	// generality claim: any monotone selection algorithm — including
	// self-seeding ones with no single source — runs unchanged on every
	// workflow.
	CC
)

// All lists the paper's five algorithms (Table 1) in presentation order.
// CC is intentionally excluded: the evaluation sweeps replicate the
// paper's algorithm set.
var All = []Kind{BFS, SSSP, SSWP, SSNP, Viterbi}

// String returns the paper's name for the algorithm.
func (k Kind) String() string {
	switch k {
	case BFS:
		return "BFS"
	case SSSP:
		return "SSSP"
	case SSWP:
		return "SSWP"
	case SSNP:
		return "SSNP"
	case Viterbi:
		return "Viterbi"
	case CC:
		return "CC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a (case-sensitive) algorithm name to its Kind.
func ParseKind(name string) (Kind, error) {
	for _, k := range append(append([]Kind{}, All...), CC) {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("algo: unknown algorithm %q", name)
}

// Algorithm captures the DAIC contract of one query:
//
//   - Identity is the value of an unreached vertex (the "worst" value).
//   - SourceValue is the fixed value of the query's source vertex.
//   - EdgeFunc maps the source-side value and the edge weight to the
//     candidate value delivered to the destination (Table 1's e(u,v)).
//   - Better reports whether candidate a strictly improves on b; the
//     accelerator's CAS_MIN/CAS_MAX reduction applies a when Better(a, b).
//
// Implementations are stateless and safe for concurrent use.
type Algorithm interface {
	Kind() Kind
	Identity() float64
	SourceValue() float64
	EdgeFunc(srcVal, weight float64) float64
	Better(a, b float64) bool
}

// SelfSeeding algorithms have no single source: every vertex starts from
// its own initial value (e.g. connected components start each vertex at
// its own label). Engines seed every vertex with VertexInit and ignore
// the query source.
type SelfSeeding interface {
	VertexInit(v uint32) float64
}

// New returns the Algorithm for k.
func New(k Kind) Algorithm {
	switch k {
	case BFS:
		return bfs{}
	case SSSP:
		return sssp{}
	case SSWP:
		return sswp{}
	case SSNP:
		return ssnp{}
	case Viterbi:
		return viterbi{}
	case CC:
		return cc{}
	default:
		panic(fmt.Sprintf("algo: invalid kind %d", int(k)))
	}
}

// Builtin reports whether a is one of this package's own concrete
// algorithm types, and if so which. The test is on the dynamic type, not
// on Kind(): a wrapper that embeds a built-in and overrides a method still
// reports the built-in's kind, and engines that specialise their loops for
// the built-ins must not take such a wrapper's ops for the original's.
func Builtin(a Algorithm) (Kind, bool) {
	switch a.(type) {
	case bfs, sssp, sswp, ssnp, viterbi, cc:
		return a.Kind(), true
	}
	return 0, false
}

// cc computes connected components by minimum-label propagation:
// Val(v) = min(v, min over in-edges of Val(u)). Monotone and
// addition-incremental like the Table 1 algorithms, but self-seeding.
// On directed graphs this yields the labels of the reachability-closure
// components (weakly connected components when edges are symmetric).
type cc struct{}

func (cc) Kind() Kind                      { return CC }
func (cc) Identity() float64               { return math.Inf(1) }
func (cc) SourceValue() float64            { return 0 } // unused: self-seeding
func (cc) EdgeFunc(src, _ float64) float64 { return src }
func (cc) Better(a, b float64) bool        { return a < b }
func (cc) VertexInit(v uint32) float64     { return float64(v) }

// bfs computes hop counts: Val(v) = min(Val(u) + 1). Weights are ignored.
type bfs struct{}

func (bfs) Kind() Kind                      { return BFS }
func (bfs) Identity() float64               { return math.Inf(1) }
func (bfs) SourceValue() float64            { return 0 }
func (bfs) EdgeFunc(src, _ float64) float64 { return src + 1 }
func (bfs) Better(a, b float64) bool        { return a < b }

// sssp computes shortest path lengths: Val(v) = min(Val(u) + wt).
// Weights must be non-negative.
type sssp struct{}

func (sssp) Kind() Kind                       { return SSSP }
func (sssp) Identity() float64                { return math.Inf(1) }
func (sssp) SourceValue() float64             { return 0 }
func (sssp) EdgeFunc(src, wt float64) float64 { return src + wt }
func (sssp) Better(a, b float64) bool         { return a < b }

// sswp computes widest paths (maximize the minimum edge weight on the
// path): Val(v) = max(min(Val(u), wt)). Weights must be positive.
type sswp struct{}

func (sswp) Kind() Kind                       { return SSWP }
func (sswp) Identity() float64                { return 0 }
func (sswp) SourceValue() float64             { return math.Inf(1) }
func (sswp) EdgeFunc(src, wt float64) float64 { return math.Min(src, wt) }
func (sswp) Better(a, b float64) bool         { return a > b }

// ssnp computes narrowest paths (minimize the maximum edge weight on the
// path): Val(v) = min(max(Val(u), wt)). Weights must be positive.
type ssnp struct{}

func (ssnp) Kind() Kind                       { return SSNP }
func (ssnp) Identity() float64                { return math.Inf(1) }
func (ssnp) SourceValue() float64             { return 0 }
func (ssnp) EdgeFunc(src, wt float64) float64 { return math.Max(src, wt) }
func (ssnp) Better(a, b float64) bool         { return a < b }

// viterbi computes most-probable paths in the paper's cost formulation:
// Val(v) = max(Val(u) / wt). With weights > 1 the source value 1 decays
// along each hop, mirroring a log-domain probability product.
type viterbi struct{}

func (viterbi) Kind() Kind                       { return Viterbi }
func (viterbi) Identity() float64                { return 0 }
func (viterbi) SourceValue() float64             { return 1 }
func (viterbi) EdgeFunc(src, wt float64) float64 { return src / wt }
func (viterbi) Better(a, b float64) bool         { return a > b }
