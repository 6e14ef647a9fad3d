package engine

import "mega/internal/algo"

// ops is one of algo's built-in algorithms resolved to a value. The served
// loops relax an edge with one edge and one better call; through the
// algo.Algorithm interface those are two dynamic calls per relaxation,
// while these two methods inline (ci.sh checks that they still do). The
// choice between ops and the interface is made once per run, outside the
// loops: a fallback call inside either method would put it over the
// inliner's budget. Generic loops over a type parameter were measured and
// rejected — Go calls a type parameter's methods through a dictionary and
// does not inline them.
type ops struct {
	kind algo.Kind
	max  bool // Better is a > b (SSWP, Viterbi); a < b otherwise
}

// servedOps decides which loops a run of a under probe takes: the served
// ones, with a resolved to ops, when nobody prices the run (NopProbe) and a
// is one of algo's own concrete types; the instrumented ones otherwise. A
// wrapper around a built-in is not a built-in: it may override either
// method.
func servedOps(a algo.Algorithm, probe Probe) (ops, bool) {
	k, builtin := algo.Builtin(a)
	if _, unpriced := probe.(NopProbe); !unpriced || !builtin {
		return ops{}, false
	}
	return ops{kind: k, max: a.Better(1, 0)}, true
}

// better is the built-in's Better.
func (o ops) better(a, b float64) bool {
	if o.max {
		return a > b
	}
	return a < b
}

// edge is the built-in's EdgeFunc. The min and max builtins agree with
// math.Min and math.Max on every input (NaN, signed zeros, infinities).
func (o ops) edge(src, w float64) float64 {
	switch o.kind {
	case algo.BFS:
		return src + 1
	case algo.SSSP:
		return src + w
	case algo.SSWP:
		return min(src, w)
	case algo.SSNP:
		return max(src, w)
	case algo.Viterbi:
		return src / w
	}
	return src // CC
}
