package main

import (
	"math/rand"
	"sync/atomic"

	"mega"
)

// keySource hands client c its next key; ok is false when none is left.
type keySource func(c int) (k key, ok bool)

// key is one query: an algorithm and a source vertex.
type key struct {
	Algo   mega.AlgorithmKind
	Source mega.VertexID
}

// algoCycle is the four monotone families the query mix cycles through.
// CC is excluded: it is source-independent, so "unique source" would be
// artificial.
var algoCycle = []mega.AlgorithmKind{mega.SSSP, mega.BFS, mega.SSWP, mega.Viterbi}

// hotSources × len(algoCycle) = 24 hot keys.
const hotSources = 6

// eligibleSources lists, ascending, the vertices with out-degree ≥ 1 in
// the initial snapshot — a source with no out-edge makes a trivial query.
func eligibleSources(numVertices int, initial mega.EdgeList) []mega.VertexID {
	has := make([]bool, numVertices)
	for _, e := range initial {
		has[e.Src] = true
	}
	var out []mega.VertexID
	for v, ok := range has {
		if ok {
			out = append(out, mega.VertexID(v))
		}
	}
	return out
}

// keySeq is the seeded query sequence: a permutation of the eligible
// sources crossed with algoCycle. Index i names source perm[i mod P] and
// shifts the algorithm by one each lap, so the first 4·P indexes are
// pairwise distinct keys.
type keySeq struct {
	perm []mega.VertexID
}

func newKeySeq(sources []mega.VertexID, seed int64) keySeq {
	perm := append([]mega.VertexID(nil), sources...)
	rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return keySeq{perm: perm}
}

// Len is how many distinct keys the sequence holds.
func (s keySeq) Len() int { return len(algoCycle) * len(s.perm) }

// At returns the i-th key, 0 ≤ i < Len().
func (s keySeq) At(i int) key {
	p := len(s.perm)
	j, lap := i%p, i/p
	return key{Algo: algoCycle[(j+lap)%len(algoCycle)], Source: s.perm[j]}
}

// Hot returns the hot set: the first hotSources sources under every
// algorithm of the cycle.
func (s keySeq) Hot() []key {
	n := hotSources
	if n > len(s.perm) {
		n = len(s.perm)
	}
	out := make([]key, 0, n*len(algoCycle))
	for _, src := range s.perm[:n] {
		for _, a := range algoCycle {
			out = append(out, key{Algo: a, Source: src})
		}
	}
	return out
}

// coldPlan hands one server its cold keys: the bit-verified reference
// keys first, then a block of the sequence no other round of the run
// touches, and warm-up keys taken from the sequence's tail. Within one
// plan no key repeats.
type coldPlan struct {
	seq        keySeq
	refs       int // keys [0, refs) have reference values
	round      int
	blockStart int
	blockLen   int
}

// warmupKeys is how many unrecorded queries precede a cold round.
const warmupKeys = 16

// newColdPlan carves round r of rounds out of seq.
func newColdPlan(seq keySeq, refs, r, rounds int) coldPlan {
	usable := seq.Len() - refs - warmupKeys*rounds
	if usable < 0 {
		usable = 0
	}
	block := usable / rounds
	return coldPlan{seq: seq, refs: refs, round: r, blockStart: refs + r*block, blockLen: block}
}

// Measured returns the i-th measured key of the round; ok is false once
// the round's share of the sequence is used up.
func (p coldPlan) Measured(i int) (key, bool) {
	if i < p.refs {
		return p.seq.At(i), true
	}
	if i -= p.refs; i >= p.blockLen {
		return key{}, false
	}
	return p.seq.At(p.blockStart + i), true
}

// Warmup returns the round's i-th warm-up key (0 ≤ i < warmupKeys), drawn
// from the tail so it never meets a measured key.
func (p coldPlan) Warmup(i int) key {
	return p.seq.At(p.seq.Len() - 1 - (p.round*warmupKeys + i))
}

// Source hands out the round's measured keys in order, one cursor shared
// by all clients.
func (p coldPlan) Source() keySource {
	var cursor atomic.Int64
	return func(int) (key, bool) { return p.Measured(int(cursor.Add(1) - 1)) }
}

// hotSource draws uniformly from hot, one seeded generator per client.
func hotSource(hot []key, seed int64, round, clients int) keySource {
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(round)*101 + int64(c)))
	}
	return func(c int) (key, bool) { return hot[rngs[c].Intn(len(hot))], true }
}

// listSource hands out keys once each, in order.
func listSource(keys []key) keySource {
	var cursor atomic.Int64
	return func(int) (key, bool) {
		i := int(cursor.Add(1) - 1)
		if i >= len(keys) {
			return key{}, false
		}
		return keys[i], true
	}
}
