package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"mega/internal/evolve"
	"mega/internal/sched"
)

// Fingerprint identifies a window's BOE execution content: the FNV-1a
// schedule hash the checkpoint layer already uses to validate resumes,
// a digest of the CommonGraph's full edge content, and the per-batch
// edge-content digests. Two windows with equal fingerprints execute the
// same op sequence over the same edges, so any deterministic evaluation
// over one is Float64bits-identical over the other — the soundness basis
// of the cross-query result cache (DESIGN.md §14).
type Fingerprint struct {
	// Schedule is hashSchedule over the window's BOE schedule.
	Schedule uint64
	// Common digests the CommonGraph: vertex count plus every common
	// edge's endpoints and weight bits.
	Common uint64
	// Batches holds one (hop ID << 32 | edge digest) word per addition
	// batch, in schedule order — the same per-batch digests checkpoints
	// embed, widened with the hop ID.
	Batches []uint64
}

// FingerprintBOE computes the window's BOE fingerprint. It iterates every
// edge of the window, so callers should memoize per window (windows are
// immutable after construction).
func FingerprintBOE(w *evolve.Window) (Fingerprint, error) {
	s, err := sched.New(sched.BOE, w)
	if err != nil {
		return Fingerprint{}, err
	}
	fp := Fingerprint{Schedule: hashSchedule(s)}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(w.NumVertices()))
	put(uint64(len(w.Common())))
	for _, e := range w.Common() {
		put(e.Key())
		put(math.Float64bits(e.Weight))
	}
	fp.Common = h.Sum64()
	batches := fingerprintWindow(w)
	fp.Batches = make([]uint64, len(batches))
	for i, b := range batches {
		fp.Batches[i] = uint64(b.id)<<32 | uint64(b.edges)
	}
	return fp, nil
}

// Key folds the fingerprint into one uint64 for map keying. Collisions
// are not correctness-relevant as long as callers also compare the full
// fingerprint with Equal before trusting a match.
func (f Fingerprint) Key() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(f.Schedule)
	put(f.Common)
	put(uint64(len(f.Batches)))
	for _, b := range f.Batches {
		put(b)
	}
	return h.Sum64()
}

// Equal reports whether two fingerprints describe identical windows.
func (f Fingerprint) Equal(o Fingerprint) bool {
	if f.Schedule != o.Schedule || f.Common != o.Common || len(f.Batches) != len(o.Batches) {
		return false
	}
	for i := range f.Batches {
		if f.Batches[i] != o.Batches[i] {
			return false
		}
	}
	return true
}
