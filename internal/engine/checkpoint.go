package engine

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"

	"mega/internal/evolve"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/sched"
)

// Checkpoint format (version 1, little-endian, CRC32-IEEE trailer):
//
//	magic      "MEGACKP\x01"                      8 bytes
//	version    u32 = 1
//	algoKind   u32
//	source     u32
//	numVerts   u32
//	numCtx     u32
//	numBatches u32
//	schedHash  u64   FNV-1a over the schedule's structure
//	batches    numBatches × (u32 id, u32 edges)   window fingerprint
//	stageStart u32   index of the first incomplete schedule op
//	inRounds   u8    1 = mid-stage, at a round boundary of stageStart's stage
//	round      u32   next round to process (when inRounds)
//	events     u64   events processed so far (watchdog continuity)
//	baseVals   u8 present; numVerts × f64 when present
//	contexts   numCtx × { u8 present; numVerts × f64 vals,
//	                      ⌈numBatches/64⌉ × u64 applied bits when present }
//	queue      u32 n; n × (u32 ctx, u32 vertex, f64 val, u32 batchTag)
//	dirty      u32 n; n × u32 vertex
//	crc        u32   CRC32-IEEE over every preceding byte
//
// The consistency point is "the coalesced pending set for round `round`,
// about to be processed", which the engine reaches at the top of its round
// loop (seeds are processed as round 0). Within-round processing order
// cannot affect values (candidate coalescing keeps the best under the
// algorithm's strict Better order, and each vertex is taken once per
// round), so a checkpoint written by either of the engine's loops restores
// into the other. Queue batch tags only feed the instrumented loop's
// fetch-sharing probe accounting.

// ckptMagic identifies checkpoint bytes; the trailing byte doubles as a
// format-break guard (a v2 with incompatible layout would bump it too).
const ckptMagic = "MEGACKP\x01"

// ckptVersion is the current encoding version.
const ckptVersion = 1

// ckptEntry is one coalesced pending event in a checkpointed queue.
type ckptEntry struct {
	ctx int32
	v   graph.VertexID
	val float64
	tag int32
}

// ckptBatch fingerprints one addition batch of the window: its hop ID
// plus an FNV-1a digest of the batch's full edge content (endpoints and
// weight bits), so a checkpoint refuses to restore into a window whose
// graph differs even when batch counts and sizes coincide.
type ckptBatch struct {
	id    uint32
	edges uint32
}

// checkpointState is the decoded (or to-be-encoded) run state.
type checkpointState struct {
	algoKind   uint32
	source     uint32
	numVerts   uint32
	numCtx     uint32
	batches    []ckptBatch
	schedHash  uint64
	stageStart uint32
	inRounds   bool
	round      uint32
	events     int64
	baseVals   []float64   // nil when the base solve had not run
	vals       [][]float64 // per context; nil for uninitialized contexts
	applied    []batchSet
	queue      []ckptEntry
	dirty      []graph.VertexID
}

// fingerprintWindow captures the window's batch structure for restore
// validation. Hashing iterates every batch edge, so engines compute this
// once at first use and cache it rather than re-deriving per checkpoint.
func fingerprintWindow(w *evolve.Window) []ckptBatch {
	bs := w.Batches()
	out := make([]ckptBatch, len(bs))
	var buf [8]byte
	for i := range bs {
		h := fnv.New32a()
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(bs[i].Edges)))
		h.Write(buf[:4])
		for _, e := range bs[i].Edges {
			binary.LittleEndian.PutUint64(buf[:], e.Key())
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Weight))
			h.Write(buf[:])
		}
		out[i] = ckptBatch{id: uint32(bs[i].ID), edges: h.Sum32()}
	}
	return out
}

// hashSchedule folds the schedule's full structure (mode, contexts,
// snapshot mapping, and every op's kind/contexts/batch/stage/targets)
// into an FNV-1a digest. Two schedules with the same hash execute the
// same op sequence, so a checkpoint cursor into one is valid in the other.
func hashSchedule(s *sched.Schedule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.Mode))
	put(uint64(s.NumContexts))
	put(uint64(len(s.SnapshotCtx)))
	for _, c := range s.SnapshotCtx {
		put(uint64(c))
	}
	put(uint64(len(s.Ops)))
	for i := range s.Ops {
		op := &s.Ops[i]
		put(uint64(op.Kind))
		put(uint64(op.Ctx))
		put(uint64(op.From))
		batchID := -1
		if op.Batch != nil {
			batchID = op.Batch.ID
		}
		put(uint64(int64(batchID)))
		put(uint64(op.Stage))
		shared := uint64(0)
		if op.SharedCompute {
			shared = 1
		}
		put(shared)
		put(uint64(len(op.Targets)))
		for _, t := range op.Targets {
			put(uint64(t))
		}
	}
	return h.Sum64()
}

// matchEngine validates the checkpoint against an engine's static
// identity: algorithm, source, and the window fingerprint. Mismatches are
// megaerr.ErrCheckpoint — restoring PageRank state into a BFS engine is a
// corrupt restore, not an invalid argument.
func (st *checkpointState) matchEngine(algoKind, source uint32, w *evolve.Window, fp []ckptBatch) error {
	if st.algoKind != algoKind {
		return megaerr.Checkpointf("checkpoint for algorithm kind %d, engine runs kind %d", st.algoKind, algoKind)
	}
	if st.source != source {
		return megaerr.Checkpointf("checkpoint for source %d, engine queries source %d", st.source, source)
	}
	if int(st.numVerts) != w.NumVertices() {
		return megaerr.Checkpointf("checkpoint for %d vertices, window has %d", st.numVerts, w.NumVertices())
	}
	if len(st.batches) != len(fp) {
		return megaerr.Checkpointf("checkpoint for %d batches, window has %d", len(st.batches), len(fp))
	}
	for i := range fp {
		if st.batches[i] != fp[i] {
			return megaerr.Checkpointf("batch %d fingerprint mismatch: checkpoint (hop %d, digest %#x), window (hop %d, digest %#x)",
				i, st.batches[i].id, st.batches[i].edges, fp[i].id, fp[i].edges)
		}
	}
	return nil
}

// matchSchedule validates the checkpoint's cursor against the schedule a
// resumed run is about to execute.
func (st *checkpointState) matchSchedule(s *sched.Schedule) error {
	if int(st.numCtx) != s.NumContexts {
		return megaerr.Checkpointf("checkpoint for %d contexts, schedule has %d", st.numCtx, s.NumContexts)
	}
	if h := hashSchedule(s); st.schedHash != h {
		return megaerr.Checkpointf("schedule hash mismatch: checkpoint %#x, run %#x", st.schedHash, h)
	}
	if int(st.stageStart) > len(s.Ops) {
		return megaerr.Checkpointf("cursor op %d outside schedule of %d ops", st.stageStart, len(s.Ops))
	}
	if st.inRounds && int(st.stageStart) == len(s.Ops) {
		return megaerr.Checkpointf("cursor mid-rounds but past the last op")
	}
	return nil
}

// encode serializes the state in the version-1 format, checksum included.
func (st *checkpointState) encode() []byte {
	size := len(ckptMagic) + 4 + // header
		4 + 4 + 4 + 4 + 4 + 8 + // identity
		len(st.batches)*8 + // fingerprint
		4 + 1 + 4 + 8 + // cursor
		1 + len(st.baseVals)*8 // base
	words := (len(st.batches) + 63) / 64
	for _, v := range st.vals {
		size++
		if v != nil {
			size += len(v)*8 + words*8
		}
	}
	size += 4 + len(st.queue)*20 + 4 + len(st.dirty)*4 + 4

	buf := make([]byte, 0, size)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint32(buf, st.algoKind)
	buf = binary.LittleEndian.AppendUint32(buf, st.source)
	buf = binary.LittleEndian.AppendUint32(buf, st.numVerts)
	buf = binary.LittleEndian.AppendUint32(buf, st.numCtx)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.batches)))
	buf = binary.LittleEndian.AppendUint64(buf, st.schedHash)
	for _, b := range st.batches {
		buf = binary.LittleEndian.AppendUint32(buf, b.id)
		buf = binary.LittleEndian.AppendUint32(buf, b.edges)
	}
	buf = binary.LittleEndian.AppendUint32(buf, st.stageStart)
	if st.inRounds {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, st.round)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.events))
	if st.baseVals != nil {
		buf = append(buf, 1)
		for _, v := range st.baseVals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	} else {
		buf = append(buf, 0)
	}
	for c, vals := range st.vals {
		if vals == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		bits := st.applied[c]
		for w := 0; w < words; w++ {
			var word uint64
			if w < len(bits) {
				word = bits[w]
			}
			buf = binary.LittleEndian.AppendUint64(buf, word)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.queue)))
	for _, e := range st.queue {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ctx))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.v))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.val))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.tag))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.dirty)))
	for _, v := range st.dirty {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// ckptReader is a bounds-checked cursor over checkpoint bytes. Every read
// verifies length first, so truncated or hostile inputs surface as typed
// errors — never a slice panic — and no allocation exceeds what the input
// has bytes to back (DecodeCheckpoint is a fuzz target).
type ckptReader struct {
	buf []byte
	off int
}

func (r *ckptReader) rem() int { return len(r.buf) - r.off }

func (r *ckptReader) u8() (byte, error) {
	if r.rem() < 1 {
		return 0, megaerr.Checkpointf("truncated at byte %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *ckptReader) u32() (uint32, error) {
	if r.rem() < 4 {
		return 0, megaerr.Checkpointf("truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *ckptReader) u64() (uint64, error) {
	if r.rem() < 8 {
		return 0, megaerr.Checkpointf("truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *ckptReader) f64s(n int) ([]float64, error) {
	if r.rem() < n*8 {
		return nil, megaerr.Checkpointf("truncated at byte %d: %d float64s declared, %d bytes left", r.off, n, r.rem())
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
	return out, nil
}

// DecodeCheckpoint parses and validates checkpoint bytes: magic, version,
// CRC, and the internal consistency of every field (queue and dirty
// vertices in range, context indexes in range). All failures are
// megaerr.ErrCheckpoint. Exported for the fuzz harness; engines restore
// through their Restore methods, which additionally validate the state
// against the engine's window, algorithm, and schedule.
func DecodeCheckpoint(data []byte) (*checkpointState, error) {
	if len(data) < len(ckptMagic)+4+4 {
		return nil, megaerr.Checkpointf("%d bytes is shorter than any checkpoint", len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, megaerr.Checkpointf("bad magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, megaerr.Checkpointf("checksum mismatch: computed %#x, stored %#x", got, want)
	}
	r := &ckptReader{buf: body, off: len(ckptMagic)}
	version, err := r.u32()
	if err != nil {
		return nil, err
	}
	if version != ckptVersion {
		return nil, megaerr.Checkpointf("version %d, this build reads version %d", version, ckptVersion)
	}
	st := &checkpointState{}
	if st.algoKind, err = r.u32(); err != nil {
		return nil, err
	}
	if st.source, err = r.u32(); err != nil {
		return nil, err
	}
	if st.numVerts, err = r.u32(); err != nil {
		return nil, err
	}
	if st.numCtx, err = r.u32(); err != nil {
		return nil, err
	}
	numBatches, err := r.u32()
	if err != nil {
		return nil, err
	}
	if st.schedHash, err = r.u64(); err != nil {
		return nil, err
	}
	if r.rem() < int(numBatches)*8 {
		return nil, megaerr.Checkpointf("truncated: %d batches declared, %d bytes left", numBatches, r.rem())
	}
	st.batches = make([]ckptBatch, numBatches)
	for i := range st.batches {
		st.batches[i].id, _ = r.u32()
		st.batches[i].edges, _ = r.u32()
	}
	if st.stageStart, err = r.u32(); err != nil {
		return nil, err
	}
	inRounds, err := r.u8()
	if err != nil {
		return nil, err
	}
	if inRounds > 1 {
		return nil, megaerr.Checkpointf("inRounds flag %d is not a bool", inRounds)
	}
	st.inRounds = inRounds == 1
	if st.round, err = r.u32(); err != nil {
		return nil, err
	}
	events, err := r.u64()
	if err != nil {
		return nil, err
	}
	st.events = int64(events)
	if st.events < 0 {
		return nil, megaerr.Checkpointf("negative event count")
	}
	hasBase, err := r.u8()
	if err != nil {
		return nil, err
	}
	if hasBase > 1 {
		return nil, megaerr.Checkpointf("base-values flag %d is not a bool", hasBase)
	}
	if hasBase == 1 {
		if st.baseVals, err = r.f64s(int(st.numVerts)); err != nil {
			return nil, err
		}
	}
	// Context count is validated against the byte budget implicitly: each
	// present context must supply numVerts floats, and absent ones one byte.
	words := (int(numBatches) + 63) / 64
	st.vals = make([][]float64, 0, minInt(int(st.numCtx), r.rem()))
	st.applied = make([]batchSet, 0, cap(st.vals))
	for c := 0; c < int(st.numCtx); c++ {
		present, err := r.u8()
		if err != nil {
			return nil, err
		}
		if present > 1 {
			return nil, megaerr.Checkpointf("context %d present flag %d is not a bool", c, present)
		}
		if present == 0 {
			st.vals = append(st.vals, nil)
			st.applied = append(st.applied, nil)
			continue
		}
		vals, err := r.f64s(int(st.numVerts))
		if err != nil {
			return nil, err
		}
		if r.rem() < words*8 {
			return nil, megaerr.Checkpointf("truncated in context %d applied set", c)
		}
		bits := make(batchSet, words)
		for w := range bits {
			u, _ := r.u64()
			bits[w] = u
		}
		st.vals = append(st.vals, vals)
		st.applied = append(st.applied, bits)
	}
	nQueue, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.rem() < int(nQueue)*20 {
		return nil, megaerr.Checkpointf("truncated: %d queue entries declared, %d bytes left", nQueue, r.rem())
	}
	st.queue = make([]ckptEntry, nQueue)
	for i := range st.queue {
		c, _ := r.u32()
		v, _ := r.u32()
		bits, _ := r.u64()
		tag, _ := r.u32()
		if c >= st.numCtx {
			return nil, megaerr.Checkpointf("queue entry %d: context %d out of range [0,%d)", i, c, st.numCtx)
		}
		if v >= st.numVerts {
			return nil, megaerr.Checkpointf("queue entry %d: vertex %d out of range [0,%d)", i, v, st.numVerts)
		}
		if st.vals[c] == nil {
			return nil, megaerr.Checkpointf("queue entry %d: context %d has no values", i, c)
		}
		if t := int32(tag); t < -1 || int(t) >= int(numBatches) {
			return nil, megaerr.Checkpointf("queue entry %d: batch tag %d out of range", i, t)
		}
		st.queue[i] = ckptEntry{ctx: int32(c), v: graph.VertexID(v), val: math.Float64frombits(bits), tag: int32(tag)}
	}
	nDirty, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.rem() < int(nDirty)*4 {
		return nil, megaerr.Checkpointf("truncated: %d dirty vertices declared, %d bytes left", nDirty, r.rem())
	}
	st.dirty = make([]graph.VertexID, nDirty)
	for i := range st.dirty {
		v, _ := r.u32()
		if v >= st.numVerts {
			return nil, megaerr.Checkpointf("dirty vertex %d out of range [0,%d)", v, st.numVerts)
		}
		st.dirty[i] = graph.VertexID(v)
	}
	if r.rem() != 0 {
		return nil, megaerr.Checkpointf("%d trailing bytes after the dirty list", r.rem())
	}
	return st, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
