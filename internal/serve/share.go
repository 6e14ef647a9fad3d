package serve

// Cross-query computation sharing (DESIGN.md §14). When Config.CacheBytes
// is set, Submit routes window-carrying queries through a sharing layer
// layered *above* admission:
//
//	lookup cache ── hit ──▶ account admitted+completed, return snapshot
//	     │ miss
//	join flight ── follower ─▶ wait for the flight's resolution
//	     │ lead
//	admit + await slot ─▶ run once ─▶ insert cache ─▶ resolve
//
// A flight is one engine run for one (window, algo, source) key: every
// query for that key that arrives before the run resolves coalesces onto
// the leader's result. A different source leads a flight of its own;
// folding sources into one run does not pay in a software engine whose
// cost is per (vertex, context), not per fetch. The conservation law
// admitted == completed + failed + canceled + shed is preserved by
// accounting every sharing participant exactly once, always in a single
// mu-locked step: cache hits as admitted+completed on the spot, followers
// at their flight's resolution (or their own departure), the leader
// through the normal admission path with its terminal counted when the
// run resolves. Chaos queries (a fault.Plan on the context) bypass the
// layer entirely so injected failures cannot poison the cache or strand
// followers behind a planned fault.
import (
	"context"
	"time"

	"mega/internal/algo"
	"mega/internal/engine"
	"mega/internal/fault"
	"mega/internal/graph"
	"mega/internal/megaerr"
	"mega/internal/qcache"
)

// flightKey addresses the live flight serving one (window content,
// algorithm, source) triple: every query for that triple coalesces onto
// it.
type flightKey struct {
	win  uint64
	algo algo.Kind
	src  graph.VertexID
}

// flight is one in-progress shared engine run. Fields are guarded by
// Service.mu until done is closed; after the close, the result fields
// (vals, rep, err, runTime, abandoned) are immutable and readable without
// the lock.
type flight struct {
	key flightKey
	fp  engine.Fingerprint
	req *Request // the leader's

	// refs counts the leader plus followers still awaiting resolution.
	// The last departing participant unmaps the flight and cancels the
	// detached run (departFlightLocked).
	refs       int
	leaderGone bool
	cancel     context.CancelFunc // cancels the engine run; set at run start

	done      chan struct{} // closed exactly once at resolution or abandonment
	abandoned bool          // leader lost admission; followers must retry

	vals    [][]float64 // per snapshot
	rep     RunReport
	err     error
	runTime time.Duration
}

// shareable reports whether this request may go through the sharing
// layer: the layer is configured, the request carries a window (the cache
// key is window content), and no fault plan rides the context.
func (s *Service) shareable(ctx context.Context, req *Request) bool {
	return s.qc != nil && req.Window != nil && fault.From(ctx) == nil
}

// submitShared is the sharing-layer Submit path. The loop retries after
// an abandoned flight (leader lost admission): each iteration re-checks
// the cache — another flight may have landed the result meanwhile — then
// joins or leads a flight.
//
// The cache lookup and the flight join happen under one hold of s.mu.
// They must: with a lookup outside the lock, a request can miss, lose
// the CPU while a twin flight runs to resolution (insert + unmap), and
// then lead a second engine run for a result that is already cached.
// Under the lock the two states are exhaustive: either the flight is
// still mapped (join it) or — because runFlight inserts before it
// unmaps — the successful result is already visible to Lookup.
func (s *Service) submitShared(ctx context.Context, req *Request, cancel context.CancelFunc, submitted time.Time) (*Result, error) {
	fp, err := s.qc.Fingerprint(req.Window)
	if err != nil {
		// A window the scheduler refuses has no identity to share under;
		// the solo path will surface the same error from the engine.
		return s.submitSolo(ctx, req, submitted)
	}
	key := qcache.KeyFor(fp, uint32(req.Algo), uint32(req.Source))
	for {
		s.mu.Lock()
		if vals, ok := s.qc.Lookup(key, fp); ok {
			return s.resolveCacheHitLocked(req, vals, submitted)
		}
		fl, mode := s.joinOrLeadLocked(fp, key, req)
		s.mu.Unlock()
		switch mode {
		case flightLead:
			return s.leadFlight(ctx, req, cancel, fp, fl, submitted)
		case flightSolo:
			return s.submitSolo(ctx, req, submitted)
		default: // follower
			res, err, retry := s.awaitFlight(ctx, req, fl, submitted)
			if !retry {
				return res, err
			}
		}
	}
}

// Follower modes returned by joinOrLeadLocked.
const (
	flightLead      = "lead"
	flightSolo      = "solo"
	flightCoalesced = "coalesced"
)

// joinOrLeadLocked attaches the request to the live flight for its
// (window, algo, source) triple (coalesce) or creates a new flight with the
// request as leader. Solo routing survives only for a folded-key collision
// (same 64-bit key, different window content): the resident flight must
// not be disturbed, and correctness costs one unshared run. Called with
// s.mu held.
func (s *Service) joinOrLeadLocked(fp engine.Fingerprint, key qcache.Key, req *Request) (*flight, string) {
	fkey := flightKey{win: key.Win, algo: req.Algo, src: req.Source}
	if fl, ok := s.flights[fkey]; ok {
		if !fl.fp.Equal(fp) {
			return nil, flightSolo
		}
		fl.refs++
		s.coalesced++
		s.cCoalesced.Inc()
		return fl, flightCoalesced
	}
	fl := &flight{key: fkey, fp: fp, req: req, refs: 1, done: make(chan struct{})}
	s.flights[fkey] = fl
	return fl, flightLead
}

// unmapFlightLocked removes fl's map entry if it still points at fl: the
// identity check keeps a collision-displaced or replaced entry from
// deleting a newer flight. Called with s.mu held.
func (s *Service) unmapFlightLocked(fl *flight) {
	if s.flights[fl.key] == fl {
		delete(s.flights, fl.key)
	}
}

// departFlightLocked drops one participant's reference and reports whether
// it was the last, in which case the caller cancels the detached run. The
// flight leaves the maps in this same critical section: runFlight unmaps
// only when the canceled run has unwound, and an arrival in between must
// lead a fresh flight, not join a run that is already canceled. Called
// with s.mu held.
func (s *Service) departFlightLocked(fl *flight) (last bool) {
	fl.refs--
	if fl.refs > 0 {
		return false
	}
	s.unmapFlightLocked(fl)
	return true
}

// resolveCacheHitLocked accounts one cache hit — admission and completion
// in a single locked step so the conservation law holds at every instant —
// and builds its Result. A draining/closed service rejects hits like any
// other arrival: admission is closed, even to free answers. Called with
// s.mu held; releases it.
func (s *Service) resolveCacheHitLocked(req *Request, vals [][]float64, submitted time.Time) (*Result, error) {
	if s.state != stateServing {
		reason := "service draining"
		if s.state == stateClosed {
			reason = "service closed"
		}
		s.rejected++
		s.cRejected.Inc()
		queued := s.queuedTotal
		s.mu.Unlock()
		return nil, &megaerr.OverloadError{
			Reason: reason, Capacity: s.cfg.Capacity, Queued: queued,
			RetryAfter: retryAfterEstimate(s.cfg.Capacity, queued, time.Duration(s.hRunTime.Quantile(0.5))),
		}
	}
	t := s.tenantLocked(req.Tenant)
	s.admitted++
	t.admitted++
	s.cAdmitted.Inc()
	t.cAdmitted.Inc()
	s.cacheHits++
	s.cCacheHits.Inc()
	s.accountTerminalLocked(t, nil)
	s.mu.Unlock()
	return &Result{
		Values: vals,
		Report: Report{
			Engine:    "cache",
			Cache:     "hit",
			QueueWait: s.now().Sub(submitted),
		},
	}, nil
}

// leadFlight drives a flight through admission, the engine run, and
// resolution. The leader is a normal admitted request: its slot, queue
// wait, and terminal accounting all go through the standard machinery —
// the flight only adds that the run is detached from the leader's context
// (followers must survive the leader's departure) and resolves every
// attached waiter.
func (s *Service) leadFlight(ctx context.Context, req *Request, cancel context.CancelFunc, fp engine.Fingerprint, fl *flight, submitted time.Time) (*Result, error) {
	w, err := s.admit(req, cancel)
	if err != nil {
		s.resolveAbandoned(fl)
		return nil, err
	}
	if err := s.awaitSlot(ctx, req, w); err != nil {
		s.resolveAbandoned(fl)
		return nil, err
	}
	s.hQueueWait.Observe(s.now().Sub(submitted).Nanoseconds())

	// The run context is detached from the leader's: followers own the run
	// as much as the leader does, so only the last participant to depart
	// (or Close's straggler sweep, via s.active) cancels it.
	rctx, rcancel := context.WithCancel(context.WithoutCancel(ctx))
	s.mu.Lock()
	fl.cancel = rcancel
	s.active[w] = rcancel
	s.mu.Unlock()
	go s.runFlight(fl, w, fp, rctx, rcancel)

	select {
	case <-fl.done:
		if fl.err != nil {
			return nil, fl.err
		}
		return s.flightResult(fl, "", submitted), nil
	case <-ctx.Done():
		s.mu.Lock()
		fl.leaderGone = true
		last := s.departFlightLocked(fl)
		s.mu.Unlock()
		if last {
			rcancel()
		}
		// The leader's terminal (canceled) is accounted by runFlight when
		// the detached run resolves; returning here only releases the caller.
		return nil, megaerr.Canceled("serve: canceled while running", ctx.Err())
	}
}

// runFlight executes one flight, inserts its result into the cache,
// resolves every attached waiter, and releases the leader's run
// slot. Runs on its own goroutine so the leader's departure cannot stall
// followers.
func (s *Service) runFlight(fl *flight, w *waiter, fp engine.Fingerprint, rctx context.Context, rcancel context.CancelFunc) {
	defer rcancel()
	start := s.now()
	vals, rep, runErr := s.runContained(rctx, fl.req)
	runTime := s.now().Sub(start)
	s.hRunTime.Observe(runTime.Nanoseconds())
	if runErr == nil {
		s.qc.Insert(qcache.KeyFor(fp, uint32(fl.req.Algo), uint32(fl.req.Source)), fp, fl.req.Tenant, vals, nil)
	}

	s.mu.Lock()
	s.unmapFlightLocked(fl)
	fl.vals, fl.rep, fl.err, fl.runTime = vals, rep, runErr, runTime
	s.engineRuns++
	s.cEngineRuns.Inc()
	outcome := runErr
	if fl.leaderGone {
		outcome = megaerr.Canceled("serve: canceled while running", context.Canceled)
	}
	close(fl.done)
	s.finishLocked(w, outcome)
	s.mu.Unlock()
}

// awaitFlight is the follower's wait: flight resolution, abandonment
// (retry=true — the leader lost admission and the follower must re-enter
// the sharing loop), or the follower's own context expiring. Followers
// are accounted exactly once, always admission and terminal together in
// one locked step, at the moment their outcome is known.
func (s *Service) awaitFlight(ctx context.Context, req *Request, fl *flight, submitted time.Time) (*Result, error, bool) {
	select {
	case <-fl.done:
		if fl.abandoned {
			return nil, nil, true
		}
		s.mu.Lock()
		t := s.tenantLocked(req.Tenant)
		s.admitted++
		t.admitted++
		s.cAdmitted.Inc()
		t.cAdmitted.Inc()
		s.accountTerminalLocked(t, fl.err)
		s.mu.Unlock()
		if fl.err != nil {
			return nil, fl.err, false
		}
		return s.flightResult(fl, flightCoalesced, submitted), nil, false
	case <-ctx.Done():
		cause := megaerr.Canceled("serve: canceled while attached to a shared run", ctx.Err())
		s.mu.Lock()
		last := s.departFlightLocked(fl) && fl.cancel != nil
		cancel := fl.cancel
		t := s.tenantLocked(req.Tenant)
		s.admitted++
		t.admitted++
		s.cAdmitted.Inc()
		t.cAdmitted.Inc()
		s.accountTerminalLocked(t, cause)
		s.mu.Unlock()
		if last {
			cancel()
		}
		return nil, cause, false
	}
}

// resolveAbandoned kills a flight whose leader lost admission before the
// run started: followers wake with abandoned set and retry. The flight
// leaves the map so a retrying follower can lead a fresh one.
func (s *Service) resolveAbandoned(fl *flight) {
	s.mu.Lock()
	fl.abandoned = true
	s.unmapFlightLocked(fl)
	close(fl.done)
	s.mu.Unlock()
}

// flightResult builds one participant's Result from a resolved flight.
// Every participant — leader included — gets its own deep copy: the cache
// already owns a copy, so no two callers may alias one array.
func (s *Service) flightResult(fl *flight, mode string, submitted time.Time) *Result {
	vals := make([][]float64, len(fl.vals))
	for i, snap := range fl.vals {
		vals[i] = append([]float64(nil), snap...)
	}
	queueWait := s.now().Sub(submitted) - fl.runTime
	if queueWait < 0 {
		queueWait = 0
	}
	return &Result{
		Values: vals,
		Report: Report{
			Engine:    "sequential",
			Attempts:  fl.rep.Attempts,
			Resumed:   fl.rep.Resumed,
			Cache:     mode,
			QueueWait: queueWait,
			RunTime:   fl.runTime,
		},
	}
}
