// Package fault implements deterministic, seeded fault injection for the
// execution layers. A Plan is a set of injection Ops, each naming a Site
// (a class of instrumented code locations: engine round boundaries,
// schedule-op boundaries, simulator tick loops, dataset I/O, checkpoint
// store writes) and a visit count at which to fire. Execution layers call
// Check at their sites; the Plan counts visits per (site, shard) and
// fires the matching injection: a typed transient error, a panic, a
// cooperative cancellation, or a latency spike.
//
// Determinism is the point: every site is visited in a fixed order for a
// fixed input, so "kill the run at visit N of engine.round" means the same
// machine state on every execution. That is what lets the
// crash-equivalence suite assert bit-identical results after a resume.
//
// Plans are carried on the context (Inject/From) so the public Context
// API needs no new parameters, and every call site guards with a nil
// check — a run without a plan pays one pointer compare per boundary,
// nothing on the per-event hot paths.
package fault

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mega/internal/megaerr"
)

// Site names a class of injection points. The constants below are every
// site the execution layers instrument; Check on an unknown site is legal
// (it counts visits and can fire ops) so tests may define private sites.
type Site string

const (
	// SiteSolveRound fires at round boundaries of the static single-graph
	// solver (engine.SolveContext) — including the CommonGraph base solve
	// every window run starts with. The best-first solve that serves a
	// built-in algorithm with no probe has no rounds: there the site fires
	// before the first vertex is expanded and after every 4,096 more, so a
	// solve of fewer expansions visits it once.
	SiteSolveRound Site = "solve.round"
	// SiteEngineOp fires at schedule-stage boundaries of the sequential
	// multi-context engine (engine.Multi).
	SiteEngineOp Site = "engine.op"
	// SiteEngineRound fires at round boundaries of engine.Multi's
	// drain-to-quiescence loop.
	SiteEngineRound Site = "engine.round"
	// SiteSimHop fires at the aggregate simulator's snapshot/hop
	// boundaries (recompute solves, JetStream hops).
	SiteSimHop Site = "sim.hop"
	// SiteUarchCycle fires in the cycle-level simulators' tick loops,
	// amortized to the same cadence as their context checks.
	SiteUarchCycle Site = "uarch.cycle"
	// SiteGenIO fires in dataset I/O: once per file an evolution load
	// opens.
	SiteGenIO Site = "gen.io"
	// SiteStoreWrite fires in the checkpoint store before each segment or
	// manifest body write. KindTransient here does NOT fail the call: it
	// models a silent short write — the kernel acknowledges the write but
	// only a prefix of the bytes lands — which the store's read-back gate
	// must catch and quarantine. KindPanic models a crash mid-write.
	SiteStoreWrite Site = "store.write"
	// SiteStoreSync fires before each file fsync in the checkpoint store;
	// KindTransient models a failed fsync (the write never became durable).
	SiteStoreSync Site = "store.sync"
	// SiteStoreRename fires before the temp→final rename; KindTransient
	// models a failed rename, KindPanic a crash between write and rename
	// (the classic torn-publish window the atomic protocol closes).
	SiteStoreRename Site = "store.rename"
	// SiteStoreDirSync fires before the parent-directory fsync that makes
	// a rename durable; KindTransient models that sync failing.
	SiteStoreDirSync Site = "store.dirsync"
)

// Sites lists every instrumented site, for CLI validation and docs.
func Sites() []Site {
	return []Site{
		SiteSolveRound, SiteEngineOp, SiteEngineRound,
		SiteSimHop, SiteUarchCycle, SiteGenIO,
		SiteStoreWrite, SiteStoreSync, SiteStoreRename, SiteStoreDirSync,
	}
}

// Kind selects what an injection does when it fires.
type Kind uint8

const (
	// KindTransient returns a megaerr.ErrTransient-matching error from
	// the site; the retry layer classifies it retryable.
	KindTransient Kind = iota
	// KindPanic panics at the site, exercising panic containment and
	// torn-state recovery from checkpoints.
	KindPanic
	// KindCancel invokes the CancelFunc bound with BindCancel, so the
	// run's own lifecycle checks observe an ordinary cancellation.
	KindCancel
	// KindLatency sleeps for Op.Latency at the site, modelling a stall
	// (a slow disk, a contended lock) without failing the run.
	KindLatency
)

// String names the kind as the spec grammar spells it.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPanic:
		return "panic"
	case KindCancel:
		return "cancel"
	case KindLatency:
		return "latency"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// AnyShard makes an Op match the site regardless of which shard visits it
// (and is the shard every instrumented site reports).
const AnyShard = -1

// Op is one planned injection.
type Op struct {
	// Site is the injection point class.
	Site Site
	// Shard restricts the op to one shard's visits of the site; AnyShard
	// matches all. Visit counts are kept per
	// (site, shard), so a shard-targeted op is deterministic even though
	// shards interleave.
	Shard int
	// Kind selects the effect.
	Kind Kind
	// Visit is the 1-based visit count at which the op fires.
	Visit uint64
	// Every, when nonzero, refires the op at every Every-th visit after
	// Visit (visit == Visit + k·Every). Zero means one-shot.
	Every uint64
	// Prob, when nonzero, replaces the deterministic schedule: from
	// Visit onward the op fires with probability Prob per visit, drawn
	// from the plan's seeded generator.
	Prob float64
	// Latency is the stall duration for KindLatency ops.
	Latency time.Duration
}

// String renders the op in the spec grammar ParseOp accepts.
func (o Op) String() string {
	var b strings.Builder
	b.WriteString(string(o.Site))
	if o.Shard != AnyShard {
		fmt.Fprintf(&b, "#%d", o.Shard)
	}
	b.WriteByte(':')
	b.WriteString(o.Kind.String())
	if o.Kind == KindLatency && o.Latency > 0 {
		fmt.Fprintf(&b, "=%s", o.Latency)
	}
	fmt.Fprintf(&b, "@%d", o.Visit)
	if o.Every > 0 {
		fmt.Fprintf(&b, "x%d", o.Every)
	}
	return b.String()
}

// Firing records one fired injection, for audits and recovery reports.
type Firing struct {
	Op    Op
	Shard int
	Visit uint64
}

// String summarizes the firing.
func (f Firing) String() string {
	if f.Shard != AnyShard {
		return fmt.Sprintf("%s[shard %d] visit %d: %s", f.Op.Site, f.Shard, f.Visit, f.Op.Kind)
	}
	return fmt.Sprintf("%s visit %d: %s", f.Op.Site, f.Visit, f.Op.Kind)
}

type visitKey struct {
	site  Site
	shard int
}

// Plan is a deterministic injection schedule. The zero value is unusable;
// build plans with NewPlan. A nil *Plan is a valid no-op: every method is
// nil-safe, so call sites hold a possibly-nil plan and pay one compare
// when fault injection is off.
type Plan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	ops    []Op
	visits map[visitKey]uint64
	fired  []Firing
	cancel context.CancelFunc
}

// NewPlan builds an empty plan whose probabilistic draws (Op.Prob) come
// from a generator seeded with seed.
func NewPlan(seed int64) *Plan {
	return &Plan{
		rng:    rand.New(rand.NewSource(seed)),
		visits: make(map[visitKey]uint64),
	}
}

// Add appends injection ops; it returns the plan for chaining. Ops with
// Visit 0 are normalized to fire on the first visit.
func (p *Plan) Add(ops ...Op) *Plan {
	p.mu.Lock()
	for _, op := range ops {
		if op.Visit == 0 {
			op.Visit = 1
		}
		p.ops = append(p.ops, op)
	}
	p.mu.Unlock()
	return p
}

// BindCancel supplies the CancelFunc that KindCancel ops invoke. Without
// a binding, cancel ops fall back to returning a transient error so the
// injection is never silently lost.
func (p *Plan) BindCancel(cancel context.CancelFunc) {
	p.mu.Lock()
	p.cancel = cancel
	p.mu.Unlock()
}

// Check visits a sequential site: it advances the (site, AnyShard) visit
// counter and fires any matching op. KindTransient returns its error;
// KindPanic panics; KindCancel and KindLatency act and return nil. A nil
// plan returns nil without counting.
func (p *Plan) Check(site Site) error { return p.CheckShard(site, AnyShard) }

// CheckCtx is Check with a lifecycle: a fired KindLatency op waits on a
// timer AND ctx.Done(), so an injected latency spike cannot outlive a
// canceled query — cancellation interrupts the stall and surfaces as a
// megaerr.ErrCanceled-matching error. Execution layers that hold a
// context should prefer this over Check.
func (p *Plan) CheckCtx(ctx context.Context, site Site) error {
	return p.CheckShardCtx(ctx, site, AnyShard)
}

// CheckShard is Check for sites visited concurrently by identified shards;
// visits are counted per (site, shard) so each shard's sequence stays
// deterministic under interleaving.
func (p *Plan) CheckShard(site Site, shard int) error {
	return p.CheckShardCtx(context.Background(), site, shard)
}

// CheckShardCtx is CheckShard with a lifecycle (see CheckCtx).
func (p *Plan) CheckShardCtx(ctx context.Context, site Site, shard int) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	k := visitKey{site, shard}
	p.visits[k]++
	visit := p.visits[k]
	var hit *Op
	for i := range p.ops {
		op := &p.ops[i]
		if op.Site != site || (op.Shard != AnyShard && op.Shard != shard) {
			continue
		}
		fire := false
		switch {
		case op.Prob > 0:
			fire = visit >= op.Visit && p.rng.Float64() < op.Prob
		case op.Every > 0:
			fire = visit >= op.Visit && (visit-op.Visit)%op.Every == 0
		default:
			fire = visit == op.Visit
		}
		if fire {
			hit = op
			break
		}
	}
	if hit == nil {
		p.mu.Unlock()
		return nil
	}
	p.fired = append(p.fired, Firing{Op: *hit, Shard: shard, Visit: visit})
	op, cancel := *hit, p.cancel
	p.mu.Unlock()

	switch op.Kind {
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s visit %d", site, visit))
	case KindCancel:
		if cancel != nil {
			cancel()
			return nil
		}
		return megaerr.Transientf("fault %s visit %d: cancel injection with no bound CancelFunc", site, visit)
	case KindLatency:
		if op.Latency > 0 {
			t := time.NewTimer(op.Latency)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return megaerr.Canceled(fmt.Sprintf("fault latency at %s visit %d", site, visit), ctx.Err())
			}
		}
		return nil
	default: // KindTransient
		return megaerr.Transientf("fault %s visit %d", site, visit)
	}
}

// Visits returns how many times (site, shard) has been checked. Use
// Check's AnyShard for sequential sites. Handy for sizing a kill sweep:
// run once fault-free, read the round count, then kill at each visit.
func (p *Plan) Visits(site Site, shard int) uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.visits[visitKey{site, shard}]
}

// Fired returns the injections fired so far, in firing order.
func (p *Plan) Fired() []Firing {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Firing(nil), p.fired...)
}

// ctxKey carries the plan on a context.
type ctxKey struct{}

// Inject returns a context carrying the plan; the execution layers pick
// it up with From at run entry. Injecting nil returns ctx unchanged.
func Inject(ctx context.Context, p *Plan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, p)
}

// From extracts the plan carried by ctx, or nil — and a nil plan's Check
// methods are no-ops, so callers never need to branch.
func From(ctx context.Context) *Plan {
	p, _ := ctx.Value(ctxKey{}).(*Plan)
	return p
}

// ParseOp parses the CLI spec grammar:
//
//	site[#shard]:kind[=latency]@visit[xevery]
//
// Examples: "engine.round:transient@120", "gen.io:latency=5ms@1x2",
// "uarch.cycle:cancel@10". The site must be one of Sites().
func ParseOp(spec string) (Op, error) {
	op := Op{Shard: AnyShard}
	head, tail, ok := strings.Cut(spec, ":")
	if !ok {
		return op, megaerr.Invalidf("fault: spec %q: want site[#shard]:kind[=latency]@visit[xevery]", spec)
	}
	if site, shard, has := strings.Cut(head, "#"); has {
		n, err := strconv.Atoi(shard)
		if err != nil || n < 0 {
			return op, megaerr.Invalidf("fault: spec %q: bad shard %q", spec, shard)
		}
		op.Site, op.Shard = Site(site), n
	} else {
		op.Site = Site(head)
	}
	if !slices.Contains(Sites(), op.Site) {
		return op, megaerr.Invalidf("fault: spec %q: unknown site %q", spec, op.Site)
	}
	kindPart, visitPart, ok := strings.Cut(tail, "@")
	if !ok {
		return op, megaerr.Invalidf("fault: spec %q: missing @visit", spec)
	}
	kindName, latSpec, hasLat := strings.Cut(kindPart, "=")
	switch kindName {
	case "transient":
		op.Kind = KindTransient
	case "panic":
		op.Kind = KindPanic
	case "cancel":
		op.Kind = KindCancel
	case "latency":
		op.Kind = KindLatency
	default:
		return op, megaerr.Invalidf("fault: spec %q: unknown kind %q (want transient, panic, cancel, or latency)", spec, kindName)
	}
	if hasLat {
		if op.Kind != KindLatency {
			return op, megaerr.Invalidf("fault: spec %q: only latency takes a duration", spec)
		}
		d, err := time.ParseDuration(latSpec)
		if err != nil || d < 0 {
			return op, megaerr.Invalidf("fault: spec %q: bad duration %q", spec, latSpec)
		}
		op.Latency = d
	} else if op.Kind == KindLatency {
		op.Latency = time.Millisecond
	}
	visitStr, everyStr, hasEvery := strings.Cut(visitPart, "x")
	visit, err := strconv.ParseUint(visitStr, 10, 64)
	if err != nil || visit == 0 {
		return op, megaerr.Invalidf("fault: spec %q: bad visit %q (want a positive count)", spec, visitStr)
	}
	op.Visit = visit
	if hasEvery {
		every, err := strconv.ParseUint(everyStr, 10, 64)
		if err != nil || every == 0 {
			return op, megaerr.Invalidf("fault: spec %q: bad period %q", spec, everyStr)
		}
		op.Every = every
	}
	return op, nil
}
