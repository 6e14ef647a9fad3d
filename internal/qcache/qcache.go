// Package qcache is the cross-query result cache behind the query
// service: a bounded, metrics-audited store of finished query results
// keyed on window identity + algorithm + source vertex.
//
// Window identity is content, not pointer: the key derives from the
// engine's BOE Fingerprint (the checkpoint layer's FNV-1a schedule hash,
// a CommonGraph edge digest, and the per-batch edge-content digests), so
// a window rebuilt from the same evolution hits the same entries.
// Windows are immutable after construction, which gives the cache its
// defining property — a hit returns Float64bits-identical snapshots with
// no invalidation protocol beyond byte-budget eviction.
//
// Beyond exact hits, the cache powers stable-vertex seeding ("Analysis
// of Stable Vertex Values", Afarin et al., arXiv 2502.10579): each entry
// retains the run's converged CommonGraph solution, and Seed hands it to
// a new query over a *different* window whose fingerprint proves the
// same CommonGraph content, letting the engine skip its base solve while
// staying bit-identical (the skipped solve is deterministic in its
// inputs, and equal digests mean equal inputs).
//
// Accounting is a checked invariant: hits + misses == lookups, resident
// bytes equal the sum of entry sizes and never exceed the global or any
// per-tenant budget. Close (and Audit) verify the law; the serve layer
// records it as the strict "cache.accounting" audit.
package qcache

import (
	"container/list"
	"fmt"
	"sync"

	"mega/internal/engine"
	"mega/internal/evolve"
	"mega/internal/megaerr"
	"mega/internal/metrics"
)

// Key identifies one cacheable result: window content (folded
// fingerprint), algorithm kind, and source vertex. Collisions on the
// folded window word are harmless — Lookup re-verifies the full
// fingerprint before returning an entry.
type Key struct {
	Win    uint64
	Algo   uint32
	Source uint32
}

// Config parameterizes a Cache.
type Config struct {
	// MaxBytes bounds the resident value bytes (required, > 0). An
	// insertion past the bound evicts least-recently-used entries; a
	// single result larger than the bound is refused.
	MaxBytes int64
	// TenantBytes, when non-nil, caps each named tenant's resident bytes.
	// An insertion past the tenant's cap evicts that tenant's own LRU
	// entries first — one tenant's hot set never evicts another's budget.
	TenantBytes map[string]int64
	// DefaultTenantBytes caps tenants absent from TenantBytes (0 = only
	// the global bound applies).
	DefaultTenantBytes int64
	// Metrics, when non-nil, receives the cache's counters and gauges.
	Metrics *metrics.Registry
}

// entry is one cached result.
type entry struct {
	key    Key
	fp     engine.Fingerprint
	tenant string
	vals   [][]float64
	base   []float64 // converged CommonGraph solution (may be nil)
	bytes  int64
	elem   *list.Element
}

// Cache is a bounded LRU result cache. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	entries map[Key]*entry
	lru     *list.List // front = most recently used
	bytes   int64
	tenants map[string]int64 // resident bytes per inserting tenant
	closed  bool

	// fps memoizes window fingerprints by identity; windows are immutable
	// so the first computation is definitive.
	fps sync.Map // *evolve.Window -> engine.Fingerprint

	lookups, hits, misses    uint64
	inserts, updates         uint64
	evictions, rejected      uint64
	seedHits, seedMisses     uint64
	invalidated              uint64
	cLookups, cHits, cMisses *metrics.Counter
	cInserts, cEvictions     *metrics.Counter
	cSeedHits                *metrics.Counter
	gBytes, gEntries         *metrics.Gauge
}

// New validates cfg and builds a Cache.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		return nil, megaerr.Invalidf("qcache: MaxBytes %d, want > 0", cfg.MaxBytes)
	}
	if cfg.DefaultTenantBytes < 0 {
		return nil, megaerr.Invalidf("qcache: negative DefaultTenantBytes %d", cfg.DefaultTenantBytes)
	}
	for name, b := range cfg.TenantBytes {
		if b < 0 {
			return nil, megaerr.Invalidf("qcache: tenant %s: negative byte budget %d", name, b)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[Key]*entry),
		lru:     list.New(),
		tenants: make(map[string]int64),

		cLookups:   reg.Counter("qcache_lookups"),
		cHits:      reg.Counter("qcache_hits"),
		cMisses:    reg.Counter("qcache_misses"),
		cInserts:   reg.Counter("qcache_inserts"),
		cEvictions: reg.Counter("qcache_evictions"),
		cSeedHits:  reg.Counter("qcache_seed_hits"),
		gBytes:     reg.Gauge("qcache_bytes"),
		gEntries:   reg.Gauge("qcache_entries"),
	}, nil
}

// Fingerprint resolves (memoizing per window identity) w's BOE
// fingerprint for keying and seeding.
func (c *Cache) Fingerprint(w *evolve.Window) (engine.Fingerprint, error) {
	if fp, ok := c.fps.Load(w); ok {
		return fp.(engine.Fingerprint), nil
	}
	fp, err := engine.FingerprintBOE(w)
	if err != nil {
		return engine.Fingerprint{}, err
	}
	c.fps.Store(w, fp)
	return fp, nil
}

// KeyFor builds the cache key for (fingerprint, algo kind, source).
func KeyFor(fp engine.Fingerprint, algoKind uint32, source uint32) Key {
	return Key{Win: fp.Key(), Algo: algoKind, Source: source}
}

// resultBytes sizes a result for budget accounting: the float64 payload
// of every snapshot plus the retained base solution.
func resultBytes(vals [][]float64, base []float64) int64 {
	n := int64(len(base))
	for _, snap := range vals {
		n += int64(len(snap))
	}
	return n * 8
}

// copyVals deep-copies a snapshot set so cached arrays and caller-owned
// arrays never alias. An entry's arrays are never written after insertion
// (re-inserting a key replaces the entry), so the copies are taken outside
// the cache-wide mutex: a reader copies from the reference it took under the
// lock, a writer copies before taking it.
func copyVals(vals [][]float64) [][]float64 {
	out := make([][]float64, len(vals))
	for i, snap := range vals {
		out[i] = append([]float64(nil), snap...)
	}
	return out
}

// Lookup returns a deep copy of the cached result for key, verifying the
// full fingerprint so a folded-key collision can never surface another
// window's values. Every call counts as one lookup and exactly one of
// hit/miss.
func (c *Cache) Lookup(key Key, fp engine.Fingerprint) ([][]float64, bool) {
	c.mu.Lock()
	c.lookups++
	c.cLookups.Inc()
	e, ok := c.entries[key]
	if !ok || c.closed || !e.fp.Equal(fp) {
		c.misses++
		c.cMisses.Inc()
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.cHits.Inc()
	c.lru.MoveToFront(e.elem)
	vals := e.vals
	c.mu.Unlock()
	return copyVals(vals), true
}

// Insert stores a deep copy of vals (and the run's converged base
// solution) under key, attributed to tenant's budget. It evicts LRU
// entries — the tenant's own first when its budget is exceeded, then
// globally — and reports whether the result became resident (oversize
// results are rejected, not partially stored). Re-inserting an existing
// key refreshes the entry in place.
func (c *Cache) Insert(key Key, fp engine.Fingerprint, tenant string, vals [][]float64, base []float64) bool {
	size := resultBytes(vals, base)
	budget := c.tenantBudget(tenant) // configuration, fixed at New
	oversize := size > c.cfg.MaxBytes || (budget > 0 && size > budget)
	if !oversize {
		vals, base = copyVals(vals), append([]float64(nil), base...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if oversize {
		c.rejected++
		return false
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
		c.updates++
	}
	// Tenant budget first: evict the inserting tenant's own LRU entries
	// until the new entry fits its cap.
	if budget > 0 {
		for c.tenants[tenant]+size > budget {
			if !c.evictLRULocked(tenant) {
				break
			}
		}
	}
	for c.bytes+size > c.cfg.MaxBytes {
		if !c.evictLRULocked("") {
			c.rejected++
			return false
		}
	}
	e := &entry{
		key:    key,
		fp:     fp,
		tenant: tenant,
		vals:   vals,
		base:   base,
		bytes:  size,
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	c.tenants[tenant] += size
	c.inserts++
	c.cInserts.Inc()
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(len(c.entries)))
	return true
}

// tenantBudget resolves tenant's byte cap (0 = uncapped).
func (c *Cache) tenantBudget(tenant string) int64 {
	if b, ok := c.cfg.TenantBytes[tenant]; ok {
		return b
	}
	return c.cfg.DefaultTenantBytes
}

// evictLRULocked evicts the least-recently-used entry — of the named
// tenant when tenant != "", else of the whole cache — and reports whether
// anything was evicted. Caller holds mu.
func (c *Cache) evictLRULocked(tenant string) bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if tenant != "" && e.tenant != tenant {
			continue
		}
		c.removeLocked(e)
		c.evictions++
		c.cEvictions.Inc()
		return true
	}
	return false
}

// removeLocked unlinks e from every index. Caller holds mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
	c.tenants[e.tenant] -= e.bytes
	if c.tenants[e.tenant] == 0 {
		delete(c.tenants, e.tenant)
	}
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(len(c.entries)))
}

// Seed returns a deep copy of a cached converged CommonGraph solution
// usable to initialize a fresh (algo, source) query over a window with
// fingerprint fp, or nil when no entry qualifies. Soundness: a donor
// qualifies only with an equal Common digest (identical CommonGraph
// content ⇒ the deterministic base solve it skipped would have produced
// exactly these bits) and a non-empty shared batch-digest prefix or
// equal batch list (the windows genuinely overlap, so the reuse is the
// paper's stable-vertex case, not a coincidence of intersection).
func (c *Cache) Seed(fp engine.Fingerprint, algoKind uint32, source uint32) []float64 {
	return append([]float64(nil), c.seedDonor(fp, algoKind, source)...)
}

// seedDonor finds Seed's donor entry and returns its base, shared.
func (c *Cache) seedDonor(fp engine.Fingerprint, algoKind uint32, source uint32) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.Algo != algoKind || e.key.Source != source || len(e.base) == 0 {
			continue
		}
		if e.fp.Common != fp.Common {
			continue
		}
		if e.fp.SharedPrefix(fp) == 0 && len(fp.Batches) > 0 && len(e.fp.Batches) > 0 {
			continue
		}
		c.seedHits++
		c.cSeedHits.Inc()
		return e.base
	}
	c.seedMisses++
	return nil
}

// Invalidate drops every entry whose window fingerprint equals fp,
// returning how many were dropped. (Windows are immutable, so this is
// for operators retiring a dataset, not a consistency requirement.)
func (c *Cache) Invalidate(fp engine.Fingerprint) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.fp.Equal(fp) {
			c.removeLocked(e)
			c.invalidated++
			n++
		}
	}
	return n
}

// Stats is a point-in-time accounting snapshot.
type Stats struct {
	// Entries and Bytes are the live residency; MaxBytes echoes the
	// configured bound (non-zero identifies an enabled cache).
	Entries  int
	Bytes    int64
	MaxBytes int64
	// Lookups splits exactly into Hits + Misses — the audited law.
	Lookups, Hits, Misses uint64
	// Inserts counts results that became resident; Rejected counts
	// oversize or unplaceable results; Evictions counts LRU removals.
	Inserts, Rejected, Evictions uint64
	// SeedHits counts queries initialized from a cached base solution.
	SeedHits uint64
	// Invalidated counts entries dropped by Invalidate or Close.
	Invalidated uint64
}

// Stats returns the cache's current accounting snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

func (c *Cache) statsLocked() Stats {
	return Stats{
		Entries:     len(c.entries),
		Bytes:       c.bytes,
		MaxBytes:    c.cfg.MaxBytes,
		Lookups:     c.lookups,
		Hits:        c.hits,
		Misses:      c.misses,
		Inserts:     c.inserts,
		Rejected:    c.rejected,
		Evictions:   c.evictions,
		SeedHits:    c.seedHits,
		Invalidated: c.invalidated,
	}
}

// Audit checks the cache accounting conservation laws: hits + misses ==
// lookups, resident bytes equal the sum of entry sizes, and residency
// respects the global and every per-tenant budget.
func (c *Cache) Audit() metrics.AuditResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.auditLocked()
}

func (c *Cache) auditLocked() metrics.AuditResult {
	res := metrics.AuditResult{Name: "cache.accounting", OK: true}
	if c.hits+c.misses != c.lookups {
		res.OK = false
		res.Detail = fmt.Sprintf("hits=%d + misses=%d != lookups=%d", c.hits, c.misses, c.lookups)
		return res
	}
	var sum int64
	perTenant := make(map[string]int64)
	for _, e := range c.entries {
		sum += e.bytes
		perTenant[e.tenant] += e.bytes
	}
	if sum != c.bytes {
		res.OK = false
		res.Detail = fmt.Sprintf("resident bytes %d != entry sum %d", c.bytes, sum)
		return res
	}
	if c.bytes > c.cfg.MaxBytes {
		res.OK = false
		res.Detail = fmt.Sprintf("resident bytes %d exceed budget %d", c.bytes, c.cfg.MaxBytes)
		return res
	}
	for tenant, b := range perTenant {
		if c.tenants[tenant] != b {
			res.OK = false
			res.Detail = fmt.Sprintf("tenant %s: tracked bytes %d != entry sum %d", tenant, c.tenants[tenant], b)
			return res
		}
		if budget := c.tenantBudget(tenant); budget > 0 && b > budget {
			res.OK = false
			res.Detail = fmt.Sprintf("tenant %s: resident bytes %d exceed budget %d", tenant, b, budget)
			return res
		}
	}
	return res
}

// Close invalidates every entry and returns the final accounting audit.
// A closed cache misses every lookup and refuses every insert; Close is
// idempotent (later calls re-run the audit on the empty cache).
func (c *Cache) Close() metrics.AuditResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.removeLocked(e)
		c.invalidated++
	}
	c.closed = true
	return c.auditLocked()
}
