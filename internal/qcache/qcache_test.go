package qcache

import (
	"errors"
	"sync"
	"testing"

	"mega/internal/engine"
	"mega/internal/evolve"
	"mega/internal/graph"
	"mega/internal/megaerr"
)

// fpN builds a synthetic fingerprint for key/seed tests. The cache treats
// fingerprints as opaque content digests, so crafted ones exercise the
// same paths as real windows at a fraction of the setup cost.
func fpN(schedule, common uint64, batches ...uint64) engine.Fingerprint {
	return engine.Fingerprint{Schedule: schedule, Common: common, Batches: batches}
}

// valsOf builds a snapshot set with n float64s total (one snapshot), so
// resultBytes is exactly 8n.
func valsOf(n int, fill float64) [][]float64 {
	snap := make([]float64, n)
	for i := range snap {
		snap[i] = fill
	}
	return [][]float64{snap}
}

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil || !isInvalid(err) {
		t.Errorf("New with zero MaxBytes = %v, want ErrInvalidInput", err)
	}
	if _, err := New(Config{MaxBytes: 1, DefaultTenantBytes: -1}); err == nil || !isInvalid(err) {
		t.Errorf("New with negative DefaultTenantBytes = %v, want ErrInvalidInput", err)
	}
	if _, err := New(Config{MaxBytes: 1, TenantBytes: map[string]int64{"a": -1}}); err == nil || !isInvalid(err) {
		t.Errorf("New with negative tenant budget = %v, want ErrInvalidInput", err)
	}
}

func isInvalid(err error) bool { return errors.Is(err, megaerr.ErrInvalidInput) }

// TestLookupVerifiesFullFingerprint pins the collision-safety contract: a
// folded-key match with a different full fingerprint must miss, never
// surface another window's values.
func TestLookupVerifiesFullFingerprint(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 1 << 20})
	key := Key{Win: 42, Algo: 1, Source: 0}
	fpA := fpN(1, 2, 3)
	fpB := fpN(1, 2, 4) // same crafted key, different content
	if !c.Insert(key, fpA, "", valsOf(4, 1.5), nil) {
		t.Fatal("Insert refused")
	}
	if vals, ok := c.Lookup(key, fpA); !ok || vals[0][0] != 1.5 {
		t.Fatalf("Lookup with matching fp = %v, %v; want hit", vals, ok)
	}
	if _, ok := c.Lookup(key, fpB); ok {
		t.Fatal("Lookup with mismatched fingerprint hit — collision safety broken")
	}
	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 lookups = 1 hit + 1 miss", st)
	}
	if a := c.Audit(); !a.OK {
		t.Errorf("audit failed: %s", a.Detail)
	}
}

// TestLookupReturnsIsolatedCopy checks callers can't corrupt resident
// entries through the returned slices.
func TestLookupReturnsIsolatedCopy(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 1 << 20})
	key := Key{Win: 1}
	fp := fpN(1, 1)
	c.Insert(key, fp, "", valsOf(2, 7), nil)
	got, ok := c.Lookup(key, fp)
	if !ok {
		t.Fatal("miss")
	}
	got[0][0] = -1
	again, _ := c.Lookup(key, fp)
	if again[0][0] != 7 {
		t.Fatal("mutating a returned result corrupted the resident entry")
	}
}

// TestConcurrentLookupInsertEvict hammers one key from every side at once:
// writers re-insert it with a new fill each time, an evictor pushes it out
// of a two-entry budget, readers look it up and seed from it. The copies
// are taken outside the cache's mutex, so under -race this is the proof
// that nothing writes an entry's arrays after insertion; a result mixing
// two fills would be a torn copy; and the books must still balance.
func TestConcurrentLookupInsertEvict(t *testing.T) {
	const n = 512
	c := newCache(t, Config{MaxBytes: 2 * 2 * 8 * n}) // two entries of values + base
	key, fp := Key{Win: 1, Algo: 2, Source: 3}, fpN(1, 1, 1)
	uniform := func(what string, vals []float64) {
		for _, x := range vals {
			if x != vals[0] {
				t.Errorf("%s mixes fills %v and %v", what, vals[0], x)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func(g int) { // writer
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fill := valsOf(n, float64(g*1000+i))
				c.Insert(key, fp, "", fill, fill[0])
				fill[0][0] = -1 // the caller's arrays stay the caller's
			}
		}(g)
		go func(g int) { // evictor
			defer wg.Done()
			for i := 0; i < 200; i++ {
				other := Key{Win: uint64(100 + g*1000 + i)}
				c.Insert(other, fpN(uint64(other.Win), 9), "", valsOf(n, 0), make([]float64, n))
			}
		}(g)
		go func() { // reader
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if vals, ok := c.Lookup(key, fp); ok {
					uniform("Lookup", vals[0])
					vals[0][0] = -2
				}
				if base := c.Seed(fp, key.Algo, key.Source); base != nil {
					uniform("Seed", base)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Lookups != 4*200 || st.Hits+st.Misses != st.Lookups || st.Evictions == 0 {
		t.Errorf("stats = %+v, want 800 lookups = hits + misses and some evictions", st)
	}
	if a := c.Close(); !a.OK {
		t.Errorf("audit failed: %s", a.Detail)
	}
}

// TestEvictionUnderBudgetPressure fills the cache to its byte budget,
// touches the oldest entry to make it MRU, and checks the next insert
// evicts the least-recently-used entry — not the refreshed one — while
// the accounting audit stays green throughout.
func TestEvictionUnderBudgetPressure(t *testing.T) {
	// 10 entries of 80 bytes fill an 800-byte budget exactly.
	c := newCache(t, Config{MaxBytes: 800})
	fps := make([]engine.Fingerprint, 11)
	keys := make([]Key, 11)
	for i := range fps {
		fps[i] = fpN(uint64(i), uint64(i))
		keys[i] = Key{Win: uint64(i)}
	}
	for i := 0; i < 10; i++ {
		if !c.Insert(keys[i], fps[i], "", valsOf(10, float64(i)), nil) {
			t.Fatalf("insert %d refused under budget", i)
		}
	}
	// Touch entry 0 so entry 1 is now the LRU victim.
	if _, ok := c.Lookup(keys[0], fps[0]); !ok {
		t.Fatal("warm lookup missed")
	}
	if !c.Insert(keys[10], fps[10], "", valsOf(10, 10), nil) {
		t.Fatal("insert past budget refused instead of evicting")
	}
	st := c.Stats()
	if st.Entries != 10 || st.Bytes != 800 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 10 entries / 800 bytes after 1 eviction", st)
	}
	if _, ok := c.Lookup(keys[1], fps[1]); ok {
		t.Error("LRU entry survived an over-budget insert")
	}
	if _, ok := c.Lookup(keys[0], fps[0]); !ok {
		t.Error("recently-used entry was evicted ahead of the LRU one")
	}
	if a := c.Audit(); !a.OK {
		t.Errorf("audit failed: %s", a.Detail)
	}
}

// TestTenantBudgetEvictsOwnEntriesFirst pins the isolation contract: a
// tenant over its own cap evicts its own LRU entries, never a peer's.
func TestTenantBudgetEvictsOwnEntriesFirst(t *testing.T) {
	c := newCache(t, Config{
		MaxBytes:    1 << 20,
		TenantBytes: map[string]int64{"a": 160},
	})
	for i := 0; i < 2; i++ {
		if !c.Insert(Key{Win: uint64(i)}, fpN(uint64(i), 0), "a", valsOf(10, 1), nil) {
			t.Fatalf("tenant a insert %d refused", i)
		}
	}
	if !c.Insert(Key{Win: 100}, fpN(100, 0), "b", valsOf(10, 2), nil) {
		t.Fatal("tenant b insert refused")
	}
	// Third 80-byte entry for a exceeds its 160-byte cap: a's oldest goes.
	if !c.Insert(Key{Win: 2}, fpN(2, 0), "a", valsOf(10, 1), nil) {
		t.Fatal("tenant a insert past its cap refused instead of evicting")
	}
	if _, ok := c.Lookup(Key{Win: 0}, fpN(0, 0)); ok {
		t.Error("tenant a's LRU entry survived its own over-cap insert")
	}
	if _, ok := c.Lookup(Key{Win: 100}, fpN(100, 0)); !ok {
		t.Error("tenant b's entry was evicted by tenant a's pressure")
	}
	// An entry larger than the tenant cap is refused outright.
	if c.Insert(Key{Win: 3}, fpN(3, 0), "a", valsOf(30, 1), nil) {
		t.Error("oversize-for-tenant insert accepted")
	}
	st := c.Stats()
	if st.Rejected != 1 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 rejection and 1 eviction", st)
	}
	if a := c.Audit(); !a.OK {
		t.Errorf("audit failed: %s", a.Detail)
	}
}

func TestOversizeResultRejected(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 64})
	if c.Insert(Key{Win: 1}, fpN(1, 1), "", valsOf(9, 1), nil) {
		t.Fatal("72-byte result accepted into a 64-byte cache")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 rejection, nothing resident", st)
	}
}

// TestSeedMatching pins the seeding soundness gate: a donor qualifies
// only with the same algorithm and source, an equal CommonGraph digest,
// and a genuinely overlapping batch history.
func TestSeedMatching(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 1 << 20})
	base := []float64{1, 2, 3}
	donor := fpN(1, 777, 10, 20)
	c.Insert(Key{Win: donor.Key(), Algo: 5, Source: 9}, donor, "", valsOf(4, 1), base)

	// Overlapping window: same Common digest, shared one-batch prefix.
	got := c.Seed(fpN(1, 777, 10, 99), 5, 9)
	if got == nil || got[1] != 2 {
		t.Fatalf("Seed over an overlapping window = %v, want the donor base", got)
	}
	got[0] = -1
	if again := c.Seed(fpN(1, 777, 10, 99), 5, 9); again[0] != 1 {
		t.Fatal("mutating a seed corrupted the resident base")
	}

	if c.Seed(fpN(1, 778, 10, 20), 5, 9) != nil {
		t.Error("Seed matched across different CommonGraph digests")
	}
	if c.Seed(fpN(1, 777, 10, 20), 5, 8) != nil {
		t.Error("Seed matched across different sources")
	}
	if c.Seed(fpN(1, 777, 10, 20), 6, 9) != nil {
		t.Error("Seed matched across different algorithms")
	}
	if c.Seed(fpN(1, 777, 99, 98), 5, 9) != nil {
		t.Error("Seed matched windows with no shared batch prefix")
	}
	if st := c.Stats(); st.SeedHits != 2 {
		t.Errorf("SeedHits = %d, want 2", st.SeedHits)
	}
}

func TestSeedIgnoresBaselessEntries(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 1 << 20})
	fp := fpN(1, 5, 1)
	c.Insert(Key{Win: fp.Key(), Algo: 1, Source: 1}, fp, "", valsOf(2, 1), nil)
	if c.Seed(fpN(1, 5, 1, 2), 1, 1) != nil {
		t.Error("Seed returned material from an entry with no retained base")
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 1 << 20})
	fp := fpN(3, 4, 5)
	other := fpN(9, 9)
	c.Insert(Key{Win: fp.Key(), Algo: 1}, fp, "", valsOf(2, 1), nil)
	c.Insert(Key{Win: fp.Key(), Algo: 2}, fp, "", valsOf(2, 1), nil)
	c.Insert(Key{Win: other.Key()}, other, "", valsOf(2, 1), nil)
	if n := c.Invalidate(fp); n != 2 {
		t.Fatalf("Invalidate = %d, want 2", n)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Invalidated != 2 {
		t.Errorf("stats = %+v, want 1 survivor, 2 invalidated", st)
	}
	if a := c.Audit(); !a.OK {
		t.Errorf("audit failed: %s", a.Detail)
	}
}

// TestCloseInvalidatesAndAudits pins the service-shutdown contract:
// Close purges every entry, passes the final accounting audit, and a
// closed cache misses every lookup and refuses every insert.
func TestCloseInvalidatesAndAudits(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 1 << 20})
	fp := fpN(1, 2, 3)
	key := Key{Win: fp.Key()}
	c.Insert(key, fp, "t", valsOf(4, 1), []float64{9})
	audit := c.Close()
	if !audit.OK {
		t.Fatalf("Close audit failed: %s", audit.Detail)
	}
	if audit.Name != "cache.accounting" {
		t.Errorf("audit name = %q", audit.Name)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidated != 1 {
		t.Errorf("post-close stats = %+v, want empty with 1 invalidation", st)
	}
	if _, ok := c.Lookup(key, fp); ok {
		t.Error("closed cache served a hit")
	}
	if c.Insert(key, fp, "t", valsOf(4, 1), nil) {
		t.Error("closed cache accepted an insert")
	}
	if c.Seed(fp, 0, 0) != nil {
		t.Error("closed cache donated a seed")
	}
	if again := c.Close(); !again.OK {
		t.Errorf("second Close audit failed: %s", again.Detail)
	}
}

// TestReinsertRefreshesInPlace checks re-inserting a key replaces the
// entry without double-counting its bytes.
func TestReinsertRefreshesInPlace(t *testing.T) {
	c := newCache(t, Config{MaxBytes: 1 << 20})
	fp := fpN(1, 2)
	key := Key{Win: fp.Key()}
	c.Insert(key, fp, "", valsOf(4, 1), nil)
	c.Insert(key, fp, "", valsOf(8, 2), nil)
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 64 {
		t.Errorf("stats = %+v, want one 64-byte entry after refresh", st)
	}
	if vals, ok := c.Lookup(key, fp); !ok || vals[0][0] != 2 {
		t.Errorf("Lookup = %v, %v; want the refreshed values", vals, ok)
	}
	if a := c.Audit(); !a.OK {
		t.Errorf("audit failed: %s", a.Detail)
	}
}

// TestFingerprintMemo checks window fingerprints are computed once per
// window identity and agree with the engine's direct computation.
func TestFingerprintMemo(t *testing.T) {
	initial := graph.EdgeList{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}}.Normalize()
	w, err := evolve.NewWindowFromParts(3, 2,
		initial, []graph.EdgeList{{{Src: 2, Dst: 0, Weight: 1}}}, []graph.EdgeList{nil})
	if err != nil {
		t.Fatal(err)
	}
	c := newCache(t, Config{MaxBytes: 1 << 20})
	fp1, err := c.Fingerprint(w)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := c.Fingerprint(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.FingerprintBOE(w)
	if err != nil {
		t.Fatal(err)
	}
	if !fp1.Equal(want) || !fp2.Equal(want) {
		t.Errorf("memoized fingerprints %+v / %+v disagree with engine %+v", fp1, fp2, want)
	}
}
