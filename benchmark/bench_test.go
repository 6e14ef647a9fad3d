package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"mega"
)

// --- percentiles, medians, spreads ---

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("percentile sorts a copy: got %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	// p90 of n samples leaves n − ceil(0.9 n) beyond it.
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		steady bool
	}{
		{100, 90, 10, true},
		{99, 90, 9, false},
		{57, 90, 5, false}, // one 5 s round of cold-wen
		{172, 90, 17, true},
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{0, 90, 0, false},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := percentileSteady(c.n, c.p); got != c.steady {
			t.Errorf("percentileSteady(%d, %v) = %v, want %v", c.n, c.p, got, c.steady)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	// One noisy round out of three must not move a median-of-rounds number.
	if got := median([]float64{165, 132, 167}); got != 165 {
		t.Errorf("median of three rounds = %v, want 165", got)
	}
	if got := mean([]float64{165, 132, 168}); got != 155 {
		t.Errorf("mean of three rounds = %v, want 155", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := spread([]float64{165, 132, 167}); math.Abs(got-35.0/165) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 35.0/165)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
}

func TestSelfTimeReportsNegative(t *testing.T) {
	out := newLadderOut()
	out.self("recover.self_ms", 3.0, 3.5)
	out.self("recover.self_ms", 9.0, 3.0)
	if got := out.vals["recover.self_ms"]; len(got) != 2 || got[0] != -0.5 {
		t.Errorf("ladder kept %v, want the negative difference", got)
	}
	if notes := out.notes(); len(notes) != 1 || !strings.Contains(notes[0], "negative for 1 of 2") {
		t.Errorf("ladder notes = %v, want one note counting the negative self time", notes)
	}
}

// --- query sequence ---

func testSources(n int) []mega.VertexID {
	out := make([]mega.VertexID, n)
	for i := range out {
		out[i] = mega.VertexID(3 * i)
	}
	return out
}

func allKeys(s keySeq) []key {
	out := make([]key, s.Len())
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

func TestKeySequenceSeeded(t *testing.T) {
	src := testSources(101) // odd on purpose: laps must still not collide
	a, b, c := allKeys(newKeySeq(src, 1)), allKeys(newKeySeq(src, 1)), allKeys(newKeySeq(src, 2))
	if len(a) != 4*len(src) {
		t.Fatalf("sequence holds %d keys, want %d", len(a), 4*len(src))
	}
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same {
		t.Error("the same seed gave two different sequences")
	}
	if !differ {
		t.Error("two seeds gave the same sequence")
	}
	seen := map[key]bool{}
	for _, k := range a {
		if seen[k] {
			t.Fatalf("key %v repeats within one sequence", k)
		}
		seen[k] = true
	}
}

func TestColdPlansNeverRepeat(t *testing.T) {
	seq := newKeySeq(testSources(100), 5)
	const refs = 32
	seenAcross := map[key]int{}
	for r := 0; r < rounds; r++ {
		plan := newColdPlan(seq, refs, r, rounds)
		seen := map[key]bool{}
		for i := 0; i < warmupKeys; i++ {
			seen[plan.Warmup(i)] = true
		}
		if len(seen) != warmupKeys {
			t.Fatalf("round %d: warm-up keys repeat", r)
		}
		n := 0
		for i := 0; ; i++ {
			k, ok := plan.Measured(i)
			if !ok {
				break
			}
			if seen[k] {
				t.Fatalf("round %d: key %v is sent twice to one server", r, k)
			}
			seen[k] = true
			if i >= refs {
				seenAcross[k]++
			}
			n++
		}
		if n < refs+100 {
			t.Fatalf("round %d: only %d measured keys", r, n)
		}
		if k, _ := plan.Measured(0); k != seq.At(0) {
			t.Errorf("round %d does not start with the reference keys", r)
		}
	}
	for k, n := range seenAcross {
		if n > 1 {
			t.Fatalf("key %v is in %d rounds' blocks", k, n)
		}
	}
}

func TestHotKeysComeFromTheWarmedSet(t *testing.T) {
	seq := newKeySeq(testSources(50), 9)
	hot := seq.Hot()
	if len(hot) != 24 {
		t.Fatalf("%d hot keys, want 24", len(hot))
	}
	warmed := map[key]bool{}
	for _, k := range hot {
		warmed[k] = true
	}
	if len(warmed) != 24 {
		t.Fatal("hot keys repeat")
	}
	next := hotSource(hot, 9, 1, 2)
	drawn := map[key]bool{}
	for i := 0; i < 2000; i++ {
		k, ok := next(i % 2)
		if !ok || !warmed[k] {
			t.Fatalf("drew %v, which set-up never warmed", k)
		}
		drawn[k] = true
	}
	if len(drawn) != 24 {
		t.Errorf("2000 uniform draws touched %d of 24 keys", len(drawn))
	}
	again := hotSource(hot, 9, 1, 2)
	fresh := hotSource(hot, 9, 1, 2)
	for i := 0; i < 50; i++ {
		a, _ := again(0)
		b, _ := fresh(0)
		if a != b {
			t.Fatal("the same seed drew two different hot sequences")
		}
	}
}

func TestListSourceEnds(t *testing.T) {
	next := listSource([]key{{Source: 1}, {Source: 2}})
	for i := 0; i < 2; i++ {
		if _, ok := next(0); !ok {
			t.Fatalf("list ended after %d keys", i)
		}
	}
	if _, ok := next(0); ok {
		t.Error("list handed out a third key")
	}
}

// --- verifier ---

func TestVerifierRejectsFlippedBitAndShortSnapshot(t *testing.T) {
	k := key{Algo: mega.SSSP, Source: 3}
	ref := [][]float64{{0, 1.5, math.Inf(1)}, {0, 1.25, 7}}
	v := &verifier{snapshots: 2, vertices: 3, refs: map[key][][]float64{k: ref}}
	clone := func() [][]float64 {
		out := make([][]float64, len(ref))
		for i := range ref {
			out[i] = append([]float64(nil), ref[i]...)
		}
		return out
	}

	if bitwise, err := v.check(k, clone()); err != nil || !bitwise {
		t.Fatalf("identical values: bitwise=%v err=%v", bitwise, err)
	}
	flipped := clone()
	flipped[1][1] = math.Float64frombits(math.Float64bits(flipped[1][1]) ^ 1)
	if _, err := v.check(k, flipped); err == nil {
		t.Error("a single flipped mantissa bit passed")
	}
	negZero := clone()
	negZero[0][0] = math.Copysign(0, -1)
	if _, err := v.check(k, negZero); err == nil {
		t.Error("-0 passed for +0: the comparison is not bitwise")
	}
	short := clone()
	short[1] = short[1][:2]
	if _, err := v.check(k, short); err == nil {
		t.Error("a short snapshot passed")
	}
	if _, err := v.check(k, clone()[:1]); err == nil {
		t.Error("a missing snapshot passed")
	}
	// A key without a reference is shape-checked only.
	other := key{Algo: mega.BFS, Source: 4}
	if bitwise, err := v.check(other, flipped); err != nil || bitwise {
		t.Errorf("unreferenced key: bitwise=%v err=%v, want shape check only", bitwise, err)
	}
	if _, err := v.check(other, short); err == nil {
		t.Error("a short snapshot passed on an unreferenced key")
	}
}

// --- compare ---

func gatedRuns(wl, metric string, vals ...float64) []runResult {
	var out []runResult
	for _, v := range vals {
		out = append(out, runResult{Workload: wl, Trace: 0, Metrics: map[string]metricValue{metric: {Value: v}}})
	}
	return out
}

func TestCompareFlagsDropBeyondBound(t *testing.T) {
	// The rule itself, at a 10% bound: a 12% drop is worse, a 5% one is not.
	qps := metricSpec{Name: "qps", Unit: "queries/s", Better: "higher", Bound: 0.10}
	base := []float64{99, 100, 101}
	for _, c := range []struct {
		why  string
		b    []float64
		want string
	}{
		{"a 12% qps drop", []float64{87, 88, 89}, "worse"},
		{"a 5% qps drop", []float64{94, 95, 96}, "ok"},
		{"equal medians with a 40% spread", []float64{80, 100, 120}, "unresolved"},
		{"every run better than every base run, despite its spread", []float64{130, 150, 170}, "ok"},
	} {
		if got := judge(qps, base, c.b).Verdict; got != c.want {
			t.Errorf("%s is %q, want %q", c.why, got, c.want)
		}
	}
	// Lower-is-better metrics worsen upwards; the ratio's base is A.
	p50 := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	if c := judge(p50, []float64{2.0, 2.0, 2.0}, []float64{2.3, 2.3, 2.3}); c.Verdict != "worse" || math.Abs(c.Ratio-1.15) > 1e-9 {
		t.Errorf("p50 +15%%: verdict %q ratio %v", c.Verdict, c.Ratio)
	}

	// Through the files' records, with the spec's own bound.
	bound, _ := findMetric(endToEnd, "qps")
	a := gatedRuns("cold-pk", "qps", 99, 100, 101)
	within := 100 * (1 - bound.Bound/2)
	beyond := 100 * (1 - bound.Bound*1.2)
	if cs := compareRuns(a, gatedRuns("cold-pk", "qps", within, within, within)); len(cs) != 1 || cs[0].Verdict != "ok" || cs[0].Workload != "cold-pk" {
		t.Errorf("a drop of half the bound: %+v", cs)
	}
	if cs := compareRuns(a, gatedRuns("cold-pk", "qps", beyond, beyond, beyond)); len(cs) != 1 || cs[0].Verdict != "worse" {
		t.Errorf("a drop of 1.2x the bound: %+v", cs)
	}
	// Traced runs and other workloads never leak into a comparison.
	mixed := append(gatedRuns("cold-pk", "qps", 100), runResult{Workload: "cold-pk", Trace: 1, Metrics: map[string]metricValue{"qps": {Value: 1}}})
	mixed = append(mixed, gatedRuns("hot-pk", "qps", 1)...)
	if cs := compareRuns(a, mixed); len(cs) != 1 || cs[0].NB != 1 {
		t.Errorf("a traced or foreign run was counted: %+v", cs)
	}
}

func TestExactCountsMustRepeat(t *testing.T) {
	run := func(events float64) runResult {
		return runResult{Workload: "cold-pk", Trace: 1, Host: hostBlock{Seed: 1},
			Metrics: map[string]metricValue{"engine.multi_events": {Value: events}}}
	}
	if m := exactMismatches([]runResult{run(4480), run(4480)}); len(m) != 0 {
		t.Errorf("identical counts reported: %v", m)
	}
	if m := exactMismatches([]runResult{run(4480), run(4481), run(4482)}); len(m) != 1 {
		t.Errorf("mismatch reports = %v, want exactly one", m)
	}
	other := run(9)
	other.Host.Seed = 2
	if m := exactMismatches([]runResult{run(4480), other}); len(m) != 0 {
		t.Errorf("different seeds may differ, got %v", m)
	}
}

// --- /proc parsing ---

func TestParseProc(t *testing.T) {
	status := "Name:\tmegaserve\nVmPeak:\t 1234 kB\nVmHWM:\t  215040 kB\nVmRSS:\t 100 kB\n"
	if mb, err := parseVmHWM(status); err != nil || mb != 215.04 {
		t.Errorf("parseVmHWM = %v, %v; want 215.04", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("missing VmHWM passed")
	}
	// comm may hold spaces and parentheses; utime=250 stime=50 ticks.
	stat := "4242 (mega (serve) x) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 5 0 100 1000 200"
	if s, err := parseCPUSeconds(stat); err != nil || s != 3.0 {
		t.Errorf("parseCPUSeconds = %v, %v; want 3.0", s, err)
	}
	if _, err := parseCPUSeconds("1 (x) S 1"); err == nil {
		t.Error("short stat line passed")
	}
}

// --- host-speed calibration ---

func TestSpeedFactor(t *testing.T) {
	if f := speedFactor(calRef); f != 1 {
		t.Errorf("speedFactor at the reference speed = %v, want 1", f)
	}
	// A host 10 % faster than the reference serves more than 10 % faster.
	if f := speedFactor(1.1 * calRef); f <= 1.1 || f >= 1.1*1.1 {
		t.Errorf("speedFactor(1.1 x reference) = %v, want between 1.1 and 1.21", f)
	}
	if a, b := speedFactor(0.8*calRef), speedFactor(1.25*calRef); math.Abs(a*b-1) > 1e-12 {
		t.Errorf("speedFactor is not a power law: f(0.8)·f(1.25) = %v", a*b)
	}
	k := newCalKernel(1)
	if a, b := k.unit(), newCalKernel(1).unit(); a != b {
		t.Errorf("the calibration kernel is not deterministic: %d and %d", a, b)
	}
}

// --- server environment ---

func TestServerEnvDropsOnlyTheLazyFreeSetting(t *testing.T) {
	godebug := func(env []string) (string, bool) {
		for _, kv := range env {
			if v, ok := strings.CutPrefix(kv, "GODEBUG="); ok {
				return v, true
			}
		}
		return "", false
	}
	for _, c := range []struct {
		set, want string
		present   bool
	}{
		{lazyFree, "", false},
		{"gctrace=1," + lazyFree, "gctrace=1", true},
		{"gctrace=1", "gctrace=1", true},
	} {
		t.Setenv("GODEBUG", c.set)
		if got, ok := godebug(serverEnv()); got != c.want || ok != c.present {
			t.Errorf("GODEBUG=%q: the server gets %q (present %v), want %q (present %v)", c.set, got, ok, c.want, c.present)
		}
	}
}

// --- ladder helpers ---

func TestStableBodyBytesIgnoresVaryingFields(t *testing.T) {
	a := []byte(`{"snapshots":2,"values_b64":["AAAA","BBBB"],"report":{"run_time":"1.2ms"},"request_id":"r-1"}`)
	b := []byte(`{"snapshots":2,"values_b64":["AAAA","BBBB"],"report":{"run_time":"11.25ms"},"request_id":"r-1000"}`)
	if stableBodyBytes(a) != stableBodyBytes(b) {
		t.Errorf("sizes %d and %d differ though only the report and request ID do", stableBodyBytes(a), stableBodyBytes(b))
	}
	if got := stableBodyBytes([]byte("not json")); got != 8 {
		t.Errorf("non-JSON body sized %d, want its length 8", got)
	}
}

// --- the spec and BENCHMARK.json say the same thing ---

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecObeysTheContract(t *testing.T) {
	gated := 0
	for _, w := range workloads {
		if w.Gated {
			gated++
		}
	}
	if gated < 2 || gated > 8 {
		t.Errorf("%d gated workloads", gated)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	used := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is outside the contract", s)
		}
		if used[s] {
			t.Errorf("name %q is used twice", s)
		}
		used[s] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end metric and workload it should move", m.Name)
		}
	}
	for _, e := range exactCounts {
		if _, ok := findMetric(perLayer, e); !ok {
			t.Errorf("exact count %s is not a per-layer metric", e)
		}
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no ../BENCHMARK.json beside the benchmark directory")
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds != runSeconds || runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds = %d, spec.go says %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Command) != 2 || doc.Command[0] != "bash" || doc.Command[1] != "benchmark/run.sh" {
		t.Errorf("command = %v", doc.Command)
	}
	var gated []workload
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in spec.go", len(doc.Workloads), len(gated))
	}
	for i, w := range gated {
		if got := doc.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec.go %q / %q", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
	match := func(kind string, got []jm, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound differs from spec.go's %v", kind, m.Name, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEnd, true)
	match("per_layer", doc.PerLayer, perLayer, false)
}
