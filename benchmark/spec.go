package main

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics with the end-to-end metric and
// workload each should move. BENCHMARK.json at the repo root restates the
// first three lists for the driver; bench_test.go keeps the two in step.

type workload struct {
	Name    string
	Graph   string // megaserve -graph
	Hot     bool   // draw from the 24 warmed keys instead of the cold sequence
	Durable bool   // add -state-dir <fresh dir>
	// Gated workloads are the ones BENCHMARK.json hands the driver; the
	// others run on request only (README: why durable-pk is not a gate).
	Gated bool
	// Refs is how many leading keys of the cold sequence get reference
	// values from mega.EvaluateContext: bit-verified whenever a server
	// answers them, and the keys the traced ladder climbs.
	Refs int
	Why  string
}

var workloads = []workload{
	{Name: "hot-pk", Graph: "PK", Hot: true, Gated: true, Refs: 32,
		Why: "24 warmed keys drawn uniformly: every request is a cache hit, so qcache copy-out, the 546 KB httpfront encode, loopback and client decode do all the work; engine, recover and ckptstore do none"},
	{Name: "cold-pk", Graph: "PK", Gated: true, Refs: 32,
		Why: "every key requested once: each request is a miss + insert (evicting after ~160), so engine + recover wrapper dominate and qcache is used on its write side, the side hot-pk does not touch"},
	{Name: "durable-pk", Graph: "PK", Durable: true, Refs: 32,
		Why: "the cold-pk sequence with -state-dir: identical work plus ckptstore's fsync publishes on the critical path; the only workload that should move for store changes"},
	{Name: "cold-wen", Graph: "Wen", Gated: true, Refs: 4,
		Why: "cold sequence at paper-stand-in scale (26,624 v / 800K e, 4.5 MB responses): barrier, checkpoint-encode and wire costs that vanish at PK scale show here, and setup_s is large enough to measure"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// notCovered is printed with every result: what this benchmark does not
// measure, on purpose.
var notCovered = []string{
	"overload/shed: needs more outstanding requests than nproc closed-loop connections hold (serve.shed is reported and expected 0)",
	"multi-tenant fairness: single default tenant; stays with the tenant soak tests",
	"multi-source batching: needs queued same-window queries (serve.batched is reported and expected 0)",
	"fail_share as a gated metric: it is 0 on every workload, so it is carried by attempted/failed/correct and loadgen.fail_share instead",
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	// Moves (per-layer only) names the end-to-end metric and workload the
	// layer metric should move; "exact" marks counts that must repeat
	// bit-for-bit for a fixed seed.
	Moves string
}

var endToEnd = []metricSpec{
	// Bounds follow the rule "the larger of the issue's value (0.10, 0.10,
	// 0.15, 0.10) and twice the spread observed between identical runs",
	// capped at the contract's 0.25; README, "Measured steadiness".
	{Name: "qps", Unit: "queries/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesSetup  = "setup_s on cold-wen"
	movesCold   = "p50_ms/qps on cold-pk, cold-wen; none on hot-pk"
	movesStore  = "p50_ms/qps on durable-pk only"
	movesHot    = "p50_ms/qps on hot-pk"
	movesWire   = "p50_ms/qps on hot-pk, p90_ms on cold-wen"
	movesNone   = "no end-to-end metric"
	movesCounts = "accounting; shed, batched, failed expected 0"
)

var perLayer = []metricSpec{
	{Name: "gen.evolve_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "evolve.window_ms", Unit: "ms", Better: "lower", Moves: movesSetup},
	{Name: "engine.fingerprint_ms", Unit: "ms", Better: "lower", Moves: movesSetup},

	{Name: "engine.multi_ms", Unit: "ms", Better: "lower", Moves: movesCold},
	{Name: "engine.multi_alloc_kb", Unit: "KB", Better: "lower", Moves: "rss_mb on cold-*"},
	{Name: "engine.multi_events", Unit: "count", Better: "lower", Moves: movesCold + " (exact)"},
	{Name: "engine.par1_ms", Unit: "ms", Better: "lower", Moves: "nothing today (default engine is seq); ROADMAP item 3's ledger"},
	{Name: "engine.parN_ms", Unit: "ms", Better: "lower", Moves: "nothing today; ROADMAP item 3's ledger"},
	{Name: "engine.par1_events", Unit: "count", Better: "lower", Moves: "nothing today; counted in the timed run"},
	{Name: "engine.parN_events", Unit: "count", Better: "lower", Moves: "nothing today; counted in the timed run"},
	{Name: "engine.ckpt_encode_ms", Unit: "ms", Better: "lower", Moves: "p50_ms on cold-*, durable-pk"},
	{Name: "engine.ckpt_kb", Unit: "KB", Better: "lower", Moves: "p50_ms on cold-*, durable-pk"},
	{Name: "engine.restore_ms", Unit: "ms", Better: "lower", Moves: "none in steady state (resume path)"},

	{Name: "recover.self_ms", Unit: "ms", Better: "lower", Moves: movesCold},
	{Name: "recover.alloc_kb", Unit: "KB", Better: "lower", Moves: "rss_mb/qps on cold-pk, cold-wen"},
	{Name: "recover.checkpoints", Unit: "count", Better: "lower", Moves: movesCold + " (exact)"},
	{Name: "recover.ckpt_kb", Unit: "KB", Better: "lower", Moves: movesCold + " (exact)"},

	{Name: "ckptstore.write_ms", Unit: "ms", Better: "lower", Moves: movesStore},
	{Name: "ckptstore.write_kb", Unit: "KB", Better: "lower", Moves: movesStore},
	{Name: "ckptstore.load_ms", Unit: "ms", Better: "lower", Moves: "none in steady state (resume path)"},
	{Name: "ckptstore.delete_ms", Unit: "ms", Better: "lower", Moves: movesStore},
	{Name: "ckptstore.self_ms", Unit: "ms", Better: "lower", Moves: movesStore},
	{Name: "ckptstore.disk_kb_per_query", Unit: "KB", Better: "lower", Moves: movesStore},

	{Name: "qcache.lookup_hit_us", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "qcache.insert_us", Unit: "us", Better: "lower", Moves: "p50_ms/qps on cold-pk"},
	{Name: "qcache.hit_share", Unit: "share", Better: "higher", Moves: "1 on hot-pk, 0 on cold-*"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower", Moves: "> 0 on cold-pk, cold-wen; 0 on hot-pk"},

	{Name: "serve.miss_self_ms", Unit: "ms", Better: "lower", Moves: "p50_ms on cold-pk"},
	{Name: "serve.hit_us", Unit: "us", Better: "lower", Moves: movesHot},
	{Name: "serve.hit_alloc_kb", Unit: "KB", Better: "lower", Moves: "qps/rss_mb on hot-pk"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "~0 while clients <= capacity"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", Moves: "p50_ms on cold-*"},
	{Name: "serve.admitted", Unit: "count", Better: "higher", Moves: movesCounts},
	{Name: "serve.engine_runs", Unit: "count", Better: "lower", Moves: movesCounts},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Moves: movesCounts},
	{Name: "serve.coalesced", Unit: "count", Better: "higher", Moves: movesCounts},
	{Name: "serve.batched", Unit: "count", Better: "higher", Moves: movesCounts},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: movesCounts},
	{Name: "serve.failed", Unit: "count", Better: "lower", Moves: movesCounts},

	{Name: "httpfront.handler_self_ms", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "httpfront.alloc_kb", Unit: "KB", Better: "lower", Moves: movesWire},
	{Name: "httpfront.resp_kb", Unit: "KB", Better: "lower", Moves: movesWire + " (exact)"},
	{Name: "httpfront.client_self_ms", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "http.wait_ms", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "http.transfer_ms", Unit: "ms", Better: "lower", Moves: movesWire},
	{Name: "http.decode_ms", Unit: "ms", Better: "lower", Moves: movesWire},

	{Name: "megaserve.cpu_ms_per_query", Unit: "ms", Better: "lower", Moves: "qps everywhere"},

	{Name: "sim.boe_cycles", Unit: "count", Better: "lower", Moves: movesNone + " (exact: the paper oracle must not move)"},
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: movesNone + " (exact)"},
	{Name: "uarch.boe_cycles", Unit: "count", Better: "lower", Moves: movesNone + " (exact)"},
	{Name: "sim.host_ms", Unit: "ms", Better: "lower", Moves: movesNone + "; host time of the simulators"},
	{Name: "uarch.host_ms", Unit: "ms", Better: "lower", Moves: movesNone + "; host time of the simulators"},

	{Name: "loadgen.p99_ms", Unit: "ms", Better: "lower", Moves: "recorded, not gated (20-33 ms over identical runs)"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher", Moves: "sample count behind the traced run's percentiles"},
	{Name: "loadgen.fail_share", Unit: "share", Better: "lower", Moves: "must stay 0"},
	{Name: "loadgen.round_spread_qps", Unit: "share", Better: "lower", Moves: "disagreement of the two untraced rounds"},
	{Name: "loadgen.round_spread_p50", Unit: "share", Better: "lower", Moves: "disagreement of the two untraced rounds"},
	{Name: "loadgen.round_spread_p90", Unit: "share", Better: "lower", Moves: "disagreement of the two untraced rounds"},
	{Name: "loadgen.trace_overhead_share", Unit: "share", Better: "lower", Moves: "1 - traced q/s / untraced q/s"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower", Moves: "go build of cmd/megaserve; excluded from setup_s"},
	{Name: "loadgen.host_speed", Unit: "units/s", Better: "higher", Moves: "the host, not the code: calibration kernel speed around the rounds"},
}

// exactCounts must be identical on every run of one commit with one seed.
var exactCounts = []string{
	"engine.multi_events", "recover.checkpoints", "recover.ckpt_kb",
	"httpfront.resp_kb", "sim.boe_cycles", "sim.events", "uarch.boe_cycles",
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver lets
// one run measure.
const runSeconds = 24
