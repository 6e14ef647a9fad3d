# Developer entry points. `make ci` is the full gate: vet, build, the
# race-enabled test suite, and a short run of every fuzz target.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build bench-build test vet fmt race fuzz audit chaos crash soak serve-soak bench-smoke bench-engine ci

all: build

build:
	$(GO) build ./...

# The benchmark harness is its own module compiled against this one's
# internal packages; `./...` does not reach it.
bench-build:
	cd benchmark && $(GO) vet . && $(GO) build -o /dev/null .

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each fuzz target needs its own `go test -fuzz` invocation (the tool
# fuzzes one target per run).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLoadEdgeList -fuzztime=$(FUZZTIME) ./internal/gen/
	$(GO) test -run='^$$' -fuzz=FuzzNewWindowFromParts -fuzztime=$(FUZZTIME) ./internal/evolve/
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -run='^$$' -fuzz=FuzzParseTenantSpec -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzManifestDecode -fuzztime=$(FUZZTIME) ./internal/ckptstore/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQueryResponse -fuzztime=$(FUZZTIME) ./internal/httpfront/

# Invariant-audit sweep: every audit-tagged test (conservation laws,
# stale-size regressions, attribution properties) across the layers that
# record audits, with strict mode forced on.
audit:
	MEGA_AUDIT=1 $(GO) test -race -run 'Audit|Attribution|StatsMatchMetrics|Conservation' \
		./internal/metrics/ ./internal/engine/ ./internal/sim/ ./internal/uarch/

# Crash-equivalence chaos sweep: kill the run at every round boundary,
# resume from the last checkpoint, and demand bit-identical results, for
# all three schedule modes, under the race detector.
# Audits run strict inside the sweep (MEGA_CHAOS implies strict mode),
# so every resumed run also re-proves the conservation laws.
chaos:
	MEGA_CHAOS=full $(GO) test -race -run 'CrashEquivalence|Audit|Attribution' \
		./internal/engine/ ./internal/sim/ ./internal/uarch/

# Disk-fault chaos: the durable checkpoint store under injected crashes
# and disk faults — a process "dies" at every store.write / store.rename
# protocol boundary and restarts against the same state directory, with
# resumed results bit-identical to an uninterrupted run; segments are
# torn (truncated and bit-flipped) at every byte offset and must be
# quarantined with the previous generation served instead; and the query
# service restarts over a crashed predecessor's state dir and re-admits
# its orphans. MEGA_CHAOS widens the sweep to every boundary and forces
# the store's Close-time accounting audit strict.
crash:
	MEGA_CHAOS=full $(GO) test -race -run 'Durable|ServeRecoverOrphans|TornSegment|CrashResidue|Quarantine' \
		. ./internal/ckptstore/

# Query-service soak: hundreds of concurrent mixed-priority queries with
# injected transients, panics, and latency spikes, under the race
# detector. MEGA_CHAOS scales the query count up and forces strict audits,
# so the Close-time accounting conservation law — per tenant and in
# aggregate — fails loudly. Includes the tenant-isolation soak: one
# tenant floods with chaos queries while the well-behaved tenant must
# keep its goodput.
soak:
	MEGA_CHAOS=soak $(GO) test -race -run 'QueryService|Serve|Tenant' . ./internal/serve/

# HTTP front-end soak: the same chaos classes driven over loopback HTTP —
# concurrent queries through megaserve's handler stack with injected
# faults and a graceful drain fired mid-flight, under the race detector.
# Asserts no request is lost, results stay bit-identical, accounting is
# conserved, and shutdown leaks no goroutines.
serve-soak:
	MEGA_CHAOS=soak $(GO) test -race -run 'HTTPFront' .
	MEGA_CHAOS=soak $(GO) test -race ./internal/httpfront/

# Compile and execute every benchmark for a single iteration — catches
# benchmarks that no longer build or crash, without measuring anything.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Regenerate BENCH_engine.txt: the perf record of the engine that is
# served, priced at each seam a query crosses. Plain `go test -bench`
# output (benchstat reads it; the goos/goarch/cpu header plus the first
# line is the host stamp), two procs so numbers compare across hosts.
bench-engine:
	{ echo "# $$($(GO) version) GOMAXPROCS=2 num_cpu=$$(getconf _NPROCESSORS_ONLN)"; \
	  $(GO) test -run '^$$' -bench '^BenchmarkLayer(NewMulti|EvaluateContext|EvaluateContextWen|BaseSolveWen|EvaluateRecover|SubmitMiss|SubmitHit)$$' \
		-benchmem -count 5 -cpu 2 . ; } > BENCH_engine.txt

ci: fmt vet build bench-build race bench-smoke audit chaos crash soak serve-soak fuzz
