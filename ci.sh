#!/bin/sh
# CI gate: vet, build, race-enabled tests, then a short fuzz pass over
# every fuzz target. FUZZTIME (default 30s) scales the fuzz budget.
set -eux

FUZZTIME="${FUZZTIME:-30s}"

# Formatting gate: the tree must be gofmt-clean.
fmt_dirty="$(gofmt -l .)"
if [ -n "$fmt_dirty" ]; then
	echo "gofmt needed:" >&2
	echo "$fmt_dirty" >&2
	exit 1
fi
go vet ./...
# 32-bit targets compile: a constant or comparison that overflows a
# 32-bit int is a vet error there and invisible on amd64.
GOARCH=386 go vet ./...
go build ./...
# The benchmark harness is its own module (benchmark/go.mod, replace => ../)
# and compiles against internal packages, so `./...` above never sees it:
# removing an API it uses is green here and fails every workload at
# `go build` in the pipeline. Build it too.
(cd benchmark && go vet . && go build -o /dev/null .)
# Building it is not running it: a change can compile and still fail a
# workload's bit check or a ladder rung. Run each workload briefly, the
# cold-pk run traced so the ladder verifies every rung's values; the last
# line of each run must say the answers were correct.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
for run in 'hot-pk 0' 'cold-pk 1' 'cold-wen 0'; do
	set -- $run
	bash benchmark/run.sh --workload "$1" --seed 1 --seconds 6 --trace "$2" >"$tmpdir/bench.out"
	tail -n 1 "$tmpdir/bench.out" | grep -q '"correct":true'
done
# One engine: the names internal/engine/benchcompat.go keeps alive are for
# that frozen harness alone. Nothing else may grow a dependency on them.
if grep -rn --include='*.go' -e 'NewParallel' -e 'engine\.Parallel' . |
	grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' -e '^\./internal/engine/benchcompat\.go:'; then
	echo "engine.Parallel / NewParallel used outside benchmark/ (see benchcompat.go)" >&2
	exit 1
fi
# Size of the thing being maintained, in every log: non-test Go lines
# outside the benchmark's own module, split as ROADMAP's table does into
# the reproduction (the oracle: not a rewrite target) and the product.
count_lines() {
	find "$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		-exec cat {} + | wc -l | tr -d ' '
}
total="$(count_lines .)"
repro="$(count_lines internal/sim internal/uarch internal/bench internal/swcost internal/power cmd/megabench cmd/megagen)"
echo "non-test Go lines: $total (product $((total - repro)), reproduction-only $repro)"
# Inlining guard: the served engine loops call ops.better and ops.edge
# once per edge relaxation, and their speed over the algo.Algorithm
# interface is that both inline. An edit that pushes either over the
# inliner's budget loses it silently; this does not.
[ "$(go build -gcflags=-m ./internal/engine 2>&1 |
	grep -c -E 'can inline ops\.(better|edge)$')" = 2 ]
# Tier-1 on one core and oversubscribed: the service's goroutines
# interleave differently at each, and both multicore bugs fixed so far
# reproduce this way on any host. -count=1: GOMAXPROCS is not part of the
# test cache key, so without it the second run is the first one's cache.
GOMAXPROCS=1 go test -count=1 ./...
GOMAXPROCS=4 go test -count=1 ./...
# -shuffle=on randomizes test order so inter-test state dependencies
# (shared registries, leaked globals) fail loudly instead of by luck.
go test -race -shuffle=on ./...
# Benchmark smoke: one iteration of every benchmark, so a broken or
# crashing benchmark fails CI even though nothing is being measured.
go test -bench=. -benchtime=1x -run='^$' ./...
# Two-loop gate: a Stats-probed run is the engine's instrumented loop,
# whose seeds are the hardware's (one event per batch edge and context,
# discarded at the PEs) and whose counts EXPERIMENTS.md rests on; a served
# query (no probe, built-in algorithm) runs the other loop, which drops
# non-improving seeds at generation. This pins the probed count (28,217 on
# the smoke workload) and proves the two loops agree bit for bit on
# generated windows, past 64 contexts, and across a mid-run checkpoint
# handed from one to the other.
go test -count=1 -run '^TestSeedFilterEquivalence$' ./internal/engine/
# Settle-once gate: the served base solve is best-first, and what it buys
# is a count, not a time — it expands each vertex that gets a value once
# and scans each of its out-edges once (26,595 pops and 739,894 scans from
# the Wen' hub, where the round-synchronous loop scanned 1.74 M), for all
# six built-ins, to the bits of the Bellman-Ford reference.
go test -count=1 -run '^TestServedSolveSettlesOnce$' ./internal/engine/
# Pay-as-you-go recovery gate, deterministic like the one above (counts
# and B/op, no wall-clock): a fault-free EvaluateRecover with no Sink or
# Store encodes zero checkpoints and allocates within 1.25x of the bare
# engine, while a Sink still receives the same 31 checkpoints, byte for
# byte. Run without -race so B/op is the production allocator's.
go test -count=1 -run '^TestRecoverNoSinkIsPayAsYouGo$' .
# Wire-codec gate, same kind: encoding a query result in either form
# allocates a small constant whatever the body size (the values never pass
# through a per-response buffer), decoding the binary form allocates at
# most 1.1x the values plus the body buffer; the JSON form's bytes are
# encoding/json's, and the binary form decodes to the bits the JSON one
# does. Without -race for the same reason.
go test -count=1 -run '^(TestWireCodecAllocs|TestWireEncodeMatchesEncodingJSON)$' ./internal/httpfront/
# Oracle gate: the reproduction's whole output is a golden. The simulators
# are deterministic (simulated cycles, no wall clock), so megabench must
# print results_full.txt — the numbers EXPERIMENTS.md quotes — line for
# line (≈ 2.5 min). One process per experiment: a run keeps every
# workload it builds until it exits, so all of them in one process were
# OOM-killed at 7.7 GB on an 8 GB host, while the largest single
# experiment (fig20) peaks near 3.7 GB.
# Each ID goes to stderr first, so an OOM kill names its experiment. The
# concatenation is the same bytes, diffed against the same file.
# TestGoldenResults pins the cheap experiments in tier-1 and `-update`
# regenerates their blocks; a deliberate model change regenerates the file
# with `go run ./cmd/megabench > results_full.txt`.
go build -o "$tmpdir/megabench" ./cmd/megabench
"$tmpdir/megabench" -list >"$tmpdir/experiments"
for id in $(cut -d' ' -f1 "$tmpdir/experiments"); do
	echo "oracle: $id" >&2
	"$tmpdir/megabench" -exp "$id"
done >"$tmpdir/oracle.out"
diff "$tmpdir/oracle.out" results_full.txt
go test -run='^$' -fuzz=FuzzLoadEdgeList -fuzztime="$FUZZTIME" ./internal/gen/
go test -run='^$' -fuzz=FuzzNewWindowFromParts -fuzztime="$FUZZTIME" ./internal/evolve/
go test -run='^$' -fuzz=FuzzCheckpointDecode -fuzztime="$FUZZTIME" ./internal/engine/
go test -run='^$' -fuzz=FuzzParseTenantSpec -fuzztime="$FUZZTIME" ./internal/serve/
go test -run='^$' -fuzz=FuzzManifestDecode -fuzztime="$FUZZTIME" ./internal/ckptstore/
go test -run='^$' -fuzz=FuzzDecodeQueryResponse -fuzztime="$FUZZTIME" ./internal/httpfront/
# Metrics smoke: a snapshot written by megasim must round-trip through
# its own validator — required families present, every audit passed.
go run ./cmd/megasim -snapshots 4 -metrics "$tmpdir/metrics.json" >/dev/null
go run ./cmd/megasim -verify-metrics "$tmpdir/metrics.json"
# Invariant-audit sweep with strict mode forced on.
MEGA_AUDIT=1 go test -race -run 'Audit|Attribution|StatsMatchMetrics|Conservation' \
	./internal/metrics/ ./internal/engine/ ./internal/sim/ ./internal/uarch/
# Chaos gate: the full crash-equivalence sweep — kill the run at EVERY
# round boundary, resume from the checkpoint, demand bit-identical
# results — for all three schedule modes, under -race.
# MEGA_CHAOS also forces strict audits, so resumed runs re-prove the
# conservation laws too.
MEGA_CHAOS=full go test -race -run 'CrashEquivalence|Audit|Attribution' \
	./internal/engine/ ./internal/sim/ ./internal/uarch/
# Disk-fault chaos gate: the durable checkpoint store's crash-equivalence
# sweep — an injected crash at EVERY store.write / store.rename protocol
# boundary, restart against the same state directory, values identical to
# an uninterrupted run, books audited strict — plus the torn-write table
# (segment truncated and bit-flipped at every byte offset must quarantine
# and fall back to the previous generation) and the service-level
# restart/orphan-recovery tests.
MEGA_CHAOS=full go test -race -run 'Durable|ServeRecoverOrphans|TornSegment|CrashResidue|Quarantine' \
	. ./internal/ckptstore/
# Query-service soak: hundreds of concurrent mixed-priority queries with
# injected transients, panics, and latency spikes under -race, with
# strict audits (MEGA_CHAOS) so the Close-time accounting conservation
# law — admitted == completed + failed + canceled + shed — fails loudly,
# per tenant and in aggregate. The Tenant soak floods one tenant with
# chaos queries and proves the well-behaved tenant keeps its goodput; the
# HTTPFront variants re-run the same chaos through the loopback HTTP
# stack, including a mid-flight graceful drain.
MEGA_CHAOS=soak go test -race -run 'QueryService|Serve|Tenant|HTTPFront' .
MEGA_CHAOS=soak go test -race -count=1 ./internal/serve/ ./internal/httpfront/
# HTTP end-to-end smoke: build megaserve, start it on an ephemeral port,
# run one real query through the retrying client binary, then SIGTERM the
# server and require a clean drained exit (code 0).
go build -o "$tmpdir/megaserve" ./cmd/megaserve
"$tmpdir/megaserve" -listen 127.0.0.1:0 -addr-file "$tmpdir/addr" \
	-snapshots 4 >/dev/null 2>"$tmpdir/serve.log" &
serve_pid=$!
i=0
while [ ! -s "$tmpdir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "megaserve never wrote its addr file" >&2
		cat "$tmpdir/serve.log" >&2
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
addr="$(cat "$tmpdir/addr")"
# Cross-query sharing smoke: the same query twice — the first is a real
# engine run, the second must be answered from the result cache (the
# client prints the report's cache status, and /stats must account
# exactly one hit over exactly one engine run).
"$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	| grep -q 'cache=none'
"$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	| grep -q 'engine=cache cache=hit'
"$tmpdir/megaserve" -server "http://$addr" -stats | tee "$tmpdir/stats.out"
grep -q 'cache hits=1 misses=1 lookups=2' "$tmpdir/stats.out"
grep -q 'engine_runs=1' "$tmpdir/stats.out"
kill -TERM "$serve_pid"
wait "$serve_pid"
# Crash-restart smoke, megasim: SIGKILL an eval run that is spooling
# checkpoints into -state-dir, rerun the same command, and require the
# rerun to report a durable resume and finish cleanly with the store's
# accounting audit strict (MEGA_CHAOS).
go build -o "$tmpdir/megasim" ./cmd/megasim
"$tmpdir/megasim" -mode eval -snapshots 4 -checkpoint-every 1 \
	-state-dir "$tmpdir/simstate" \
	-fault 'engine.round:latency=250ms@6x1' >/dev/null 2>&1 &
sim_pid=$!
i=0
until ls "$tmpdir/simstate"/q-*/ckpt-*.seg >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "megasim never promoted a durable checkpoint" >&2
		kill "$sim_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
kill -KILL "$sim_pid"
wait "$sim_pid" || true
MEGA_CHAOS=1 "$tmpdir/megasim" -mode eval -snapshots 4 -checkpoint-every 1 \
	-state-dir "$tmpdir/simstate" | tee "$tmpdir/resume.out"
grep -q '^resumed:' "$tmpdir/resume.out"
# Crash-restart smoke, megaserve: SIGKILL the server mid-query (the query
# slowed by injected latency so checkpoints outnumber rounds survived),
# restart it on the same -state-dir, and require (a) the cold start to
# re-admit the orphan, (b) the store books to drain to zero live queries
# with at least one durable resume, and (c) a repeat of the killed query
# to come back resumed or cache-served — never recomputed from scratch.
"$tmpdir/megaserve" -listen 127.0.0.1:0 -addr-file "$tmpdir/addr2" \
	-snapshots 4 -checkpoint-every 1 -allow-faults \
	-state-dir "$tmpdir/srvstate" >/dev/null 2>"$tmpdir/serve2.log" &
serve_pid=$!
i=0
while [ ! -s "$tmpdir/addr2" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "megaserve (state-dir) never wrote its addr file" >&2
		cat "$tmpdir/serve2.log" >&2
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
addr="$(cat "$tmpdir/addr2")"
("$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	-fault 'engine.round:latency=250ms@6x1' >/dev/null 2>&1 || true) &
i=0
until ls "$tmpdir/srvstate"/q-*/ckpt-*.seg >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "megaserve never promoted a durable checkpoint" >&2
		cat "$tmpdir/serve2.log" >&2
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
kill -KILL "$serve_pid"
wait "$serve_pid" || true
rm -f "$tmpdir/addr2"
MEGA_CHAOS=1 "$tmpdir/megaserve" -listen 127.0.0.1:0 -addr-file "$tmpdir/addr2" \
	-snapshots 4 -checkpoint-every 1 \
	-state-dir "$tmpdir/srvstate" >/dev/null 2>"$tmpdir/serve3.log" &
serve_pid=$!
i=0
while [ ! -s "$tmpdir/addr2" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "restarted megaserve never wrote its addr file" >&2
		cat "$tmpdir/serve3.log" >&2
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
addr="$(cat "$tmpdir/addr2")"
grep -q 'recovered 1 orphaned' "$tmpdir/serve3.log"
i=0
until "$tmpdir/megaserve" -server "http://$addr" -stats \
	| grep -q 'store queries=0 .* resumes=1'; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "recovered orphan never completed" >&2
		"$tmpdir/megaserve" -server "http://$addr" -stats >&2 || true
		kill "$serve_pid" 2>/dev/null || true
		exit 1
	fi
	sleep 0.1
done
"$tmpdir/megaserve" -server "http://$addr" -algo SSSP -source 0 \
	| grep -Eq 'resumed=true|engine=cache cache=hit'
kill -TERM "$serve_pid"
wait "$serve_pid"
