# Tier-1 verification for the repo: vet, build, lint, race-test, fuzz
# smoke. `make check` is the roadmap's tier-1 gate; CI runs each of its
# gates once, split over its lint and check jobs.
# `make bench` is the separate benchmark regression gate (cmd/benchgate):
# fixed-iteration hot-path micro-benchmarks and one compressed figure
# run, written to BENCH_15.json and gated against BENCH_BASELINE.json.
# CI runs it as a non-blocking artifact step; it is not part of the
# tier-1 gate. The end-to-end benchmark over real TCP is `go run
# ./benchmark`; `make e2e-smoke` is its two-second-per-workload
# exactness check.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check vet build no-gob lint lint-waivers test test-race chaos-smoke e2e-smoke cluster-smoke fuzz-smoke bench bench-pairs loc

check: vet build no-gob lint lint-waivers test-race chaos-smoke fuzz-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# no-gob keeps the one wire format one: nothing in the tree may link the
# stdlib reflection codec back in.
no-gob:
	! $(GO) list -deps ./... | grep -x encoding/gob

# lint runs the repo's own analyzers (invariants the stock toolchain
# cannot see: virtual-time discipline, protocol exhaustiveness,
# unchecked errors). See PROTOCOL.md.
lint:
	$(GO) run ./cmd/distqlint ./...

# lint-waivers audits the //distqlint:allow ledger: every waiver must
# name a known analyzer and carry a rationale, or the audit fails.
lint-waivers:
	$(GO) run ./cmd/distqlint -waivers ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# chaos-smoke replays the seeded fault-injection matrix (fixed seeds,
# PROTOCOL.md "Failure model"): randomized control-plane drop/dup/delay
# schedules must preserve liveness and exact results, and the
# membership scenarios (runtime join, graceful leave, follower
# promotion, spilled failover, heartbeat flap, and the restart-reseed
# script: crash, fail over, restart empty, fail over onto the restarted
# engine — PROTOCOL.md "Membership & replication" and "Cold restart")
# must stay exact under the same faults — two of them again over TCP
# with every frame overwritten the moment its handler returns
# (PROTOCOL.md "Buffer ownership"). Beside them, the engine's step
# table: every engine-facing row of PROTOCOL.md's plan table, repeated
# and late (PROTOCOL.md "Timeouts, retries, abort"). -count=1 forces a
# live run. Last, the TCP linger: a coalesced frame leaves within 5 ms,
# flushed by the next frame (once the buffer is lingerAged old) or by a
# one-shot backstop timer armed by the first coalesced frame, and every
# write-out, Close and dropped connection must disarm the backstop;
# those interleavings (a backstop firing against an aged-frame or
# watermark flush, a Close, senders racing the Close) are
# timing-dependent, so the flush, linger and close tests run twenty
# times under the race detector.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSeededMatrix|TestChaosCrashRecovery|TestChaosJoinExact|TestChaosLeaveExact|TestChaosPromoteExact|TestChaosSpilledFailoverExact|TestChaosHeartbeatFlap|TestChaosTCPNativeExact|TestChaosTCPPoisonedRelocation|TestChaosTCPPoisonedFailover' ./internal/experiments
	$(GO) test -race -count=1 -run 'TestEngineStepTable' ./internal/engine
	$(GO) test -race -count=20 -run 'TestPacedFlush|TestLinger|TestTCPCloseDuringSends' ./internal/transport

# e2e-smoke runs the four end-to-end workloads over real TCP for two
# seconds each (about 20 s in all): every workload checks its result
# count against the oracle and the command exits non-zero on any
# "# FAILED".
e2e-smoke:
	$(GO) run ./benchmark -seconds 2

# cluster-smoke runs the four node binaries as README's localhost
# cluster for about a second: the generator must exit 0, the coordinator
# relocate at least once, and the application server's final count equal
# the results the engines logged (scripts/cluster-smoke.sh).
cluster-smoke:
	scripts/cluster-smoke.sh

# bench runs the benchmark regression gate and writes BENCH_15.json.
# Shrink the figure smoke further with REPRO_DURATION_FACTOR.
bench:
	$(GO) run ./cmd/benchgate

# bench-pairs compares the working tree against BASE on end-to-end
# workloads: for each workload WORKLOAD names (space-separated, one base
# build for all), N alternating pairs of SECONDS-second runs (seeds
# 1..N), then one table of each side's median and quartiles per
# end-to-end metric, the pairs the change won and tied, and whether the
# medians differ by more than BASE's inter-quartile distance.
#   make bench-pairs BASE=680b2c7 WORKLOAD=flood_count N=10
#   make bench-pairs BASE=680b2c7 WORKLOAD="constrained_adapt paced_materialize" N=5
N ?= 10
SECONDS ?= 20
bench-pairs:
	scripts/bench-pairs.sh "$(BASE)" "$(WORKLOAD)" "$(N)" "$(SECONDS)"

# loc prints the line count simplification PRs quote — non-test Go
# outside benchmark/ and testdata/: whole tree, internal/core,
# internal/coordinator, the decision layer (the two together),
# internal/engine, the lint suite (internal/analysis + cmd/distqlint) and the wiring (distq,
# internal/cluster, the four node binaries) — and, with BASE, the same at
# that revision and the delta.
#   make loc BASE=d3d9c36
loc:
	scripts/loc.sh $(BASE)

# fuzz-smoke gives the protocol fuzzers a short budget on top of
# replaying the committed corpora (testdata/fuzz). Grown inputs land in
# GOCACHE, not the repo; promote keepers into testdata by hand. The
# wire frame decoder fuzzer (every message kind) shares the budget so a
# wire-codec regression fails the same tier-1 gate, and so does the
# result-payload reader, which parses the bytes of every ResultData frame
# that reaches the application server, and the snapshot decoder, whose
# accepted bytes every spill segment, relocation image and standby tier
# aliases.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCoordinatorProtocol -fuzztime $(FUZZTIME) ./internal/coordinator
	$(GO) test -run '^$$' -fuzz FuzzNativeFrame -fuzztime $(FUZZTIME) ./internal/proto
	$(GO) test -run '^$$' -fuzz FuzzReadResults -fuzztime $(FUZZTIME) ./internal/tuple
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME) ./internal/join
