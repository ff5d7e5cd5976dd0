# Repro build/test entry points. `make ci` is what a fresh checkout should
# pass: formatting, vet, the tier-1 command (go build && go test), the race
# detector over the internal packages (the freeze/COW ownership model
# advertises lock-free sharing of frozen subtrees; -race keeps it honest),
# a short chaos sweep (seeded fault-injection scenarios differentially
# checked against a centralized oracle — see TESTING.md), and a fuzz smoke
# over the parser and wire-framing targets.
GO ?= go

.PHONY: build test test-short bench bench-all bench-chaos bench-route bench-smoke route-smoke profile race fmt vet chaos chaos-ci chaos-nofault chaos-large chaos-large-ci fuzz-smoke lines census ci

build:
	$(GO) build ./...

# Tier-1 verification (ROADMAP.md): the full suite.
test: build
	$(GO) test ./...

# CI-speed suite: -short trims the largest network sizes from the E4/E9
# scaling sweeps (see internal/experiments.All) and the chaos sweep
# from 500 to 200 scenarios.
test-short: build
	$(GO) test -short ./...

# Machinery benchmark suite (hop path, clone, serialization, engine) with
# allocation stats. Each stream is distilled by cmd/benchjson into a clean
# summary (one record per benchmark, parsed metrics) — BENCH_plan_hop.json
# (with the predicate and fingerprint benches of internal/algebra and the
# selection and Fig. 3 join-reduce benches of internal/engine, which sit on
# the same hop path), BENCH_decode.json
# (zero-copy BenchmarkDecode on a payload-heavy frame, BenchmarkDecodePlan
# on an attribute-heavy plan frame and BenchmarkDecodeFreight on an
# area_fanout-shaped one, whose payload items decode sealed, and
# internal/xmltree's BenchmarkParse —
# ParseString, decode plus clone — against BenchmarkParseLegacy, the
# encoding/xml reference parser on the same bytes, so decode-path wins and
# regressions are visible on their own) and BENCH_wire.json (warm codec hop,
# the frame encoder staging a plan into one buffer, reused persistent link
# over real TCP, each frame one vectored write of header and buffer — the
# numbers behind the "wire hop within ~3x of the tree hop" acceptance bar). The
# benchmark lines still echo to the console.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(PlanHop$$|PlanClone|Micro|Canonical|ByteSize|Fingerprint$$|ParsePredicate$$|PredicateString$$|SelectEval$$|JoinReduce$$)' \
		-benchmem -json . ./internal/algebra ./internal/engine \
		| $(GO) run ./cmd/benchjson -out BENCH_plan_hop.json
	$(GO) test -run '^$$' -bench '^Benchmark(Decode|DecodePlan|DecodeFreight|Parse|ParseLegacy)$$' -benchmem -json . ./internal/xmltree \
		| $(GO) run ./cmd/benchjson -out BENCH_decode.json
	$(GO) test -run '^$$' -bench '^Benchmark(PlanHopWire$$|PlanHopWireReused$$|StreamEncode$$)' -benchmem -json . \
		| $(GO) run ./cmd/benchjson -out BENCH_wire.json

# CPU and heap profiles of the hop path (cpu.prof / mem.prof, inspect with
# `go tool pprof`): the first stop when chasing a decode- or marshal-side
# regression the alloc budgets or BENCH_decode.json surface.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkPlanHop$$' -benchmem \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# Chaos throughput (full generate+run+oracle-check scenarios per op) plus
# the plan outcome rates (completed/partial/stuck/lost per plan); recorded
# to BENCH_chaos.json the same way bench records the hop path.
# BenchmarkScenarioLarge adds the large-world acceptance metrics: 1000-peer
# churn scenarios/sec, the incremental oracle's per-scenario cost
# (oracle-ms/op) and peak RSS.
bench-chaos:
	$(GO) test -run '^$$' -bench '^BenchmarkScenario(Large)?$$' -benchmem -json ./internal/chaos \
		| $(GO) run ./cmd/benchjson -out BENCH_chaos.json

# Every benchmark, including the full E1-E14 experiment reproductions.
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem .

# Learned routing. Convergence (warm msgs/query below no-learning, warm hops
# not above cold, warm hit rate) is E15's assertion and churn_mixed's gated
# route.shortcut_hit_ratio and hops_per_query; what is left to time here is the
# learning step itself: BenchmarkMineTrail mines one five-visit trail into a
# table of 16, 256 and 4096 confirmed edges, ns/op flat across the three (its
# lines echo to the console; CHANGES.md keeps them).
bench-route:
	$(GO) test -run '^$$' -bench '^BenchmarkMineTrail$$' -benchmem ./internal/peer | grep '^Benchmark'

# CI gate for learned routing: the E15 cold-vs-warm experiment in -short mode
# (internal/experiments.All(true)) and one iteration of BenchmarkMineTrail so
# it cannot rot.
route-smoke:
	$(GO) test -short -run 'TestAllExperimentsRun/E15' ./internal/experiments
	$(GO) test -run '^$$' -bench '^BenchmarkMineTrail$$' -benchtime 1x ./internal/peer

# CI gate for the benchmark: bench/ is a module of its own that the root
# `go build ./...` and `go test ./...` never compile, so a change to a
# package it imports (xmltree's model, say) could break BENCHMARK.json's
# command unnoticed. The -short smoke runs every simnet workload at toy size
# against the oracle (it skips tcp_chain, which builds and spawns cmd/mqpd).
bench-smoke:
	cd bench && $(GO) test -short

race:
	$(GO) test -race ./internal/...

# Replay one chaos scenario (make chaos SEED=1337), or sweep 500 seeds when
# no SEED is given. A sweep failure prints the offending seed for replay.
chaos:
	@if [ -n "$(SEED)" ]; then \
		$(GO) run ./cmd/chaos -seed $(SEED); \
	else \
		$(GO) run ./cmd/chaos -n 500; \
	fi

# CI smoke: 200 seeded scenarios, mixed fault intensity; then 200 with
# learned routing and 200 with payload stores, the two modes whose peers keep
# a shortcut table and a blob store (outcomes.golden pins 25 seeds of each).
chaos-ci:
	$(GO) run ./cmd/chaos -n 200
	$(GO) run ./cmd/chaos -n 200 -learn
	$(GO) run ./cmd/chaos -n 200 -blobs

# Liveness gate: a fault-free sweep must strand zero plans — every plan
# completes or returns an explicit partial result (visited-server routing
# memory, internal/route).
chaos-nofault:
	$(GO) run ./cmd/chaos -n 500 -level none -max-stuck 0

# Large worlds (TESTING.md "Large worlds"): 1000-peer churn-enabled
# zipf-loaded scenarios with replica promotion, checked by the incremental
# oracle with sampled full verification. The acceptance sweep is 50 seeds;
# chaos-large-ci is the -short form wired into `make ci`, plus 8 seeds with
# learned routing. Those check that mining trails, absorbing confirmed edges
# into catalogs that churn keeps moving, and invalidating on supersede keep 0
# violations. They do not route by a shortcut: no lookup in these worlds
# finds a live edge (E15, churn_mixed and unit tests exercise the learned
# tier). Replay a failure with the printed seed:
# go run ./cmd/chaos -seed N -peers 1000 -churn (add -learn for the second).
chaos-large:
	$(GO) run ./cmd/chaos -n 50 -peers 1000 -churn

chaos-large-ci:
	$(GO) run ./cmd/chaos -n 16 -peers 1000 -churn
	$(GO) run ./cmd/chaos -n 8 -peers 1000 -churn -learn

# Fuzz smoke: 10s per target (canonical-XML parse fixpoint, zero-copy
# decoder vs reference-parser differential — both refuse namespaces,
# directives and every processing instruction but a leading <?xml?>
# declaration, and agree on the rest — the decoder's []byte entry point
# the wire uses, compiled item paths vs the breadth-wise reference evaluator,
# the link handshake and frame header, streaming frame encoder vs
# staged-tree encoder differential, predicate render/parse round trip,
# prepared predicate evaluator vs the reference evaluator, blob reference
# resolution, packed reference runs staged then resolved vs the plain
# frame, a reduced join's sealed tuples vs the tuple trees an evaluated join
# builds) — eleven targets.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRoundTrip$$' -fuzztime 10s ./internal/xmltree
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEquivalence$$' -fuzztime 10s ./internal/xmltree
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBytes$$' -fuzztime 10s ./internal/xmltree
	$(GO) test -run '^$$' -fuzz '^FuzzPathFirst$$' -fuzztime 10s ./internal/xmltree
	$(GO) test -run '^$$' -fuzz '^FuzzRecv$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzStreamEncodeEquivalence$$' -fuzztime 10s ./internal/algebra
	$(GO) test -run '^$$' -fuzz '^FuzzPredicateRoundTrip$$' -fuzztime 10s ./internal/algebra
	$(GO) test -run '^$$' -fuzz '^FuzzPredicateEval$$' -fuzztime 10s ./internal/algebra
	$(GO) test -run '^$$' -fuzz '^FuzzResolveBlobs$$' -fuzztime 10s ./internal/algebra
	$(GO) test -run '^$$' -fuzz '^FuzzRefRuns$$' -fuzztime 10s ./internal/algebra
	$(GO) test -run '^$$' -fuzz '^FuzzJoinTuple$$' -fuzztime 10s ./internal/engine

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Root non-test Go lines, one line per package directory and the total last:
# the number every PR reports its delta of in CHANGES.md (ROADMAP standing
# rules). bench/ is a module of its own, and testdata/ holds test fixtures
# that the go tool never builds.
lines:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# Coverage census (not part of ci): which root functions no shipped program
# runs. Builds the experiments, chaos, the four examples and the bench binary
# with coverage over every root package, runs each the way its own docs and
# BENCHMARK.json run it (experiments -short; chaos plain, -learn, -blobs and
# 1000-peer churn sweeps without and with -learn, as chaos-large-ci runs
# them; each example; each bench workload for 1 s,
# untraced), then lists the functions at 0.0%. bench/'s own lines are dropped:
# go tool cover cannot resolve that module from here. The mqpd daemons the
# bench spawns are not instrumented, so the daemon side of tcp_chain is not
# seen. Every entry is a candidate for deletion; TESTING.md says how to read it.
census:
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	mkdir -p "$$d/bin" "$$d/cov"; \
	$(GO) build -cover -coverpkg=repro/... -o "$$d/bin/" ./cmd/experiments ./cmd/chaos ./examples/...; \
	$(GO) build -C bench -cover -coverpkg=repro/... -o "$$d/bin/bench" .; \
	export GOCOVERDIR="$$d/cov"; b="$$d/bin"; \
	"$$b/experiments" -short >/dev/null; \
	"$$b/chaos" -n 100 >/dev/null; \
	"$$b/chaos" -n 100 -learn >/dev/null; \
	"$$b/chaos" -n 100 -blobs >/dev/null; \
	"$$b/chaos" -n 8 -peers 1000 -churn >/dev/null; \
	"$$b/chaos" -n 8 -peers 1000 -churn -learn >/dev/null; \
	for e in garagesale geneexpression privatejoin quickstart; do "$$b/$$e" >/dev/null; done; \
	for w in point_hot area_fanout bulk_join tcp_chain churn_mixed; do \
		"$$b/bench" -workload $$w -seconds 1 -trace 0 >/dev/null; done; \
	$(GO) tool covdata textfmt -i="$$d/cov" -o "$$d/all.txt"; \
	grep -v '^repro/bench/' "$$d/all.txt" >"$$d/root.txt"; \
	$(GO) tool cover -func="$$d/root.txt" | grep '[[:space:]]0\.0%$$' >"$$d/zero.txt" || true; \
	cat "$$d/zero.txt"; echo "$$(wc -l <"$$d/zero.txt") functions no shipped program runs"

ci: fmt vet build test race bench-smoke route-smoke chaos-ci chaos-nofault chaos-large-ci fuzz-smoke
