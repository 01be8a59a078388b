# Developer targets. `make check` is the tier-1 verification extension
# recorded in ROADMAP.md: build, vet, and the full test suite under the
# race detector (the concurrent query-serving layer must stay race-free).

GO ?= go

.PHONY: build test check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check: build
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 100x .

# bench-smoke runs the serving-relevant benchmarks once each — no
# timings asserted, just "they still build, run, and agree" (the
# indexed benchmarks cross-check their evaluators' result counts).
# -benchmem is on so a single run already shows allocs/op: the ordinal
# bitset path is an allocation-budget feature, and its regressions are
# visible in allocs/op long before they show up in wall time. CI runs
# this so a refactor cannot silently break the benchmark harness
# between loadbench refreshes. BenchmarkAnswerCacheLookup prices the
# answer cache's containment proofs, so a regression in their
# allocs/op shows here before it shows in servebench's zipf-contain.
# BenchmarkRewriteWidth is Ablation B at |p| up to 10⁴: a plan-memo
# regression that makes rewrite or optimize superlinear in the query
# shows in its ns/op and cells/node. BenchmarkImage and BenchmarkSimulate
# are Ablation C: image builds reuse the optimizer's flat scratch store,
# so their allocs/op stay a handful whatever nodes/op reads.
# BenchmarkSimplify prices the laws that end every rewrite and optimize:
# Simplify shares what it leaves unchanged, so an already simplified
# plan reads 0 allocs/op and a law firing at one leaf reads its spine.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPlanCache|BenchmarkDeepDescendant|BenchmarkHeightSweep|BenchmarkQualifiedScan|BenchmarkAnswerCacheLookup|BenchmarkRewriteWidth|BenchmarkImage|BenchmarkSimulate|BenchmarkSimplify' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkRecEval' -benchmem -benchtime 1x ./internal/xpath
	$(GO) test -run xxx -bench 'BenchmarkWriteResult' -benchmem -benchtime 1x ./internal/serve

# servebench-smoke vets and tests the serving benchmark, then runs one
# second of its hot-small workload; it fails unless the final JSON line
# reports every served body byte-identical to the §3.3 oracle
# ("correct":true).
.PHONY: servebench-smoke
servebench-smoke:
	cd servebench && $(GO) vet ./... && $(GO) test ./...
	bash servebench/run.sh --workload hot-small --seed 1 --seconds 1 --trace 0 | tail -n 1 | grep -q '"correct":true'

# examples-smoke runs every program under examples/ and fails unless
# each exits 0 and the recursive example reports that the Section 4.2
# unfold oracle returns the same nodes as the height-free plan.
.PHONY: examples-smoke
examples-smoke:
	@set -e; for d in examples/*/; do \
		echo "go run ./$$d"; \
		out=$$($(GO) run ./$$d); \
		if [ "$$d" = examples/recursive/ ]; then \
			echo "$$out" | grep -q 'unfold oracle agrees: true' || \
				{ echo "examples/recursive: unfold oracle does not agree"; exit 1; }; \
		fi; \
	done

# loadsmoke drives the in-process hospital server through a short ramp
# and fails (exit 2) if overload is reached without the admitted-latency
# bound holding. CI runs this; `make loadbench` is the longer run that
# regenerates the committed BENCH_svload.json.
.PHONY: loadsmoke loadbench
loadsmoke:
	$(GO) run ./cmd/svload -builtin hospital -levels 4,16,64 -duration 500ms \
		-timeout 250ms -max-inflight 8 -out /dev/null

loadbench:
	$(GO) run ./cmd/svload -builtin hospital -levels 4,16,64 -duration 2s \
		-timeout 250ms -max-inflight 16 -out BENCH_svload.json

# netsmoke drives a real svserve over TCP (ReadHeaderTimeout, graceful
# drain, /explainz on a recursive query, /metricsz validated by
# promcheck); `make profile` captures a CPU profile from a loaded
# server into profile.cpu.pprof.
.PHONY: netsmoke profile
netsmoke:
	bash scripts/netsmoke.sh

profile:
	bash scripts/profile.sh

# fuzz-smoke gives every fuzz target a short budget (go test accepts one
# -fuzz pattern per invocation, hence the one-target-per-line shape).
# CI runs this; locally, raise FUZZTIME for a deeper pass.
FUZZTIME ?= 20s

.PHONY: fuzz-smoke
fuzz-smoke:
	$(GO) test ./internal/xpath -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xpath -fuzz 'FuzzParseQual$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xpath -fuzz 'FuzzEval$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xpath -fuzz 'FuzzEvalQual$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzParseElementSyntax$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dtd -fuzz 'FuzzMatchLabels$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rewrite -fuzz 'FuzzRewriteRecursive$$' -fuzztime $(FUZZTIME)
