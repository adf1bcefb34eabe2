GO ?= go

.PHONY: all build test race vet lint lintfix-check ci perfcheck perfbench racecheck faultsmoke explorecheck grandprixsmoke fuzz cover bench results perf

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the repo's ten invariant analyzers — seven per-package
# passes (walltime, globalrand, maprange, spanpair, waitcheck, floateq,
# prio) and three whole-module call-graph passes (taintflow, lpown,
# sendpath) — over the module; it exits non-zero on any finding,
# including unused //dpml:allow suppressions.
lint:
	$(GO) run ./cmd/dpml-lint ./...

# lintfix-check audits the annotation and suppression hygiene: the full
# analyzer run makes unused //dpml:allow lines and malformed or typo'd
# //dpml:owner classes findings (never silence), and the -suppressions
# table puts every remaining allowance with its recorded reason on the
# CI log for review.
lintfix-check:
	$(GO) run ./cmd/dpml-lint -suppressions ./...
	$(GO) run ./cmd/dpml-lint ./...

# The bench package's determinism matrices now cover ten designs; under
# the race detector on a small host that exceeds go test's default
# 10-minute per-package timeout, so give the suite an explicit budget.
race:
	$(GO) test -race -timeout 45m ./...

# ci is the gate: the invariant analyzers and go vet, the full test suite under the race
# detector (the sweep pool runs simulations on multiple goroutines, so
# -race exercises the parallel paths, not just the serial ones), the
# sharded-kernel race pass, the simulator-throughput check (the quick
# perf suite must stay within 30% of the committed BENCH_sim.json on the
# 64-rank scenarios), the fault-matrix smoke pass, the schedule-space
# exploration pass, a short fuzz pass over the text parsers, and the
# coverage summary.
ci: lint lintfix-check vet race racecheck perfcheck faultsmoke explorecheck grandprixsmoke fuzz cover

perfcheck:
	$(GO) run ./cmd/dpml-bench -perf -quick -baseline BENCH_sim.json -o /dev/null

# perfbench runs the repository benchmark (cmd/dpml-perfbench, declared
# in BENCHMARK.json): the end-to-end metrics of each workload over the
# declared 30 s run time. It measures rather than gates, so it is not
# part of ci.
perfbench:
	for w in scale-10k fabric-oversub verified-64; do \
		bash cmd/dpml-perfbench/run.sh --workload $$w --seconds 30 --trace 0 || exit 1; \
	done

# racecheck reruns the kernel, fabric, and MPI test packages under the
# race detector with the event kernel split across four shards. Plain
# `race` covers host-side parallelism (the sweep pool); this covers
# sim-side parallelism — window barriers, cross-shard outboxes, the net
# kernel — where a missing happens-before edge would corrupt virtual
# time itself.
racecheck:
	DPML_SHARDS=4 $(GO) test -race -count=1 ./internal/sim/ ./internal/fabric/ ./internal/mpi/

# faultsmoke runs the fault-injection and watchdog tests twice (-count=2):
# every fault class against a design (bench fault matrix), graceful SHArP
# degradation, watchdog diagnostics, and sweep job limits. The second run
# must reproduce the first bit for bit — seeded plans are deterministic.
faultsmoke:
	$(GO) test -count=2 -run 'Fault|Watchdog|Straggler|Sharp|Spec|Instantiate|Validate|Limited' \
		./internal/faults/ ./internal/fabric/ ./internal/mpi/ ./internal/core/ ./internal/bench/ ./internal/sweep/

# explorecheck asserts every invariant on every reachable schedule, for
# every design on both the healthy and a faulted fabric: a systematic
# (DPOR-lite) pass at 16 ranks that must visit at least 100 distinct
# schedules per combination, a 32-schedule seeded pass, and a -race
# rerun of the exploration suite with the event kernel split across
# four shards (perturbed schedules must stay shard-invariant even under
# the race detector's scheduling noise).
explorecheck:
	$(GO) run ./cmd/dpml-verify -designs all -faults ';all@0.7' -fault-seed 7 \
		-systematic -max-schedules 200 -min-distinct 100 -o /dev/null
	$(GO) run ./cmd/dpml-verify -designs all -faults ';all@0.7' -fault-seed 7 \
		-schedules 32 -explore-seed 1 -o /dev/null
	DPML_SHARDS=4 $(GO) test -race -count=1 ./internal/explore/

# grandprixsmoke runs the cross-family ranking figure at reduced scale
# (one 4x4 shape instead of 8x8 + 16x16): every design family must
# complete every (size, fault-class) heat on the seeded fabric.
grandprixsmoke:
	$(GO) run ./cmd/dpml-bench -figure grandprix -quick -iters 2 -warmup 1 -o /dev/null

# fuzz gives each fuzz target a short budget. Go runs one fuzz function
# per invocation, so each gets its own line; seeds in testdata/corpus
# still run under plain `go test`.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzCommMatrixLabel -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzWriteCSVRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzSpanStamping -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run=NONE -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faults/
	$(GO) test -run=NONE -fuzz=FuzzParseDesign -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzAllowDirective -fuzztime=$(FUZZTIME) ./internal/lint/

# cover runs the suite with coverage and prints the per-package and total
# statement coverage summary.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# bench runs the simulator micro-benchmarks (kernel + fabric hot paths).
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/sim/ ./internal/fabric/

# results regenerates every committed table in results/ (see results/README.md).
results:
	for f in fig1a fig1b fig1c fig1d fig4 fig5 fig6 fig7 fig8a fig8b fig8c \
	         fig9a fig9b fig9c fig9d fig11a fig11b fig11c model phases pipeline noise faults \
	         grandprix; do \
		$(GO) run ./cmd/dpml-bench -figure $$f -iters 2 -warmup 1 -o results/$$f.txt || exit 1; \
	done
	$(GO) run ./cmd/dpml-bench -figure fig10 -iters 1 -warmup 1 -o results/fig10.txt

# perf emits the simulator-throughput report committed as BENCH_sim.json.
perf:
	$(GO) run ./cmd/dpml-bench -perf -quick -o BENCH_sim.json
