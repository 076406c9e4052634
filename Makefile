GO ?= go

.PHONY: check fmt vet build test race bench bench-wormsim-baseline bench-routing-baseline bench-heuristics-baseline bench-serve-baseline bench-regression profile-wormsim perfbench-smoke results fuzz check-figures check-results check-scale check-churn check-serve check-workload

## check: everything CI runs — format, vet, build, race tests, quick benchmarks
check: fmt vet build race bench

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: quick performance smoke — core throughput, figure pipeline, routing engine, heuristic kernels, static sweep scaling
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkWormsimCyclesPerSec|BenchmarkDynamicFigures|BenchmarkSimulator' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkRoutingPlan' -benchtime 100x ./internal/routing
	$(GO) test -run '^$$' -bench 'BenchmarkGreedyST|BenchmarkKMB|BenchmarkSortedMP' -benchmem -benchtime 100x ./internal/heuristics
	$(GO) test -run '^$$' -bench 'BenchmarkStaticTable' -benchmem -benchtime 1x ./internal/experiments

## bench-wormsim-baseline: regenerate the committed BENCH_wormsim.json in
## one deterministic pass — core throughput, gomaxprocs, and every
## dynamic figure's wall time
bench-wormsim-baseline:
	$(GO) run ./cmd/mcfigures -bench -quick -parallel 1 -out .

## bench-regression: throughput gate — re-measures the core workload plus
## the scheduling-service window path against the committed baselines. A
## >25% wormsim cycles_per_sec regression FAILS (exit 1); the serve path
## stays warn-only, and both paths warn from 15%
bench-regression:
	$(GO) run ./cmd/mcfigures -bench-compare BENCH_wormsim.json
	$(GO) test ./internal/sched -run TestServeBenchRegression -serve-bench-compare

## profile-wormsim: CPU+alloc profile of the canonical serial core
## benchmark; inspect with `go tool pprof wormsim.test wormsim.cpu.pprof`
profile-wormsim:
	$(GO) test -run '^$$' -bench BenchmarkWormsimCyclesPerSec -benchtime 20x \
		-cpuprofile wormsim.cpu.pprof -memprofile wormsim.mem.pprof -o wormsim.test .

## perfbench-smoke: vet and smoke-test the benchmark in perfbench/, a
## nested module that `go test ./...` never compiles, so a change to the
## sched/wormsim API it calls fails here rather than at benchmark time
perfbench-smoke:
	cd perfbench && $(GO) vet . && $(GO) test .

## bench-serve-baseline: regenerate the committed BENCH_serve.json (one
## steady-state 256-request admission window on the 64x64 mesh)
bench-serve-baseline:
	$(GO) test ./internal/sched -run TestWriteServeBenchBaseline -update-serve-bench

## bench-routing-baseline: regenerate the committed BENCH_routing.json
bench-routing-baseline:
	$(GO) test ./internal/routing -run TestWriteRoutingBenchBaseline -update-routing-bench

## bench-heuristics-baseline: regenerate the committed BENCH_heuristics.json (before/after kernel comparison)
bench-heuristics-baseline:
	$(GO) test ./internal/heuristics -run TestWriteHeuristicsBenchBaseline -update-heuristics-bench

## fuzz: 30-second smoke of every fuzz target (healthy routing invariants + fault-mask CDG acyclicity + trace-parser round-trip + channel numbering vs neighbor lists + wait-for graph vs the all-ahead reference)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPlan -fuzztime 30s ./internal/routing
	$(GO) test -run '^$$' -fuzz FuzzFaultMaskCDG -fuzztime 30s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzTraceParse -fuzztime 30s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzChannelNumbering -fuzztime 30s ./internal/dfr
	$(GO) test -run '^$$' -fuzz FuzzDetectDeadlock -fuzztime 30s ./internal/wormsim

## check-figures: regenerate the mcfigures outputs at -quick, the fidelity
## committed in results/, and require every file to match byte for byte,
## both as written by one full run and as printed on stdout by
## `mcfigures -quick -fig <base>` (with -csv for the .csv files)
check-figures:
	@d=$$(mktemp -d); \
	$(GO) build -o $$d/mcfigures ./cmd/mcfigures || exit 1; \
	$$d/mcfigures -quick -out $$d/out >/dev/null 2>$$d/stderr || { cat $$d/stderr; exit 1; }; \
	n=0; for f in $$d/out/*; do \
		b=$$(basename $$f); csv=; case $$b in *.csv) csv=-csv;; esac; \
		cmp $$f results/$$b || { echo "check-figures: $$b differs from results/"; exit 1; }; \
		$$d/mcfigures -quick -fig $${b%.*} $$csv >$$d/stdout 2>$$d/stderr && cmp -s $$d/stdout results/$$b || \
			{ cat $$d/stderr; echo "check-figures: mcfigures -quick -fig $${b%.*} $$csv differs from results/$$b"; exit 1; }; \
		n=$$((n+1)); \
	done; \
	rm -rf $$d; \
	echo "check-figures: $$n mcfigures outputs byte-identical to results/, written by -out and printed by -fig"

## check-results: run mcfault, mcserve and mcworkload at full fidelity,
## the fidelity committed in results/, and require every file they write
## to match its results/ copy byte for byte (check-churn pins mcchurn's
## files the same way, at two worker counts)
check-results:
	@d=$$(mktemp -d); \
	$(GO) build -o $$d/ ./cmd/mcfault ./cmd/mcserve ./cmd/mcworkload || exit 1; \
	for c in mcfault mcserve mcworkload; do \
		$$d/$$c -out $$d/out >/dev/null 2>$$d/stderr || { cat $$d/stderr; echo "check-results: $$c failed"; exit 1; }; \
	done; \
	n=0; for f in results/fault_* results/serve_* results/workload_*; do \
		cmp $$f $$d/out/$$(basename $$f) || { echo "check-results: $$f differs"; exit 1; }; \
		n=$$((n+1)); \
	done; \
	[ $$n -eq $$(ls $$d/out | wc -l) ] || { echo "check-results: outputs without a results/ copy:"; ls $$d/out; exit 1; }; \
	rm -rf $$d; \
	echo "check-results: $$n mcfault, mcserve and mcworkload outputs byte-identical to results/"

## check-scale: a quick end-to-end scale study on the 64x64 mesh, the
## 8-ary 4-cube and the 65536-node hypercube; the study aborts unless
## each workload's timed run reproduces its warm-up run
check-scale:
	$(GO) run ./cmd/mcscale -quick -out $$(mktemp -d)

## check-churn: the incremental-topology acceptance suite — churn
## equivalence (a delta-driven router vs a fresh router given the same
## active faults, at every epoch, with the union of all plans acyclic),
## targeted cache invalidation, the delta-driven simulator bridge, the
## reduced churn study, and mcchurn at full fidelity, the fidelity
## committed in results/, once with -parallel 1 and once with -parallel
## 4: both runs' five deterministic files must match their results/
## copies byte for byte. churn_study.txt is left out by name because it
## holds host facts and wall-clock timings
check-churn:
	$(GO) test -run 'TestChurnEquivalence|TestLiveRouterTargetedInvalidation|TestPlanDeltas|TestSimSchedule' ./internal/fault
	$(GO) test -run 'TestChurnStudySmall' ./internal/experiments
	@d=$$(mktemp -d); \
	$(GO) build -o $$d/ ./cmd/mcchurn || exit 1; \
	for p in 1 4; do \
		$$d/mcchurn -parallel $$p -out $$d/p$$p >/dev/null 2>$$d/stderr || \
			{ cat $$d/stderr; echo "check-churn: mcchurn -parallel $$p failed"; exit 1; }; \
		for f in churn_hitrate.txt churn_hitrate.csv churn_evictions.txt churn_evictions.csv churn_sim.txt; do \
			cmp results/$$f $$d/p$$p/$$f || { echo "check-churn: $$f differs from results/ at -parallel $$p"; exit 1; }; \
		done; \
	done; \
	rm -rf $$d; \
	echo "check-churn: 5 deterministic mcchurn outputs byte-identical to results/ at -parallel 1 and 4"

## check-serve: the scheduling-service acceptance suite — window packing,
## worker-count invariance, the allocation-free steady state, the reduced
## serving study, and byte-identity of every mcserve output across
## -parallel
check-serve:
	$(GO) test ./internal/sched
	$(GO) test -run 'TestServeStudySmall' ./internal/experiments
	@a=$$(mktemp -d); b=$$(mktemp -d); \
	$(GO) run ./cmd/mcserve -quick -parallel 1 -out $$a >/dev/null; \
	$(GO) run ./cmd/mcserve -quick -parallel 4 -out $$b >/dev/null; \
	for f in serve_throughput.txt serve_throughput.csv serve_p99.txt serve_p99.csv \
		serve_window_throughput.txt serve_window_throughput.csv \
		serve_window_p99.txt serve_window_p99.csv serve_study.txt; do \
		cmp $$a/$$f $$b/$$f || { echo "check-serve: $$f differs across -parallel"; exit 1; }; \
	done; \
	echo "check-serve: mcserve outputs byte-identical across -parallel"

## check-workload: the workload-engine acceptance suite — statistical
## property tests and golden streams for every model, the trace
## round-trip contract, the workload-driven simulator/service paths, the
## reduced workload study, and byte-identity of every mcworkload output
## across -parallel
check-workload:
	$(GO) test ./internal/workload
	$(GO) test -run 'TestRunWorkload' ./internal/wormsim
	$(GO) test -run 'TestServeWorkload|TestForceAdmit' ./internal/sched
	$(GO) test -run 'TestWorkloadStudySmall|TestServeStudyWorkloadOption' ./internal/experiments
	@a=$$(mktemp -d); b=$$(mktemp -d); \
	$(GO) run ./cmd/mcworkload -quick -parallel 1 -out $$a >/dev/null; \
	$(GO) run ./cmd/mcworkload -quick -parallel 4 -out $$b >/dev/null; \
	for f in workload_scheme_mesh.txt workload_scheme_mesh.csv \
		workload_scheme_cube.txt workload_scheme_cube.csv \
		workload_packer_throughput.txt workload_packer_throughput.csv \
		workload_packer_p99.txt workload_packer_p99.csv workload_study.txt; do \
		cmp $$a/$$f $$b/$$f || { echo "check-workload: $$f differs across -parallel"; exit 1; }; \
	done; \
	$(GO) run ./cmd/mcworkload -quick -record bursty -o $$a/bursty.trace >/dev/null; \
	$(GO) run ./cmd/mcworkload -quick -replay $$a/bursty.trace >/dev/null || \
		{ echo "check-workload: trace record/replay failed"; exit 1; }; \
	echo "check-workload: mcworkload outputs byte-identical across -parallel"

## results: regenerate every committed table and figure — mcfigures at
## -quick (check-figures pins that output), the other studies at full
## fidelity
results:
	$(GO) run ./cmd/mcfigures -quick -out results
	$(GO) run ./cmd/mcfault -out results
	$(GO) run ./cmd/mcscale -out results
	$(GO) run ./cmd/mcchurn -out results
	$(GO) run ./cmd/mcserve -out results
	$(GO) run ./cmd/mcworkload -out results
