GO ?= go

.PHONY: check fmt vet build test race bench bench-wormsim-baseline bench-routing-baseline bench-heuristics-baseline bench-serve-baseline bench-regression profile-wormsim perfbench-smoke results fuzz check-results

## check: format, vet, build, race tests, quick benchmarks. CI's check job
## runs it, then check-results, perfbench-smoke and bench-regression; its
## fuzz-smoke job runs fuzz
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

## fuzz: 30-second smoke of each of the six fuzz targets (healthy routing invariants and flat plans vs their route form + fault-mask CDG acyclicity + trace-parser round-trip + channel numbering vs neighbor lists + wait-for graph vs the all-ahead reference + masked distances vs a from-scratch BFS after fail, repair and no-op deltas)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPlan -fuzztime 30s ./internal/routing
	$(GO) test -run '^$$' -fuzz FuzzFaultMaskCDG -fuzztime 30s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzTraceParse -fuzztime 30s ./internal/workload
	$(GO) test -run '^$$' -fuzz FuzzChannelNumbering -fuzztime 30s ./internal/dfr
	$(GO) test -run '^$$' -fuzz FuzzDetectDeadlock -fuzztime 30s ./internal/wormsim
	$(GO) test -run '^$$' -fuzz FuzzLiveMaskedDistances -fuzztime 30s ./internal/topology

# FIGURES then STUDIES is the one list of commands that regenerate the
# committed results/ files, each at the fidelity it is committed at:
# mcfigures at -quick, every study at full fidelity, and full_static.txt
# (the static Figs 7.1-7.7 at the paper's 1000 repetitions, each table
# followed by a blank line). Every command that
# simulates runs with -simcheck, wormsim's invariant audit, which
# changes no output byte; so do check-results' -fig replays and its
# quick scale study. `make results` runs
# it into results/, `make check-results` into scratch directories that it
# compares with results/. It runs in a shell where $b holds the built
# commands, $o is the output directory and $p the -parallel count
# (0 = GOMAXPROCS). FIGURES stands apart because check-results also
# replays each file it writes through `mcfigures -fig`.
FIGURES = $$b/mcfigures -quick -simcheck -parallel $$p -out $$o
STUDIES = $$b/mcfault -simcheck -parallel $$p -out $$o && \
	$$b/mcchurn -simcheck -parallel $$p -out $$o && \
	$$b/mcserve -simcheck -parallel $$p -out $$o && \
	$$b/mcworkload -simcheck -parallel $$p -out $$o && \
	( for f in 1 2 3 4 5 6 7; do \
		$$b/mcfigures -parallel $$p -fig fig_7_$$f && echo || exit 1; \
	done ) >$$o/full_static.txt

# The committed results/ files that check-results does not compare: both
# hold host facts and wall-clock timings, which change from run to run.
# mcscale writes scale_study.txt; churn_study.txt comes with mcchurn's
# deterministic files.
UNPINNED = churn_study.txt scale_study.txt

## results: regenerate every committed table, figure and study, plus
## scale_study.txt, which only mcscale's full run writes
results:
	@b=$$(mktemp -d); trap 'rm -rf $$b' EXIT; o=results; p=0; \
	$(GO) build -o $$b/ ./cmd/... && $(FIGURES) && $(STUDIES) && $$b/mcscale -out $$o

## check-results: the reproduction gate. Regenerates every committed
## results/ file once with -parallel 1 and once with -parallel 4, and
## requires both runs to match results/ byte for byte in both directions:
## every output has a results/ copy and every results/ file is produced,
## except the two UNPINNED timing files. Then it replays every mcfigures
## file through `mcfigures -quick -fig` (-csv for the .csv files), runs
## the quick scale study, which aborts unless each timed run reproduces
## its warm-up run, and records and replays a workload trace
check-results:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; b=$$d/bin; \
	$(GO) build -o $$b/ ./cmd/... || exit 1; \
	for p in 1 4; do \
		o=$$d/p$$p; mkdir $$o; \
		{ $(FIGURES) && ls $$o >$$d/figures && $(STUDIES); } >/dev/null 2>$$d/stderr || \
			{ cat $$d/stderr; echo "check-results: regenerating results/ at -parallel $$p failed"; exit 1; }; \
		n=0; for f in $$( (ls results; ls $$o) | sort -u); do \
			case " $(UNPINNED) " in *" $$f "*) continue;; esac; \
			cmp results/$$f $$o/$$f || { echo "check-results: $$f at -parallel $$p does not match results/"; exit 1; }; \
			n=$$((n+1)); \
		done; \
		echo "check-results: $$n files byte-identical to results/ at -parallel $$p"; \
	done; \
	n=0; for f in $$(cat $$d/figures); do \
		csv=; case $$f in *.csv) csv=-csv;; esac; \
		$$b/mcfigures -quick -simcheck -fig $${f%.*} $$csv >$$d/stdout 2>$$d/stderr && cmp -s $$d/stdout results/$$f || \
			{ cat $$d/stderr; echo "check-results: mcfigures -quick -simcheck -fig $${f%.*} $$csv differs from results/$$f"; exit 1; }; \
		n=$$((n+1)); \
	done; \
	echo "check-results: $$n mcfigures files printed byte for byte by -fig"; \
	$$b/mcscale -quick -simcheck -out $$d/scale >/dev/null 2>$$d/stderr || \
		{ cat $$d/stderr; echo "check-results: mcscale -quick self-audit failed"; exit 1; }; \
	echo "check-results: mcscale -quick timed runs reproduce their warm-up runs"; \
	$$b/mcworkload -quick -record bursty -o $$d/bursty.trace >/dev/null 2>$$d/stderr && \
	$$b/mcworkload -quick -replay $$d/bursty.trace >/dev/null 2>>$$d/stderr || \
		{ cat $$d/stderr; echo "check-results: mcworkload trace record/replay failed"; exit 1; }; \
	echo "check-results: mcworkload trace record/replay round trip"
