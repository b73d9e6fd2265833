# Standard workflows for the repro module. Everything is stdlib-only Go;
# no external tools are required beyond the Go toolchain.

GO ?= go

.PHONY: all build vet test race bench bench-build bench-kernels bench-p2p bench-engine bench-catalog bench-trace bench-serve bench-serve-smoke bench-router bench-mutate bench-mutate-width check flake docs-check loc stress fuzz experiments sim-csv-check examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-sensitive packages, run under the race detector by both
# `race` and `check`: the block-parallel DIMACS reader, the concurrent
# traversal core, the delta-stepping, Dijkstra-family and BFS kernels
# (source-set seeding) and the runtime under them, the query engine, the graph
# catalog and snapshot format, the tracing and metrics layers, the shared HTTP
# skeleton, both daemons and the routing tier, the stress oracles (queries in
# flight on a generation while its answers are inherited), and the root package.
RACE_PKGS = ./internal/dimacs ./internal/core ./internal/cc ./internal/deltastep \
	./internal/bfs ./internal/dijkstra ./internal/mlb ./internal/par ./internal/mta \
	./internal/obs ./internal/engine ./internal/catalog ./internal/snapshot \
	./internal/trace ./internal/loadgen ./internal/router ./internal/httpx \
	./internal/mutate ./internal/stress ./cmd/ssspd ./cmd/ssspr .

race:
	$(GO) test -race $(RACE_PKGS)

# Flake hunt over the lifecycle/concurrency set (ROADMAP 8a): many plain
# repetitions, then the same set contended — GOMAXPROCS 1 and 4, below and
# above a two-vCPU host — then fewer under the race detector. Run before
# merging a change to any of these packages.
FLAKE_PKGS = ./internal/catalog ./internal/engine ./internal/stress \
	./internal/router ./internal/httpx ./cmd/ssspd ./cmd/ssspr

flake:
	$(GO) test -count=25 $(FLAKE_PKGS)
	$(GO) test -cpu 1,4 -count=10 $(FLAKE_PKGS)
	$(GO) test -race -count=5 $(FLAKE_PKGS)

bench:
	$(GO) test -bench=. -benchmem ./...

# The serving kernels side by side (EXPERIMENTS.md, "Bucket width from the
# weights"): BenchmarkKernel of internal/core — exec Thorup beside
# delta-stepping with the bucket width measured from the weights (arm delta)
# and with the paper's C/d (delta-paper), one process, so a cell's three arms
# run seconds apart — and of internal/deltastep (the two delta arms alone),
# on the seven families at logn 16 and 19, one source and nearest-of-4, warm,
# one goroutine. Five passes over all of it, five iterations a cell each, so
# that a cell's five readings are minutes apart on a host whose speed drifts;
# the CSV holds each cell's median, minimum and maximum in ms. ~20 minutes.
bench-kernels:
	for pass in 1 2 3 4 5; do \
		$(GO) test -run '^$$' -bench 'Kernel/logn=/./k=/^(exec|delta|delta-paper)$$' -benchtime 5x -cpu 1 -timeout 90m ./internal/core | sed 's/^Benchmark/core Benchmark/' && \
		$(GO) test -run '^$$' -bench 'Kernel' -benchtime 5x -cpu 1 -timeout 90m ./internal/deltastep | sed 's/^Benchmark/deltastep Benchmark/' || exit 1; \
	done \
	| awk -F'[/ \t]+' '$$2 == "BenchmarkKernel" { print $$1 "," substr($$3,6) "," $$4 "," substr($$5,3) "," $$6 "," $$8/1e6 }' \
	| sort -t, -k1,1 -k2,2n -k3,3 -k4,4n -k5,5 -k6,6n \
	| awk -F, 'BEGIN { print "bench,logn,family,k,arm,median_ms,min_ms,max_ms" } \
		{ key = $$1 "," $$2 "," $$3 "," $$4 "," $$5; if (key != last) { flush(); last = key; n = 0 } v[++n] = $$6 } \
		END { flush() } \
		function flush() { if (n) printf "%s,%.2f,%.2f,%.2f\n", last, v[int((n+1)/2)], v[1], v[n] }' \
	> results/bench-kernels.csv
	@cat results/bench-kernels.csv

# The table behind the targeted-query budget (EXPERIMENTS.md, "Answer the
# question that was asked"; DESIGN.md §5, decision 16): BenchmarkST of
# internal/dijkstra on the seven families at logn 16 — the balanced
# bidirectional search, the same search on lazy binary heaps without pruning,
# the min-key alternation that preceded both, a first-touch
# targeted query (search under the n/32 budget, full delta-stepping solve if it
# gives up) and the full solve alone, 400 random pairs a cell, one goroutine.
# Three passes, interleaved like bench-kernels; a cell's row is the median,
# minimum and maximum of its per-pair mean in ms, then the median of its
# settled_p50, settled_p95 and bail share (empty for the arms that do not
# search without a budget). ~2 minutes.
bench-p2p:
	for pass in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'ST$$/' -benchtime 400x -cpu 1 -timeout 30m ./internal/dijkstra || exit 1; \
	done \
	| awk -F'[/ \t]+' '$$1 == "BenchmarkST" { p50 = p95 = bail = ""; \
		for (i = 7; i < NF; i++) { if ($$(i+1) == "settled_p50") p50 = $$i; if ($$(i+1) == "settled_p95") p95 = $$i; if ($$(i+1) == "bail_share@n") bail = $$i } \
		print "dijkstra," substr($$2,6) "," $$3 "," substr($$4,3) "," $$5 "," $$7/1e6 "," p50 "," p95 "," bail }' \
	| sort -t, -k1,1 -k2,2n -k3,3 -k4,4n -k5,5 -k6,6n \
	| awk -F, 'BEGIN { print "bench,logn,family,k,arm,median_ms,min_ms,max_ms,settled_p50,settled_p95,bail_share" } \
		{ key = $$1 "," $$2 "," $$3 "," $$4 "," $$5; if (key != last) { flush(); last = key; n = 0 } n++; v[n] = $$6; a[n] = $$7; b[n] = $$8; c[n] = $$9 } \
		END { flush() } \
		function flush() { if (n) { m = int((n+1)/2); printf "%s,%.3f,%.3f,%.3f,%s,%s,%s\n", last, v[m], v[1], v[n], a[m], b[m], c[m] } }' \
	> results/bench-p2p.csv
	@cat results/bench-p2p.csv

# Query-engine comparison benchmarks (pooled vs cold, cache hit vs miss,
# batch-64 vs 64 sequential HTTP queries), written to BENCH_engine.json.
bench-engine:
	BENCH_ENGINE_OUT=$(CURDIR)/BENCH_engine.json \
		$(GO) test -run TestWriteEngineBenchJSON -count=1 -v ./cmd/ssspd

# Catalog comparison benchmarks (the graph-activation ladder: text parse +
# CH build, snapshot copy load, cold and warm mmap loads), written to
# BENCH_catalog.json.
# Gates: copy load faster than a text activation's parse + build (>= 2x),
# warm mmap >= 50x over the copy load.
bench-catalog:
	BENCH_CATALOG_OUT=$(CURDIR)/BENCH_catalog.json \
		$(GO) test -run TestWriteCatalogBenchJSON -count=1 -v ./internal/catalog

# Tracing overhead benchmark: client-observed p50/p99 query latency with the
# tracing layer at its default 1-in-100 sampling vs disabled, written to
# BENCH_trace.json. Fails if the p50 overhead reaches 5%.
bench-trace:
	BENCH_TRACE_OUT=$(CURDIR)/BENCH_trace.json \
		$(GO) test -run TestWriteTraceBenchJSON -count=1 -v ./cmd/ssspd

# Service-level benchmarks: the committed workload specs in
# testdata/workloads (Zipf single-query, batch-heavy, cache-hostile,
# mixed-mutate) run at
# full size against a hermetic ssspd via the open/closed-loop load generator
# (cmd/loadgen), written to BENCH_serve.json. FAILS if any workload violates
# its committed SLO (p99 latency, error rate, achieved-rate fraction) — this
# is the serving-path regression gate.
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_serve.json \
		$(GO) test -run TestWriteServeBenchJSON -count=1 -v ./cmd/ssspd

# Routing-tier benchmark: the committed workload specs run both directly
# against one ssspd and through ssspr fronting two replica backends, written
# to BENCH_router.json. FAILS if any workload violates its SLO through the
# router or the router's best-of-trials p99 overhead over direct exceeds
# 2ms; also records the measured failover re-route latency.
bench-router:
	BENCH_ROUTER_OUT=$(CURDIR)/BENCH_router.json \
		$(GO) test -run TestWriteRouterBenchJSON -count=1 -v -timeout 20m ./cmd/ssspd

# Mutation benchmark: a small additive delta's incremental hierarchy repair
# vs a from-scratch rebuild on the same mutated graph, plus the end-to-end
# generation step, a delete-bearing (general-repair) delta, and Catalog.Mutate
# for both deltas on a lineage that has demanded its hierarchy and on one that
# has not (catalog_mutate_*), written to BENCH_mutate.json. FAILS if the
# additive repair is not >= 10x faster than the rebuild.
bench-mutate:
	BENCH_MUTATE_OUT=$(CURDIR)/BENCH_mutate.json \
		$(GO) test -run TestWriteMutateBenchJSON -count=1 -v ./internal/mutate

# A write priced by its width (DESIGN.md §5, decision 18): BenchmarkMutateWidth
# of internal/mutate — Mutate (overlay + repair) against BuildKruskal of the
# mutated graph, rand at logn 14 and 16, additive and general batches touching
# 0.05% to 100% of the vertices. Three interleaved passes, three iterations a
# cell each; a cell's row is the median, minimum and maximum ms of each arm and
# the ratio of the medians. The parent-side rows (the arm is named after the
# commit they were measured on) are kept as they are. ~1 minute.
bench-mutate-width:
	parent=$$(grep ',fallback@' results/mutate-width.csv 2>/dev/null); \
	for pass in 1 2 3; do \
		$(GO) test -run '^$$' -bench MutateWidth -benchtime 3x -cpu 1 -timeout 30m ./internal/mutate || exit 1; \
	done \
	| awk -F'[/ \t]+' '$$1 == "BenchmarkMutateWidth" { print substr($$2,6) "," $$3 "," substr($$4,9,length($$4)-9) "," int($$12) "," int($$10) "," substr($$5,5) "," $$7/1e6 }' \
	| sort -t, -k1,1n -k2,2 -k3,3n -k6,6 -k7,7n \
	| awk -F, 'BEGIN { print "logn,batch,touched_pct,touched,ops,arm,median_ms,min_ms,max_ms,ratio" } \
		{ key = $$1 "," $$2 "," $$3 "," $$4 "," $$5 "," $$6; if (key != last) { flush(); last = key; n = 0 } v[++n] = $$7 } \
		END { flush() } \
		function flush() { if (!n) return; med = v[int((n+1)/2)]; split(last, k, ","); \
			if (k[6] == "build") { build = med; printf "%s,%.3f,%.3f,%.3f,1\n", last, med, v[1], v[n] } \
			else printf "%s,%.3f,%.3f,%.3f,%.2f\n", last, med, v[1], v[n], med / build }' \
	> results/mutate-width.csv && \
	if [ -n "$$parent" ]; then echo "$$parent" >> results/mutate-width.csv; fi
	@cat results/mutate-width.csv

# Shrunk always-on slice of bench-serve: every committed workload spec
# parses, matches the bench catalog, and passes its SLO at smoke size.
bench-serve-smoke:
	$(GO) test -run 'TestServeWorkloadSmoke|TestServeWorkloadsExpandDeterministically|TestServeStallInjectionTripsGate' \
		-count=1 ./cmd/ssspd

# The repo benchmark (bench/, BENCHMARK.json) is its own module compiled
# against this one's internal packages: vet it and run its short tests, so an
# API change that would stop it building fails here and not in the driver.
bench-build:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# Fast pre-merge gate: static checks — also for a platform without mmap
# (windows: the snapshot package's mmap_stub.go) and a big-endian one (s390x:
# the copy read's byte swap), which no test on a little-endian unix host
# compiles — the documentation linter, the out-of-module benchmark's build,
# the race detector over RACE_PKGS, the serving smoke slice, and the seeded
# stress sweep.
check:
	$(GO) vet ./...
	GOOS=windows $(GO) vet ./...
	GOARCH=s390x $(GO) vet ./...
	$(MAKE) docs-check
	$(MAKE) bench-build
	$(GO) test -race $(RACE_PKGS)
	$(MAKE) bench-serve-smoke
	$(MAKE) stress

# Documentation lint: every intra-repo markdown link must resolve and every
# internal/* package must carry a package comment (see cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck

# The line counts ROADMAP.md quotes, so a simplicity PR's before/after is one
# command on each commit (find and wc -l only): non-test Go in the root
# module and in bench/, test Go, then non-test Go per package directory.
loc:
	@echo "root non-test Go  $$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "bench non-test Go $$(find bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go           $$(find . -name '*_test.go' | xargs cat | wc -l)"
	@for d in $$(find . -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; done

# Deterministic differential/metamorphic stress sweep, race-enabled: every
# graph family x every solver, cross-checked pairwise, certified, transformed,
# and hammered with concurrent queries. Also replays the regression corpus in
# testdata/stress. Reproduce any reported failure with the printed
# `-replay` command.
STRESS_SEED ?= 1
stress:
	$(GO) test -race -count=1 ./internal/stress ./internal/solver
	$(GO) run -race ./cmd/stress -seed $(STRESS_SEED) -rounds 2 -max-n 192 -quiet

# Short fuzzing passes over the format parsers and the solver cross-checks
# (~10s per target).
fuzz:
	$(GO) test -fuzz FuzzReadGraph -fuzztime 10s ./internal/dimacs
	$(GO) test -fuzz FuzzReadSources -fuzztime 10s ./internal/dimacs
	$(GO) test -fuzz FuzzSnapshotRead -fuzztime 10s ./internal/snapshot
	$(GO) test -fuzz FuzzWorkloadSpec -fuzztime 10s ./internal/loadgen
	$(GO) test -fuzz FuzzMutateRequest -fuzztime 10s ./internal/mutate
	$(GO) test -fuzz FuzzRoutingTable -fuzztime 10s ./internal/router
	$(GO) test -fuzz FuzzThorupVsDijkstra -fuzztime 10s ./internal/core
	$(GO) test -fuzz FuzzDeltaStepVsDijkstra -fuzztime 10s ./internal/core
	$(GO) test -fuzz FuzzMLBVsDijkstra -fuzztime 10s ./internal/core
	$(GO) test -fuzz FuzzSTVsDijkstra -fuzztime 10s ./internal/core
	$(GO) test -fuzz FuzzRadix -fuzztime 10s ./internal/pq

# Regenerate every table and figure of the paper at the default scale.
experiments:
	$(GO) run ./cmd/experiments -all -csv results/csv | tee results/experiments-logn16.txt

# The committed tables that do not depend on the clock — simulated MTA-2
# cycles, counts and sizes — must regenerate byte-identical: the sim-mode
# kernels under them are frozen (DESIGN.md §5, decisions 9 and 11). Every
# experiment is regenerated into a temporary directory and compared with
# results/csv, except the four files that hold wall-clock timings and differ
# between any two runs.
sim-csv-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -all -csv "$$tmp" >/dev/null && \
	diff -r -x table1.csv -x ablation-buckets.csv -x ablation-ch.csv -x portfolio.csv results/csv "$$tmp" && \
	echo "sim-csv-check: results/csv regenerates byte-identical"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialnetwork
	$(GO) run ./examples/roadnetwork
	$(GO) run ./examples/manysources
	$(GO) run ./examples/facilities

clean:
	$(GO) clean ./...
