# Developer entry points. `make check` is the PR gate: it must stay green
# on every change (gofmt + vet + build + race-clean tests + a benchmark
# smoke that proves the perf harness still runs). The byte- and bit-identity gates of
# the streamed scan, zone-map pushdown, sketch and tile layers are Go tests
# (DESIGN.md §12-§15), so `race` and `race-scan` run them.

GO ?= go

.PHONY: check fmt vet build test race race-scan fuzz-smoke bench bench-smoke bench-baseline bench-compare snapshot-verify load-smoke perfbench perfbench-test

check: fmt vet build race race-scan fuzz-smoke bench-smoke bench-compare snapshot-verify load-smoke perfbench-test

# fmt fails when any tracked .go file is not gofmt-clean, listing them.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')) && test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# vet covers the benchmark module too: go vet ./... stops at its go.mod.
vet:
	$(GO) vet ./...
	cd perfbench && GOPROXY=off GOFLAGS=-mod=readonly $(GO) vet .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-scan re-runs the streaming-scan packages under the race detector
# at GOMAXPROCS 1 and 4 (-cpu 1,4). Every "all CPUs" parallelism knob
# resolves to GOMAXPROCS (internal/parallel.Workers), so the second pass
# forces the parallel merge paths even on a 1- or 2-core box — the pooled
# batch buffers and per-file scanners of DESIGN.md §14 must stay
# race-clean when segments decode concurrently — while the first pins the
# serial paths the plain `race` run skips on multi-core machines.
race-scan:
	$(GO) test -race -cpu 1,4 ./internal/dataset/... ./internal/tilequery/... ./internal/ingest/...

# fuzz-smoke runs each fuzz target of internal/dataset (the CSV readers
# with their write/read/write oracle, the snapshot decoders and the block
# scanner, NDT association) and internal/ingest (the submission parser
# against encoding/json) for 5 s of new inputs; go test -fuzz takes one
# target per call. A failing input lands in the package's testdata/fuzz.
fuzz-smoke:
	@for p in ./internal/dataset ./internal/ingest; do \
		for t in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			echo "fuzz $$p $$t"; \
			$(GO) test -run NONE -fuzz "^$$t$$" -fuzztime 5s $$p || exit 1; \
		done; \
	done

# bench-smoke runs one iteration of the parallel stats and dataset
# generation benchmarks — enough to catch a broken benchmark without paying
# for a full measurement run.
bench-smoke:
	$(GO) test -run NONE -bench 'KDEGrid|FitGMM|SketchMerge' -benchtime 1x ./internal/stats/
	$(GO) test -run NONE -bench 'GenerateOokla/n=10000$$|WriteOoklaCSV|ReadOoklaCSV/n=100000|OoklaIngest/n=100000/src=(csv|snapshot)' -benchtime 1x ./internal/dataset/
	$(GO) test -run NONE -bench 'Fit|ClassifyOne' -benchtime 1x ./internal/core/
	$(GO) test -run NONE -bench 'IngestHTTPBatch64|IngestPipelineSubmit|PipelineSeal|ParseSubmission|ServerWarmRefresh|TilesHTTP' -benchtime 1x ./internal/ingest/
	$(GO) test -run NONE -bench 'TileAggregate/n=100000|TileQuery' -benchtime 1x ./internal/tilequery/

# bench runs the full stats + generation benchmark suite with memory stats.
# The n=1000000 generation sizes need more than go test's default 10m.
bench:
	$(GO) test -run NONE -bench 'KDEGrid|KDEPeaks|FitGMM|SketchMerge' -benchmem ./internal/stats/
	$(GO) test -run NONE -bench 'GenerateOokla|GenerateMLab|WriteOoklaCSV|ReadOoklaCSV|OoklaIngest' -benchmem -timeout 60m ./internal/dataset/
	$(GO) test -run NONE -bench 'AllSnapshot' -benchmem -timeout 60m ./cmd/speedctx/
	$(GO) test -run NONE -bench 'Fit|ClassifyOne' -benchmem ./internal/core/
	$(GO) test -run NONE -bench 'IngestHTTP|IngestPipelineSubmit|PipelineSeal|ParseSubmission|ServerWarmRefresh|TilesHTTP' -benchmem ./internal/ingest/
	$(GO) test -run NONE -bench 'TileScan|TileAggregate|TileQuery' -benchmem -timeout 30m ./internal/tilequery/

# bench-baseline records the perf trajectory file for this PR series:
# benchmark name -> ns/op. Compare future PRs against the committed
# BENCH_pr*.json files. The sub-second stats benches repeat 5 times and
# bench2json.sh keeps the per-bench minimum (noise on a shared VM only
# inflates samples). The multi-minute generation sizes run once — they pin
# large-n throughput, are stable run-to-run, and exist for the trajectory,
# not statistical precision.
bench-baseline:
	( $(GO) test -run NONE -bench 'KDEGrid|KDEPeaks|FitGMM|SketchMerge' -benchtime 2x -count 5 ./internal/stats/ ; \
	  $(GO) test -run NONE -bench 'GenerateOokla|GenerateMLab|WriteOoklaCSV' -benchtime 1x -timeout 60m ./internal/dataset/ ; \
	  $(GO) test -run NONE -bench 'ReadOoklaCSV|OoklaIngest' -benchtime 1x -count 3 -timeout 60m ./internal/dataset/ ; \
	  $(GO) test -run NONE -bench 'AllSnapshot' -benchtime 1x -count 2 -timeout 60m ./cmd/speedctx/ ; \
	  $(GO) test -run NONE -bench 'ClassifyOne' -benchtime 200000x -count 5 ./internal/core/ ; \
	  $(GO) test -run NONE -bench 'FitFromSketches' -benchtime 20x -count 5 ./internal/core/ ; \
	  $(GO) test -run NONE -bench 'IngestPipelineSubmit|ParseSubmission' -benchtime 200000x -count 3 ./internal/ingest/ ; \
	  $(GO) test -run NONE -bench 'ServerWarmRefresh' -benchtime 20x -count 5 ./internal/ingest/ ; \
	  $(GO) test -run NONE -bench 'IngestHTTP' -benchtime 3000x -count 3 ./internal/ingest/ ; \
	  $(GO) test -run NONE -bench 'TilesHTTP' -benchtime 2000x -count 3 ./internal/ingest/ ; \
	  $(GO) test -run NONE -bench 'TileScan' -benchtime 3x -count 3 -benchmem -timeout 30m ./internal/tilequery/ ; \
	  $(GO) test -run NONE -bench 'TileAggregate' -benchtime 10x -count 3 ./internal/tilequery/ ; \
	  $(GO) test -run NONE -bench 'TileQuery' -benchtime 200x -count 5 ./internal/tilequery/ ) \
		| scripts/bench2json.sh > BENCH_pr16.json
	@cat BENCH_pr16.json

# bench-compare gates the committed perf trajectory: fail if any benchmark
# shared with an earlier baseline regressed >10% (machine-normalized; see
# scripts/bench_compare.sh). The TileScanPushdown mode={full,push} entries
# — the headline of the zone-map predicate pushdown layer (DESIGN.md §15)
# — are new in BENCH_pr10; future PRs gate against them. The committed
# BENCH_pr16 keeps only the generation entries (GenerateOokla,
# GenerateMLab, AllSnapshot) of its bench-baseline run, after the
# exponential loss skip-ahead (DESIGN.md §9), so it gates against the files
# that carry generation entries (BENCH_pr4 on); BENCH_pr3 and BENCH_pr1
# hold stats entries only.
bench-compare:
	scripts/bench_compare.sh BENCH_pr16.json BENCH_pr10.json BENCH_pr9.json BENCH_pr8.json BENCH_pr7.json BENCH_pr6.json BENCH_pr5.json BENCH_pr4.json
	scripts/bench_compare.sh BENCH_pr10.json BENCH_pr9.json BENCH_pr8.json BENCH_pr7.json BENCH_pr6.json BENCH_pr5.json BENCH_pr4.json BENCH_pr3.json BENCH_pr1.json

# snapshot-verify is the end-to-end identity gate for the snapshot store
# (DESIGN.md §10): a no-snapshot run, a cold-cache run (generate + write
# .sxc) and a warm-cache run (load .sxc, skipping generation) of
# `speedctx all` must be byte-identical. The tempdir is left behind on
# failure for inspection.
snapshot-verify:
	@dir=$$(mktemp -d) && \
	$(GO) run ./cmd/speedctx all -scale 0.005 > $$dir/plain.txt && \
	$(GO) run ./cmd/speedctx all -scale 0.005 -snapshot-dir $$dir/snaps > $$dir/cold.txt && \
	$(GO) run ./cmd/speedctx all -scale 0.005 -snapshot-dir $$dir/snaps > $$dir/warm.txt && \
	cmp $$dir/plain.txt $$dir/cold.txt && cmp $$dir/plain.txt $$dir/warm.txt && \
	rm -rf $$dir && echo "snapshot-verify: cold and warm snapshot runs byte-identical"

# load-smoke is the serving-path gate: a bounded self-hosted run of the
# load generator through the real HTTP ingest server must complete with
# zero errors at >= 100k classified rows/sec (DESIGN.md §11). The floor is
# ~3x below what the single-core CI box sustains, so a failure means the
# hot path broke, not that the machine was busy.
load-smoke:
	$(GO) run ./cmd/speedctx load -rows 60000 -conns 4 -batch 64 -min-rate 100000

# perfbench runs one workload of the end-to-end benchmark declared in
# BENCHMARK.json (perfbench/README.md), e.g.
# `make perfbench WORKLOAD=ingest SEED=3 SECONDS=20`.
WORKLOAD ?= tiles
SEED ?= 1
SECONDS ?= 20
perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS)

# perfbench-test runs the benchmark module's own tests (every workload at
# tiny sizes, each correctness check against a corrupted output) offline
# against the checked-in sources.
perfbench-test:
	cd perfbench && GOPROXY=off GOFLAGS=-mod=readonly $(GO) test .
