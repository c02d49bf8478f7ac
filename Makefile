GO ?= go
FUZZTIME ?= 30s

# Package:target pairs for every native fuzz target in the tree; each
# -fuzz invocation must match exactly one target.
FUZZ_TARGETS := \
	./internal/cpu:FuzzRunToMarkerVsStep \
	./internal/dsp:FuzzPlanForwardVsNaiveDFT \
	./internal/dsp:FuzzForwardAsmVsPure \
	./internal/dsp:FuzzWelchPairVsSingle \
	./internal/dsp:FuzzBandProductsVsFull \
	./internal/isa:FuzzDecodeEncodeRoundTrip \
	./internal/isa:FuzzEncodeDecodeInstruction \
	./internal/savat:FuzzCampaignSpec \
	./internal/specan:FuzzBandWalkVsDisplay \
	./internal/store:FuzzStoreRecord \
	./internal/store:FuzzStoreHeader

.PHONY: build test bench bench-json bench-guard lint verify fuzz-smoke daemon-smoke repro-check

# Baseline snapshot cmd/benchguard compares against; re-record with
# `make bench-json` after intentional performance changes.
BENCH_BASELINE ?= BENCH_20260808.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full figure-matrix benchmarks (minutes; see README for current numbers).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkFig(09|12|14)Matrix' -benchtime=1x .

# Machine-readable benchmark snapshot: compile and run EVERY benchmark
# in the tree — multiple iterations per run and multiple runs per
# benchmark, so each recorded metric is a cross-run mean with a
# variance field instead of a single noisy sample — and write the
# aggregate to BENCH_<YYYYMMDD>.json (for tracking perf trajectories
# across commits).
BENCH_JSON_TIME ?= 2x
BENCH_JSON_COUNT ?= 3
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime=$(BENCH_JSON_TIME) -count=$(BENCH_JSON_COUNT) ./... > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) run ./cmd/benchjson -out BENCH_$$(date +%Y%m%d).json < bench.out
	@rm -f bench.out

# Static analysis: vet always; staticcheck when installed (CI installs a
# pinned version, local runs without it degrade gracefully).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipped (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

# Perf contract on the campaign hot path: the streaming measurement with
# the observability registry disabled must stay within BUDGET of the
# recorded baseline (NOISE is slack for run/machine variance — CI
# runners are not the baseline machine), the steady state on a warmed
# scratch must perform zero heap allocations per cell — on the
# synthesis-cache miss path and on the hit path that serves 10 of every
# 11 Fig 9 cells — and the disabled instrumentation sites themselves
# must report exactly 0 allocs/op. The guarded benchmarks run five
# times and benchguard compares their mean: one 20-iteration run sits
# within run-to-run noise of the limit.
# The anchors allow the "-N" suffix `go test` appends to names when
# GOMAXPROCS is N ≠ 1; benchguard strips it to find the baseline row.
BENCH_GUARD_BUDGET ?= 0.01
BENCH_GUARD_NOISE ?= 0.25
bench-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkMeasureKernel(Scratch|Cached)$$' -benchtime 20x -count 5 . > benchguard.out || (cat benchguard.out; rm -f benchguard.out; exit 1)
	$(GO) test -run '^$$' -bench 'BenchmarkDisabled' -benchtime 1000x ./internal/obs >> benchguard.out || (cat benchguard.out; rm -f benchguard.out; exit 1)
	$(GO) run ./cmd/benchguard -baseline $(BENCH_BASELINE) -only 'MeasureKernelScratch(-[0-9]+)?$$' \
		-zeroalloc 'BenchmarkMeasureKernel(Scratch|Cached)(-[0-9]+)?$$|BenchmarkDisabled' \
		-budget $(BENCH_GUARD_BUDGET) -noise $(BENCH_GUARD_NOISE) < benchguard.out
	@rm -f benchguard.out

# Tier-1 gate plus a perf smoke: vet, race-enabled tests, and one pass of
# the Figure 9 matrix benchmark so fast-path breakage (correctness or a
# gross slowdown) is caught before it lands.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench BenchmarkFig09MatrixCore2Duo10cm -benchtime=1x .

# End-to-end smoke of the campaign daemon: builds savatd, starts it on
# a random port, submits a 3×3 campaign over HTTP, cancels it mid-run,
# resubmits to resume from the cells the cancelled run cached, streams
# the events, diffs the served matrix bit-for-bit against a direct
# in-process run, then SIGKILLs the daemon mid-campaign and proves the
# restart resumes from the durable cell store.
daemon-smoke:
	$(GO) run ./cmd/daemonsmoke

# "Same numbers" end to end: build cmd/reproduce, run the full protocol
# (about 15 s on 2 vCPUs), and diff its output against the committed
# reproduce_full.txt. The output is deterministic (fixed seeds, FFT
# kernels bit-identical by construction), so any difference is a change
# in a reproduced number. After an intentional model change, regenerate
# the file with `go run ./cmd/reproduce > reproduce_full.txt`.
repro-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/reproduce" ./cmd/reproduce; \
	"$$tmp/reproduce" > "$$tmp/out.txt"; \
	diff -u reproduce_full.txt "$$tmp/out.txt"; \
	echo "repro-check: output matches reproduce_full.txt"

# Short coverage-guided run of every fuzz target (FUZZTIME each); the
# committed seed corpora additionally run as plain unit tests in `test`.
fuzz-smoke:
	@set -e; for spec in $(FUZZ_TARGETS); do \
		pkg=$${spec%%:*}; target=$${spec##*:}; \
		echo "fuzz $$pkg $$target"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME); \
	done
