GO ?= go

# Pinned versions of the external linters the lint job runs. Pinned, not
# @latest: a new upstream release must not be able to break CI before a
# human has looked at it. Bump deliberately, in a PR of its own.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test test-purego test-avx2 race verify lint lint-tools chaos-smoke fuzz \
	fuzz-smoke bench bench-smoke bench-permute bench-ckpt bench-telemetry \
	bench-oocvec bench-kernels bench-diag bench-repo coverage lines fusion-check verify-sets

# Compile every package and link every command into bin/, so a broken
# main package fails the build even though `go build ./...` discards
# command binaries.
build:
	$(GO) build ./...
	$(GO) build -o bin/ ./cmd/...

# Tier-1: what CI runs on every change. bench/ is a nested module, so
# ./... skips it; vetting it here is what compiles it against the packages
# it imports, so deleting an exported name it uses fails this target.
test:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) test ./...

# The pure-Go kernels behind the purego build tag — what runs on anything
# but amd64 with AVX2+FMA — through the packages that execute
# or price them: every back end reaches them through the one shard applier
# (internal/schedule/exec.go), so every back end is in the list, and then
# through the whole differential matrix, as test-avx2 does for the AVX2 set.
KERNEL_PKGS = ./internal/kernels/... ./internal/statevec/... ./internal/f32vec/... ./internal/schedule/... ./internal/dist/... ./internal/oocvec/... ./internal/verify/...
test-purego:
	$(GO) test -tags purego $(KERNEL_PKGS)
	$(GO) run -tags purego ./cmd/qverify -quick

# The AVX2+FMA kernels behind the noavx512 build tag — what runs on an
# amd64 CPU without AVX-512 — through the same packages and then through
# the whole differential matrix, so a host whose default build runs the
# AVX-512 set still executes the AVX2 set end to end. (On a host without
# AVX-512 the tag changes nothing and this repeats `make test`.)
test-avx2:
	$(GO) test -tags noavx512 $(KERNEL_PKGS)
	$(GO) run -tags noavx512 ./cmd/qverify -quick

# The kernel sets compute one arithmetic: qverify -quick under the default
# build, the noavx512 tag and the purego tag must print the same digits on
# every double-precision row whose plan is the same on every set — the
# per-gate rows (kernels/<isa>, statevec/*), the baseline/* rows and the
# +paper rows — the set's name aside. The other rows are planned by
# MeasuredCosts, whose price list, and so whose plans, differ between sets.
verify-sets:
	@ref=""; for tags in "" noavx512 purego; do \
		out=$$($(GO) run -tags "$$tags" ./cmd/qverify -quick) || { echo "$$out"; exit 1; }; \
		rows=$$(echo "$$out" | grep -E '^  (kernels/|statevec/|baseline/|(dist|schedule|oocvec)/[^ ]*\+paper )' | \
			sed -E 's#^  kernels/[a-z0-9]+#  kernels/<isa>#; s/ +/ /g'); \
		if [ -z "$$ref" ]; then ref=$$rows; continue; fi; \
		if [ "$$rows" != "$$ref" ]; then \
			printf 'verify-sets: -tags %s differs from the default build:\n%s\n--- default build:\n%s\n' "$$tags" "$$rows" "$$ref"; exit 1; \
		fi; \
	done; \
	echo "verify-sets: $$(echo "$$ref" | wc -l) f64 rows agree under the default, noavx512 and purego builds"

# The pure-Go kernels' arithmetic is spelled out: every product that
# accumulates is an explicit math.FMA and every other one is wrapped in a
# conversion, because the Go spec lets a compiler fuse x*y + z or not — and
# arm64's does. Cross-compile internal/kernels for arm64 and fail on any
# fused multiply-add instruction (FMADD, FMSUB, FNMADD, FNMSUB, D or S form)
# whose source line is not a math.FMA call.
fusion-check:
	@out=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/kernels 2>&1) || { echo "$$out"; exit 1; }; \
	echo "$$out" | sed -nE 's/.*\(([^()]+\.go):([0-9]+)\)[[:space:]]+FN?M(ADD|SUB)[DS][[:space:]].*/\1 \2/p' | { \
		fused=0; bad=0; \
		while read -r file line; do \
			fused=$$((fused + 1)); \
			sed -n "$${line}p" "$$file" | grep -q 'math\.FMA' || { bad=$$((bad + 1)); echo "fused outside math.FMA: $$file:$$line"; }; \
		done; \
		echo "fusion-check: $$fused fused multiply-adds, $$bad outside a math.FMA call"; \
		[ $$fused -gt 0 ] && [ $$bad -eq 0 ]; }

# Tier-1 with the race detector — required before merging anything that
# touches internal/par, internal/mpi, internal/dist, internal/ckpt,
# internal/oocvec or internal/telemetry.
# internal/mpi's tests put the in-place exchange under DefaultFaults with
# pieces smaller than a region, which is where its step protocol could race.
# The exchange is the one path payload takes between ranks — GroupAlltoall
# runs it too, on a staging shard — so its tests and the all-to-all's run ten
# times over, for the interleavings one pass rarely reaches.
# The repeated par run stresses the pool's handoff — a worker polling the
# queue, parking, and being woken — which one pass rarely interleaves badly.
# The repeated snapshot run does the same for the one snapshot writer
# (ckpt.Snapshot), which every rank goroutine and the paged reader reach:
# its tee, ENOSPC-drop, write-behind and recovery tests, and two
# checkpointed runs at once, each on its own file system — and for the
# paged pipeline, whose writeback goroutine stages combined writes.
race:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'TestFor|TestReduce|TestTelemetry' ./internal/par
	$(GO) test -race -count=10 -run 'GroupExchange|GroupAlltoall' ./internal/mpi
	$(GO) test -race -count=10 -run 'Snapshot|Tee|Checkpoint|Killed|ENOSPC|DiscardStage|Recovery|Resume|TwoRuns|Pipeline|WriteBehind|Coalesce' ./internal/ckpt ./internal/dist ./internal/oocvec

# Differential + metamorphic verification across every backend pair,
# plus MPI fault-injection scenarios (see DESIGN.md §6).
verify: build lint
	$(GO) run ./cmd/qverify -quick

# Domain lint (DESIGN.md §10): build qlint and run every analyzer over
# every package, then the pinned external linters. -strict-ignores makes a
# stale //qlint:ignore directive an exit-code-visible finding, so dead
# suppressions cannot accumulate. QLINT_FLAGS lets CI add -github/-json
# without a second target. staticcheck/govulncheck are skipped with a
# notice when not installed (they need the network to install, which the
# offline dev loop may not have); `make lint-tools` installs them and CI
# always runs with them present.
QLINT_FLAGS ?=
lint:
	$(GO) build -o bin/qlint ./cmd/qlint
	./bin/qlint -strict-ignores $(QLINT_FLAGS) ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed (make lint-tools); skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed (make lint-tools); skipping"; \
	fi

# Install the pinned external linters (network required; CI caches the
# result keyed on this Makefile, so the pins are the cache key).
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Chaos soak (DESIGN.md §13): seeded random circuits across the
# statevec/dist/oocvec backends under composed rank, disk and stall fault
# schedules, asserting every run lands bitwise identical to a clean one.
# The pinned seed keeps the CI job deterministic; bump -runs (or loop over
# seeds) for a longer local soak. A mismatch drops a ddmin-minimized
# reproducer circuit under chaos-repro/.
chaos-smoke:
	$(GO) run ./cmd/qchaos -seed 1 -runs 25 -budget 60s -repro chaos-repro -v

# Longer fuzz burst for the scheduler equivalence oracle.
fuzz:
	$(GO) test ./internal/schedule -fuzz FuzzScheduleEquivalence -fuzztime 60s

# A burst of FUZZTIME over every fuzz target, the one list of them: CI runs
# it as is, the nightly with FUZZTIME=60s (one -fuzz pattern per go test
# invocation is a toolchain limit).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/schedule -fuzz FuzzScheduleEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schedule -fuzz FuzzChunkAccess -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schedule -fuzz FuzzReadPlan -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -fuzz FuzzShardDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernels -fuzz FuzzBitPermutation -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernels -fuzz FuzzSIMDKernel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/kernels -fuzz FuzzDiagonal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/statevec -fuzz FuzzSampler -fuzztime $(FUZZTIME)
	$(GO) test ./internal/circuit -fuzz FuzzReadText -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oocvec -fuzz FuzzPagedLayout -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench=. -benchmem

# CI's parse gate: every benchmark must run one iteration and produce
# output benchjson -strict accepts.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson -strict > /dev/null

# Permutation perf baseline: runs the in-place permutation benchmark and
# records the results (with the derived speedup over the SwapBits-chain
# baseline) in BENCH_permute.json.
# Three repetitions; benchjson keeps the fastest of each to suppress
# scheduler noise on shared machines.
bench-permute:
	$(GO) test -run '^$$' -bench 'BenchmarkPermute' -benchtime 5x -count 3 . | $(GO) run ./cmd/benchjson > BENCH_permute.json

# Checkpoint subsystem baseline: shard write/restore throughput and the
# end-to-end overhead per-stage snapshots add to a distributed run,
# recorded (with the derived checkpointed-vs-plain ratio) in
# BENCH_ckpt.json. Ten iterations a row: at three, the ooc ratio of one
# tree spread wider on a shared host than a checkpoint change moves it.
bench-ckpt:
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint' -benchtime 10x -count 3 . | $(GO) run ./cmd/benchjson > BENCH_ckpt.json

# Telemetry overhead baseline: the same distributed run with telemetry
# disabled and enabled; the derived enabled-vs-disabled ratio recorded in
# BENCH_telemetry.json is the disabled-path overhead bound (the "enabled"
# speedup must stay ≥ 0.98, i.e. ≤ 2% overhead, per DESIGN.md §9).
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead' -benchtime 3x -count 3 . | $(GO) run ./cmd/benchjson > BENCH_telemetry.json

# Kernel-suite baseline: per-k f32-vs-f64 pairs of the kernels this machine
# runs (kernels.ISA) and the diagonal-sweep pair on a 1 GiB state,
# the per-gate supremacy-circuit precision pair (every gate k ≤ 2), the
# default-plan fused-vs-unfused execution pair, the norm/entropy
# reductions as MB/s of state read, the cache-resident twin of every f64
# kernel row (one 1 MiB block swept until it has updated as many amplitudes:
# the rate an op runs at inside a blocked run), the blocked-vs-per-op
# execution pairs and what a 2^24-amplitude state costs outside its kernels
# (allocate, one sweep, drop, return to the OS), recorded (with the derived
# f32/f64, fused/separate, blocked/perop and avx512/avx2 speedups) in
# BENCH_kernels.json. Rows carry the kernel set that ran: the default
# build's ("avx512" on a host with AVX-512, "avx2" otherwise), from a second
# run under -tags noavx512 the "avx2" set's rows, and from a third under
# -tags purego the "go" set's f64 rows. Each set's f64 rows over its
# k1/f64 are the price list internal/schedule/cost.go compiles in as
# MeasuredCosts (TestMeasuredCostsMatchBenchFile holds the two together):
# refresh the constants there when this file moves, and no speedup may read
# below 1 — except the go rows, which stay the hand-unrolled kernels' until
# ROADMAP item 3(a) has landed (cost.go says why): keep the file's go rows
# when refreshing the others. Three repetitions; benchjson keeps the
# fastest of each, which also drops the first-touch page-fault cost of the
# 1 GiB state allocations.
bench-kernels:
	($(GO) test -run '^$$' -bench 'BenchmarkKernelPrecision|BenchmarkCircuitPrecision|BenchmarkKernelFusion|BenchmarkReduce|BenchmarkBlockedRun|BenchmarkStateAlloc' -benchtime 3x -count 3 -timeout 60m . && \
	 $(GO) test -tags noavx512 -run '^$$' -bench 'BenchmarkKernelPrecision/avx2/' -benchtime 3x -count 3 -timeout 60m . && \
	 $(GO) test -tags purego -run '^$$' -bench 'BenchmarkKernelPrecision/go/./f64' -benchtime 3x -count 3 -timeout 60m .) | $(GO) run ./cmd/benchjson > BENCH_kernels.json

# Diagonal-kernel baseline: the QFT's diagonal shapes (five wide with the
# lowest position 0, 1, 2 and 4; the global [19 22]) streamed from DRAM and
# as ops inside a blocked run, both precisions, under the default build's
# kernel set and, from a second run under -tags noavx512, the avx2 set —
# recorded (with the derived f32/f64 and avx512/avx2 speedups) in
# BENCH_diag.json. A ledger only: the price list stays BENCH_kernels.json's.
bench-diag:
	($(GO) test -run '^$$' -bench 'BenchmarkDiagonal' -benchtime 10x -count 3 . && \
	 $(GO) test -tags noavx512 -run '^$$' -bench 'BenchmarkDiagonal' -benchtime 10x -count 3 .) | $(GO) run ./cmd/benchjson > BENCH_diag.json

# Out-of-core prefetch baseline: the stage pipeline with read-ahead vs the
# same pipeline at depth 0 (one buffer, no overlap) on a 28-qubit (4 GiB
# state file) run, recorded (with the derived prefetch-vs-depth0 speedup —
# what overlapping I/O with compute buys, which must read ≥ 1 — and the
# prefetch-hit rate) in BENCH_oocvec.json. Override QUSIM_OOC_QUBITS /
# QUSIM_OOC_CHUNK to size to the machine (state file = 16·2^qubits bytes,
# chunk buffer = 16·2^chunk bytes, both ×2 transiently during a swap).
bench-oocvec:
	QUSIM_OOC_QUBITS=28 QUSIM_OOC_CHUNK=22 $(GO) test -run '^$$' -bench 'BenchmarkOOCPrefetch' -benchtime 1x -count 2 -timeout 60m . | $(GO) run ./cmd/benchjson > BENCH_oocvec.json

# The repository benchmark (BENCHMARK.json, bench/README.md): six named
# workloads end to end — time to solution, set-up, peak RSS — with every
# correctness check enforced. The end-to-end check for scheduler and kernel
# changes; BENCH_ARGS passes flags through, e.g.
# BENCH_ARGS='--workload sup24-f64 --trace 1'.
BENCH_ARGS ?=
bench-repo:
	bash bench/run.sh $(BENCH_ARGS)

# Coverage floors for the physics-scoring packages and the linter. The
# gate is deliberately narrow: xeb and noise decide whether a perf PR also
# broke the physics, so their estimator/trajectory logic stays ≥ 90%
# covered; the analyzers stay ≥ 85%.
coverage:
	@for entry in ./internal/xeb:90 ./internal/noise:90 ./internal/analysis:85; do \
		pkg=$${entry%:*}; floor=$${entry##*:}; \
		$(GO) test -coverprofile=coverage.out $$pkg >/dev/null || exit 1; \
		total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{gsub(/%/,"",$$3); print $$3}'); \
		echo "coverage: $$pkg $$total% (floor $$floor%)"; \
		if [ "$$(awk -v t="$$total" -v f="$$floor" 'BEGIN { print (t+0 >= f+0) ? 1 : 0 }')" != "1" ]; then \
			echo "coverage: $$pkg is below the $$floor% floor"; exit 1; \
		fi; \
	done

# The line ledger: rewrite LINES.txt (hand-written non-test lines per
# package, one row per generated file) from the tree. TestLineLedger, part
# of `go test ./...`, fails on any row that differs, so commit the rewrite
# with the change that moved it.
lines:
	$(GO) test -run TestLineLedger . -args -update
