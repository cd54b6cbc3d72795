GO ?= go

# Pinned external analyzers (the go run tool@version pattern keeps
# them out of go.mod). The targets below probe the module cache with
# GOPROXY=off first, so an offline machine skips them with a notice
# instead of failing ci.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test vet fmt-check race check serve-test ci experiments \
	lint-self staticcheck govulncheck audit results-check race-smoke race-sweep \
	cluster-smoke bench-smoke plan-guard vm-guard native-guard loc soak fuzz-soak cross

all: build test

build:
	$(GO) build ./...

# Tier-1: the gate every change must keep green.
test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to say about any tracked Go
# file outside bench/ (frozen by BENCHMARK.json, its own module) — the
# examples that build and vet compile included.
fmt-check:
	@test -z "$$(gofmt -l cmd internal zpl examples *.go)" || { echo "gofmt -l:"; gofmt -l cmd internal zpl examples *.go; exit 1; }

# The distributed interpreter and the experiment harness are
# concurrent; the race detector is part of the bar, not optional.
race:
	$(GO) test -race ./...

# Service smoke: start zpld, hit it with a zplload burst (mixed
# identical/distinct requests at concurrency 16), and require zero
# failed requests, a warm cache, and live per-phase metrics — all
# under the race detector. Then hot /run of one key from six clients
# at once, on the one machine its compilation keeps (DESIGN.md §10).
serve-test: build
	$(GO) test -race -run 'TestServe' -v .
	$(GO) test -race -count=1 -run 'TestHotRunsOfOneKey' ./internal/svc

# Static verification: zplcheck independently re-proves every
# optimizer claim (ASDG edges, fusion legality, contraction safety,
# comm schedule) over the testdata programs and the built-in
# benchmarks, sequential and distributed, at every level.
check: build
	$(GO) run ./cmd/zplcheck -O baseline,c1,c2,c2+f3 -p 4 testdata/*.za
	$(GO) run ./cmd/zplcheck -bench all -O all -p 4

# Self-lint: zpllint over every ZA source in the repo — testdata plus
# the built-in benchmark suite (the programs the examples embed) — at
# the default level. Exit 0 means zero unexpected findings: fig2.za's
# halo reads are known warnings (the paper's own example reads the
# uninitialized boundary), and warnings only fail under -strict.
lint-self: build
	$(GO) run ./cmd/zpllint testdata/*.za
	$(GO) run ./cmd/zpllint -bench all

# Remark-completeness audit: every unfused pair and uncontracted array
# across the Fig. 7/8 suite must carry a machine-readable explanation.
audit: build
	$(GO) run ./cmd/experiments -run audit

# Golden check of results/: every study is regenerated through
# harness.Studies and compared byte for byte with the committed
# results/<id>.{txt,json}, and a file there that no study declares
# fails. The tier-1 run of TestResultsGolden skips the ladder study
# (fig9, fig10, fig11, headline; ~15 s); -full adds it.
# After a deliberate table change, re-commit with
#   $(GO) test ./internal/harness -run TestResultsGolden -full -update
results-check: build
	$(GO) test -count=1 -run TestResultsGolden ./internal/harness -full

staticcheck:
	@if GOFLAGS=-mod=mod GOPROXY=off $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) --version >/dev/null 2>&1; then \
		GOFLAGS=-mod=mod GOPROXY=off $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck@$(STATICCHECK_VERSION) not in the module cache and no network; skipping"; \
	fi

govulncheck:
	@if GOFLAGS=-mod=mod GOPROXY=off $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		GOFLAGS=-mod=mod GOPROXY=off $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	else \
		echo "govulncheck@$(GOVULNCHECK_VERSION) not in the module cache and no network; skipping"; \
	fi

# Race smoke: the concurrent subsystems under the race detector — the
# distributed interpreter's engine protocol (the combining barrier's
# rounds, fold order and mismatch errors, watchdog abort, peer
# unblocking, mid-exchange cancellation), the lazy engine hammered from
# many goroutines, the native resident workers (pipes, deadlines, the
# goroutine that reaps each, the finalizer that stops a forgotten one)
# through the lazy engine and on their own, a threaded worker's state
# and replies at GOMAXPROCS 1 against 2, and the zpld request burst. The distvm suite then
# runs once more on one P, where a wait that spins without yielding is
# a hang and not a slowdown. Complements the static analyzer below: this
# is the dynamic detector over our own runtime, that is the
# happens-before proof over compiled schedules.
race-smoke: build
	$(GO) test -race -count=1 -run 'TestBarrierRounds|TestFoldInProcessorOrder|TestProtocolMismatch|TestLockstep|TestWatchdogTimeout|TestAbortUnblocksPeers|TestCancelMidExchange|TestDeadlineMidExchange|TestCancelBeforeRun' -v ./internal/distvm
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/distvm
	$(GO) test -race -count=1 -run 'TestConcurrentEval|TestNative|TestEngineClose|TestUnclosedEngine|TestCacheBytesBoundsMachines|TestLazyMatchesZA|TestBoundHandlesSurviveFailedRun|TestCopiedBytesPerEval|TestUnwrittenHandleNotReadBack|TestResidentMachineStartsZeroed|TestSteadyStateAllocs' -v ./internal/lazy
	$(GO) test -race -count=1 -run 'TestStateProtocolRoundTrip|TestWorkerFailures|TestThreadedMatchesOneProc' -v ./internal/backend
	$(GO) test -race -count=1 -run 'TestServe' -v .

# Static race sweep: the happens-before analyzer re-verifies every
# compiler-produced comm schedule — 6 benchmarks x 9 levels at p=4
# (54 configurations) plus the ladder ends at p=2 and p=8 — then every
# zplcheck pass over the reused-halo program (a statement reading a
# halo received for a wider one; DESIGN.md §33) at every level and
# p = 2, 4, 8, and the seeded-fault self-test proves the analyzer
# catches each planted schedule bug (exit 1 is the expected "fault
# detected" status).
race-sweep: build
	$(GO) run ./cmd/zplcheck -bench all -O all -p 4 -pass race
	$(GO) run ./cmd/zplcheck -bench all -O baseline,c2+f4s -p 2 -pass race
	$(GO) run ./cmd/zplcheck -bench all -O baseline,c2+f4s -p 8 -pass race
	$(GO) run ./cmd/zplcheck -O all -p 2 -pass all testdata/provers/halo_race.za
	$(GO) run ./cmd/zplcheck -O all -p 4 -pass all testdata/provers/halo_race.za
	$(GO) run ./cmd/zplcheck -O all -p 8 -pass all testdata/provers/halo_race.za
	@for k in barrier mispair stale; do \
		$(GO) run ./cmd/zplc -O c2+f3 -p 4 -racefault $$k testdata/heat.za >/dev/null 2>&1; \
		st=$$?; if [ $$st -ne 1 ]; then echo "racefault $$k: exit $$st, want 1"; exit 1; fi; \
		echo "racefault $$k: caught (exit 1)"; \
	done

# Cluster smoke: three zpld processes sharing one consistent-hash
# ring, zplload driving the whole cluster round-robin, then the
# acceptance properties — cross-node hit rate above 50%, bit-identical
# responses from every node, disk rehydration across a restart with
# zero recompiles, and continued service after a peer is killed. The
# in-process tier suite (internal/store) and the multi-server svc
# tests run under the race detector alongside.
cluster-smoke: build
	$(GO) test -race -count=1 ./internal/store
	$(GO) test -race -count=1 -run 'TestCluster|TestDiskTier' -v ./internal/svc
	$(GO) test -count=1 -run 'TestClusterEndToEnd' -v .

# Bench smoke: bench/ is its own module (`replace repro => ../`), so
# the root build and tests never descend into it and an API break in
# internal/vm or internal/distvm would stay invisible until the
# benchmark pipeline runs. Its tests also check every committed
# bench/expected transcript — the -p2 ones against the shard executor.
bench-smoke: build
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Partitioner guard: the plan-identity and complexity tests of the
# fusion partitioner, re-run fresh — plans and remarks (sequential,
# distributed and supplied) against testdata/plans/dist_hashes.json, the
# production greedy against the literal f4 rescan on benchmarks and
# random graphs, one plan's remarks rendered from eight goroutines under
# -race, and the allocation ceiling on the sp c2+f4 p=2 compile, which
# renders no remark. All of them are
# ordinary tier-1 tests; this target is the one to run after touching
# internal/core. It also holds the provers to their contract: after
# touching internal/mhp or internal/absint run this and race-sweep —
# TestEvidencePinned compares every string either can render (every
# benchmark cell, the seeded faults, hand-built schedules) with
# testdata/provers/evidence_hashes.json and
# internal/mhp/testdata/evidence_hashes.json, TestAnalyzeAllocs fails
# if an analysis starts wording (or storing) what it can render, and
# TestFlatOffsetMatchesEnumeration holds Reason's closed-form flat
# offset to the offsets it describes. TestReceiveWritesItsGhost pins
# what a receive writes in the ASDG (DESIGN.md §33). The one fusion
# predicate (DESIGN.md §12): a supplied plan's refusal names the test
# the remarks name (TestApplySpecRejects*), FusionOK agrees with an
# independent reading of Definition 5 (TestFusionAntiMonotone), the
# exhaustive search that prunes with it still proves frac optimal, and
# a program too large to count is refused before the tuner scores it.
# Compile cost stays linear in block size (TestCompileScales: the
# generated one-block chain at 6,400 statements makes at most 20x the
# allocations of 400), and the one-walk liveness pass gives the verdicts
# the block-walking reference gives (TestExplainMatchesBlockWalk,
# DESIGN.md §35).
plan-guard: build
	$(GO) test -count=1 -run 'TestGoldenPlans|TestEvidencePinned|TestZpllintEvidenceGolden|TestLoopDefectReportedOnce' . ./internal/mhp
	$(GO) test -count=1 -run 'TestGreedyMatches|TestCondensationTracksMerges|TestFusionAntiMonotone|TestGrowSteadyStateAllocs|TestDiagnosisAgreesWithPredicates|TestVerdictsMatchBlockWalk|TestStmtWeightsMatchGraph|TestApplySpecRejects' ./internal/core
	$(GO) test -count=1 -run 'TestExhaustiveProvesSmallBenchmark|TestTuneRefusesOverflow' ./internal/tune
	$(GO) test -race -count=1 -run 'TestPlanRemarksConcurrent' ./internal/core
	$(GO) test -count=1 -run 'TestCompileDistAllocs|TestAnalyzeAllocs|TestFlatOffsetMatchesEnumeration' ./internal/driver ./internal/mhp ./internal/absint
	$(GO) test -count=1 -run 'TestReceiveWritesItsGhost' ./internal/dep
	$(GO) test -count=1 -run 'TestCompileScales|TestExplainMatchesBlockWalk' ./internal/driver ./internal/liveness

# VM guard: the tests that let the strip evaluator be changed without
# the bench harness, re-run fresh — the Tracer stream against
# testdata/vm/trace_hashes.json (what the machine models see), the
# strip-width differential (widths 1, 3 and the production one agree on
# every transcript, array bit and step count; TestWidthDirectWrites holds
# a statement's root operator writing into its destination to the same
# rule, and keeps the copy for a statement that reads its own left-hand
# side), the rerun differential
# (a re-seeded machine run again ends where a fresh one does: the lazy
# runtime's resident machines) and the allocation ceilings on vm.New
# and on a rerun (Machine.Reset + Run), the rewind differential (a
# machine rewound after a failed and after a finished run ends where a
# fresh one does, at GOMAXPROCS 1 and 2, the split cell under -race too:
# zpld's resident machines, DESIGN.md §10) and what Rewind refuses, and
# the kernel package the VM
# runs its operators from (internal/kernel, DESIGN.md §32): walking its
# table, each packed kernel bit for bit against its Go loop over special
# values, tail lengths and aliased destinations and each packed fold
# against a left fold of its scalar rule, max's and min's rule against
# math.Max and math.Min; every operator and builtin with an entry, every
# benchmark and heat with the packed kernels forced off and on, and no
# fused multiply-add in the listing of either package. Then the split nests (DESIGN.md §31): every benchmark
# and heat above the split threshold at GOMAXPROCS 1 against 2 bit for
# bit with no goroutine left behind, a chunk's panic returned as an
# error, a cancellation inside a split nest, all under -race too, and
# the lazy runtime's max and min of special values at GOMAXPROCS 1 and
# 2 (at 2 the packed fold runs in each chunk of a split nest). Last,
# the one work count (lir.Work, DESIGN.md §22, §34): Result.Steps of the
# six benchmarks x 9 levels x {plain, -scalarrep} on the VM and distvm
# p=2 against testdata/vm/steps.json, a hot job.Run's allocation
# ceiling and the fresh bytes after a failed run, and a sweep whose
# element-statements overflow an int64 refused before a step on the VM,
# distvm and native, under the test's own deadline, and one long sweep
# stopped by a 50 ms deadline through its per-row polls (rows, strips,
# split chunks and distvm shards), distvm's at the VM's default budget
# too. All are ordinary tier-1 tests; this target is the one to run
# after touching internal/vm or internal/kernel. `go test -run '^$$' -bench Run
# ./internal/vm` prints ns per element-statement for the same cells the
# run-interp workload times, and `-bench Fold` ns per element of the max
# and + folds over one strip, packed and Go loop.
vm-guard: build
	$(GO) test -count=1 ./internal/kernel
	$(GO) test -count=1 -run 'TestTraceStreamPinned|TestWidth|TestWidthDirectWrites|TestNewAllocs|TestRerunMatchesFresh|TestRerunAllocs|TestRewind|TestEveryOperatorHasAnEntry|TestPackedProgramsIdentical|TestVMNoFMA|TestSplit' ./internal/vm
	$(GO) test -race -count=1 -run 'TestSplit|TestRewindMatchesFresh/heat-446' ./internal/vm
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestMaxMinOfSpecialValues' ./internal/lazy
	GOMAXPROCS=2 $(GO) test -count=1 -run 'TestMaxMinOfSpecialValues' ./internal/lazy
	$(GO) test -count=1 -run 'TestQuickTracedMatchesUntraced' ./internal/driver
	$(GO) test -count=1 -run 'TestStepsPinned|TestPriceRefusesWorkOverflow|TestHotRunAllocs|TestFailedRunDropsItsMachine' ./internal/job
	$(GO) test -count=1 -run 'TestLongSweepStopsAtDeadline|TestLongShardSweepStopsAtDeadline' ./internal/vm ./internal/distvm

# Native guard: the tests to run after touching internal/gogen,
# internal/backend or the lazy executor, re-run fresh — the sha256 of
# every benchmark's one-shot and worker emission at the ladder ends
# (internal/gogen/testdata/emission_hashes{,_strips}.json, without and
# with the packed kernels: a changed hash is a
# changed artifact and binary, -update only for a deliberate change to
# the emitted code) and their imports inside gogen.Imports, the
# one-shot arena's layout, no fused multiply-add in emitted code, the
# native build (its failures named by step, a canceled build leaving no
# temporary and no child, an importcfg that heals after the build cache
# is trimmed, two stores building one key), the checkptr run, the
# worker protocol and its
# failures, a worker exiting when its host is killed, and the lazy
# executor's copied bytes and allocations per Eval. Then the threaded
# nests (DESIGN.md §31): the outer-parallel pass over every nest an
# engine splits (absint.Result.Splits) and its seeded fault, GOMAXPROCS 1
# against 2 byte for byte for workers and one-shot programs
# (TestThreadedOneShotMatchesOneProc), a -race build of heat's threaded
# worker and one-shot program, the threaded one-shot program under
# checkptr, an idle threaded worker using no CPU, and max/min of special
# values across a chunk boundary on both engines, one-shot included. Then strips on native (DESIGN.md §13): nests that
# run strips against the VM at the extents and guards where a strip's
# edge lands (TestNativeStripEdges), the kernel package cross-built
# without fused multiply-adds (TestEmittedNoFMA/kernel), a nest outside
# the strip rule emitted exactly as before, and a seeded miscompile of
# the strips' addition caught.
# All are ordinary tier-1 tests; this target is the one to run after
# touching those packages.
native-guard: build
	$(GO) test -count=1 -run 'TestEmissionPinned|TestEmittedImports|TestArenaLayout|TestEmittedNoFMA|TestStripRuleLeavesOtherNests|TestUnreadRegisterVetClean' ./internal/gogen
	$(GO) test -count=1 -run 'TestEmittedCheckptrClean|TestStateProtocolRoundTrip|TestWorkerFailures|TestWorkerExitsWithHost|TestThreaded|TestBuildErrorDiagnostics|TestBuildCanceled|TestImportcfgHeals|TestTwoStoresBuildOneKey|TestNativeStripEdges|TestStripSpecialsAreSpecial|TestSeedFaultCaught|TestRunReportsSystemTime' ./internal/backend
	$(GO) test -count=1 -run 'TestCopiedBytesPerEval|TestSteadyStateAllocs|TestMaxMinOfSpecialValues' ./internal/lazy
	$(GO) test -count=1 -run 'TestOuterParallel' ./internal/check

# Cross-build: internal/kernel has amd64 assembly (the packed strip
# kernels) and a !amd64 file that keeps the Go loops; building and
# vetting it and the VM that runs it for arm64 keeps that fallback
# compiling (the native backend builds the same files for emitted
# programs, kernel.Source). On amd64, `vet` checks the assembly's frame
# offsets against its Go declarations.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/vm ./internal/kernel

# Non-test Go lines per top-level directory, so a simplicity PR quotes a
# reproducible before/after instead of a hand count. bench/ (its own
# module, frozen by BENCHMARK.json) and results/ are excluded. Override
# LOC_DIRS to size one subsystem, e.g. the front ends PR 13 measured:
#   make loc LOC_DIRS="cmd internal/svc internal/tune internal/job"
LOC_DIRS ?= $(filter-out bench results,$(patsubst %/,%,$(wildcard */)))
# ROADMAP item 8(c)'s subject is sized apart, after the total: the
# content-addressed stores an artifact passes through (ccache, store,
# backend.go's artifact store) and the one flight table they share.
# store's envelope codec is a wire format, not a store, and backend's
# worker and mapping run programs; neither is counted. The sum was 2,213
# lines while zpld still kept two memory tiers.
LOC_STORES ?= internal/ccache $(filter-out %_test.go %/codec.go,$(wildcard internal/store/*.go)) \
	internal/backend/backend.go internal/flight
loc_sum = total=0; for d in $(1); do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat 2>/dev/null | wc -l); \
		printf '%8d  %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%8d  $(2)\n' $$total
loc:
	@$(call loc_sum,$(LOC_DIRS),total)
	@$(call loc_sum,$(LOC_STORES),item 8(c): the stores)

# The time-seeded search the property tests used to be on every tier-1
# run: each test prints the seed it drew before using it (a failure
# reproduces by putting that seed at the test's soak.Config site) and
# runs 20x its tier-1 cases. Only the four packages whose tests import
# internal/soak define the flag.
soak: build
	$(GO) test -count=1 -run 'TestQuick' ./internal/driver ./internal/parser ./internal/dist ./internal/difftest -soak

# Coverage-guided fuzzing, from the committed seed corpora, for a
# bounded time each: the envelope decoder (what a peer's POST
# /store/put reaches), the lazy runtime's canonicalization memo
# (memo key = canonical key, issue-order invariance of the key). Tier-1
# runs the seeds only; the third target is the plan spec parser (a
# -plan file; the hash survives Marshal), the fourth the front end on
# source text (no panic; every rejection a positioned source.ErrorList),
# the fifth a zpld request body through job.Spec.Resolve (no panic;
# every rejection a usage or compile error; one key per legal body).
# A finding lands in the target's
# internal/<pkg>/testdata/fuzz/<Fuzz...>/ and then runs with them: fix
# it and commit the file.
FUZZTIME ?= 60s
fuzz-soak: build
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/lazy
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/driver
	$(GO) test -run '^$$' -fuzz '^FuzzResolve$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/svc

# The front-end parity table (internal/job, internal/svc, cli_test.go)
# and the fingerprint field-coverage test (internal/ccache) are ordinary
# package tests, so `test` runs them and `race` runs them under -race.
# For the same reason six targets are not chained here: serve-test,
# race-smoke and cluster-smoke re-run, with -run filters, tests that
# `race` (and `test`, `build`) already ran, and plan-guard, vm-guard and
# native-guard re-run tests that `test` already ran. Each stays as the shortcut to
# run after touching what its comment names. The last step is the whole
# differential matrix (internal/difftest, DESIGN.md §26): tier-1 runs
# its cut, -full every ladder level and every native cell, ~50 s; and
# gogen's TestEmittedNoFMA at every level (tier-1: c2+f4), ~30 s.
ci: vet fmt-check cross test race check lint-self audit results-check staticcheck govulncheck race-sweep bench-smoke
	$(GO) test -count=1 ./internal/difftest ./internal/backend ./internal/gogen -full

# Every study, tables to stdout. All are deterministic: none builds a
# native binary or reads a clock (wall-clock numbers are bench/'s).
experiments:
	$(GO) run ./cmd/experiments
