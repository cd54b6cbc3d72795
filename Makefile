GO ?= go

# Pinned external analyzers (the go run tool@version pattern keeps
# them out of go.mod). The targets below probe the module cache with
# GOPROXY=off first, so an offline machine skips them with a notice
# instead of failing ci.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build test vet fmt-check race check serve-test ci experiments \
	lint-self staticcheck govulncheck audit results-check race-smoke race-sweep \
	cluster-smoke bench-smoke plan-guard vm-guard loc soak fuzz-soak

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
# under the race detector.
serve-test: build
	$(GO) test -race -run 'TestServe' -v .

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
# through the lazy engine and on their own, and the zpld request burst. The distvm suite then
# runs once more on one P, where a wait that spins without yielding is
# a hang and not a slowdown. Complements the static analyzer below: this
# is the dynamic detector over our own runtime, that is the
# happens-before proof over compiled schedules.
race-smoke: build
	$(GO) test -race -count=1 -run 'TestBarrierRounds|TestFoldInProcessorOrder|TestProtocolMismatch|TestLockstep|TestWatchdogTimeout|TestAbortUnblocksPeers|TestCancelMidExchange|TestDeadlineMidExchange|TestCancelBeforeRun' -v ./internal/distvm
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/distvm
	$(GO) test -race -count=1 -run 'TestConcurrentEval|TestNative|TestEngineClose|TestUnclosedEngine|TestCacheBytesBoundsMachines|TestLazyMatchesZA' -v ./internal/lazy
	$(GO) test -race -count=1 -run 'TestStateProtocolRoundTrip|TestWorkerFailures' -v ./internal/backend
	$(GO) test -race -count=1 -run 'TestServe' -v .

# Static race sweep: the happens-before analyzer re-verifies every
# compiler-produced comm schedule — 6 benchmarks x 9 levels at p=4
# (54 configurations) plus the ladder ends at p=2 and p=8 — and the
# seeded-fault self-test proves the analyzer catches each planted
# schedule bug (exit 1 is the expected "fault detected" status).
race-sweep: build
	$(GO) run ./cmd/zplcheck -bench all -O all -p 4 -pass race
	$(GO) run ./cmd/zplcheck -bench all -O baseline,c2+f4s -p 2 -pass race
	$(GO) run ./cmd/zplcheck -bench all -O baseline,c2+f4s -p 8 -pass race
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
# offset to the offsets it describes.
plan-guard: build
	$(GO) test -count=1 -run 'TestGoldenPlans|TestEvidencePinned|TestZpllintEvidenceGolden|TestLoopDefectReportedOnce' . ./internal/mhp
	$(GO) test -count=1 -run 'TestGreedyMatches|TestCondensationTracksMerges|TestFusionAntiMonotone|TestGrowSteadyStateAllocs|TestDiagnosisAgreesWithPredicates|TestStmtWeightsMatchGraph' ./internal/core
	$(GO) test -race -count=1 -run 'TestPlanRemarksConcurrent' ./internal/core
	$(GO) test -count=1 -run 'TestCompileDistAllocs|TestAnalyzeAllocs|TestFlatOffsetMatchesEnumeration' ./internal/driver ./internal/mhp ./internal/absint

# VM guard: the tests that let the strip evaluator be changed without
# the bench harness, re-run fresh — the Tracer stream against
# testdata/vm/trace_hashes.json (what the machine models see), the
# strip-width differential (widths 1, 3 and the production one agree on
# every transcript, array bit and step count), the rerun differential
# (a re-seeded machine run again ends where a fresh one does: the lazy
# runtime's resident machines) and the allocation ceilings on vm.New
# and on a rerun (Machine.Reset + Run). All are ordinary tier-1 tests; this target is the one to
# run after touching internal/vm. `go test -run '^$$' -bench Run
# ./internal/vm` prints ns per element-statement for the same cells the
# run-interp workload times.
vm-guard: build
	$(GO) test -count=1 -run 'TestTraceStreamPinned|TestWidth|TestNewAllocs|TestRerunMatchesFresh|TestRerunAllocs' ./internal/vm
	$(GO) test -count=1 -run 'TestQuickTracedMatchesUntraced' ./internal/driver

# Non-test Go lines per top-level directory, so a simplicity PR quotes a
# reproducible before/after instead of a hand count. bench/ (its own
# module, frozen by BENCHMARK.json) and results/ are excluded. Override
# LOC_DIRS to size one subsystem, e.g. the front ends PR 13 measured:
#   make loc LOC_DIRS="cmd internal/svc internal/tune internal/job"
LOC_DIRS ?= $(filter-out bench results,$(patsubst %/,%,$(wildcard */)))
# The three content-addressed stores and the one flight table they share
# are sized apart, after the total: PR 21 bounded their sum by the three
# stores' size before it (2,407 lines), and ROADMAP item 8(c) wants it
# down a further 30%.
LOC_STORES ?= internal/ccache internal/store internal/backend internal/flight
loc_sum = total=0; for d in $(1); do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat 2>/dev/null | wc -l); \
		printf '%8d  %s\n' $$n $$d; total=$$((total + n)); \
	done; printf '%8d  $(2)\n' $$total
loc:
	@$(call loc_sum,$(LOC_DIRS),total)
	@$(call loc_sum,$(LOC_STORES),of which the stores)

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
# source text (no panic; every rejection a positioned source.ErrorList).
# A finding lands in the target's
# internal/<pkg>/testdata/fuzz/<Fuzz...>/ and then runs with them: fix
# it and commit the file.
FUZZTIME ?= 60s
fuzz-soak: build
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/lazy
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/driver

# The front-end parity table (internal/job, internal/svc, cli_test.go)
# and the fingerprint field-coverage test (internal/ccache) are ordinary
# package tests, so `test` runs them and `race` runs them under -race.
# For the same reason five targets are not chained here: serve-test,
# race-smoke and cluster-smoke re-run, with -run filters, tests that
# `race` (and `test`, `build`) already ran, and plan-guard and vm-guard
# re-run tests that `test` already ran. Each stays as the shortcut to
# run after touching what its comment names. The last step is the whole
# differential matrix (internal/difftest, DESIGN.md §26): tier-1 runs
# its cut, -full every ladder level and every native cell, ~50 s.
ci: vet fmt-check test race check lint-self audit results-check staticcheck govulncheck race-sweep bench-smoke
	$(GO) test -count=1 ./internal/difftest ./internal/backend -full

# Every study, tables to stdout. All are deterministic: none builds a
# native binary or reads a clock (wall-clock numbers are bench/'s).
experiments:
	$(GO) run ./cmd/experiments
