# Opprentice reproduction — convenience targets.
GO ?= go

.PHONY: all all-but-gates build test vet bench-vet loc race engine-race oracle-race faults sim sim-race sim-long cover bench bench-smoke upgrade-smoke eval fuzz staticcheck govulncheck clean

# CI runs each of GATES as a step of its own, so a failing gate is named by
# its step, and then all-but-gates: every target runs once there. A gate
# added here needs its step in .github/workflows/ci.yml.
GATES = bench-vet bench-smoke oracle-race upgrade-smoke

all: all-but-gates $(GATES)

all-but-gates: build vet staticcheck test engine-race sim cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench/ is a module of its own, so `go vet ./...` and `go test ./...` above
# never reach it. Vetting it type-checks the repo benchmark's harness against
# internal/..., so an internal API change that would break the benchmark fails
# here; its own unit tests (BENCHMARK.json matches the harness, the oracle
# flags a flipped verdict, self-times telescope, ... ≈ 2 s) run here too.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test .

# Non-test Go lines by package, at LOC_BASE and in the working tree (tracked
# files only) — the before/after table every simplification PR reports.
LOC_BASE ?= HEAD

loc:
	@{ git grep -c '' $(LOC_BASE) -- '*.go' ':!*_test.go' | sed 's/^[^:]*:/base:/'; \
	   git grep -c '' -- '*.go' ':!*_test.go' | sed 's/^/now:/'; } | \
	awk -F: '{ n = split($$2, d, "/"); pkg = (n > 1) ? substr($$2, 1, length($$2) - length(d[n]) - 1) : "."; \
	           v[$$1, pkg] += $$3; t[$$1] += $$3; seen[pkg] = 1 } \
	     END { printf "%-32s %8s %8s %7s\n", "package", "$(LOC_BASE)", "now", "delta"; \
	           for (pkg in seen) printf "%-32s %8d %8d %+7d\n", pkg, v["base", pkg], v["now", pkg], v["now", pkg] - v["base", pkg] | "sort"; \
	           close("sort"); \
	           printf "%-32s %8d %8d %+7d\n", "total", t["base"], t["now"], t["now"] - t["base"] }'

race:
	$(GO) test -race ./...

# Concurrency suite for the serving stack: the engine's ingest/retrain/swap
# protocol and the HTTP adapter, under the race detector, twice (-count=2
# also defeats test caching so the schedule varies between runs).
engine-race:
	$(GO) test -race -count=2 ./internal/engine/ ./internal/service/

# Fault-injection suite only (panicking detectors/notifiers, WAL corruption,
# retry/shutdown behaviour) — every such test is named TestFault*.
faults:
	$(GO) test -run TestFault -v ./...

# Deterministic end-to-end simulation: the full engine (WAL + model registry +
# alert pipeline + async retrain/publish) driven through seeded scenarios of
# traffic, noisy labels, weekly retrains, crashes, torn artifacts, WAL
# corruption and rollbacks, with invariants checked after every step. The
# matrix covers 8 fixed seeds; a failure prints a single-seed repro command.
sim:
	$(GO) test -count=1 -run 'TestSim' ./internal/simtest/

sim-race:
	$(GO) test -race -count=1 -run 'TestSim' ./internal/simtest/

# Longer scenarios (more weeks, more faults) on the same seed matrix, plus
# the extra regime-change seeds. The custom flag must come after the package
# path, or go test falls back to testing the root package.
sim-long:
	$(GO) test -count=1 -run 'TestSim' ./internal/simtest/ -sim.long

# Per-package coverage floor for the layers the simulation is meant to keep
# honest. The floor is deliberately below current numbers (core ~85%,
# engine ~75%, registry ~85%) — it catches coverage collapses, not drift.
COVER_FLOOR ?= 70.0
COVER_PKGS  ?= internal/core internal/engine internal/registry internal/active internal/stats internal/ml/forest internal/tsdb internal/kpigen

cover:
	@set -e; for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -count=1 -cover ./$$pkg/ | tail -n 1); \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage figure for $$pkg: $$out"; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f+0) }' || \
			{ echo "cover: FAIL — $$pkg at $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; }; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the per-family detector benchmark (the table in
# EXPERIMENTS.md), of the monitor step (core.stepbatch in isolation: 16
# monitors trained on kpigen PV/SR/SRT, frames of 1 and of 64 points
# round-robin, fails if a frame allocates) and of the forest step and the
# forest fit at the repo benchmark's shape (133 kpigen severities, 1 512 rows,
# 20 trees; the step fails if a 64-row frame allocates, the fit runs one Train
# and one six-fit round off a shared presort) and of the bulk append at the
# stream_trained shape (16 trained series on a tsdb store, flush groups of 64
# frames of 64 points round-robin, ns/pt): nothing else runs them, so this
# keeps them compiling and their set-up working. Then the two benchmarks that carry a
# ratio floor — machine-independent RATIOS, not absolute ns/op; each fails by itself, after both
# its legs ran: cold ÷ incremental retrain extraction (what the feature cache
# buys, floor 7.2x) and cold ÷ warm restart (what the model registry buys,
# floor 5.4x). The fixed -benchtime keeps the runs short while giving stable
# ratios. DESIGN.md §13 lists where every other speed gate lives.
bench-smoke:
	$(GO) test -run '^$$' -bench DetectorStep -benchtime 1x ./internal/detectors
	$(GO) test -run '^$$' -bench 'MonitorStepBatch$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench 'ForestProbRows$$|ForestTrain$$' -benchtime 1x ./internal/ml/forest
	$(GO) test -run '^$$' -bench 'AppendBulk$$' -benchtime 1x ./internal/engine
	$(GO) test -run '^$$' -bench 'RetrainColdVsIncremental$$' -benchtime 20x ./internal/core
	$(GO) test -run '^$$' -bench 'RestoreWarmVsCold$$' -benchtime 2x ./internal/engine

# The bit-exact kernels against their oracles under the race detector: the
# sorted-window MAD detectors against copy-and-select, the SVD power round
# with its Gram rows written out against the generic loop, the raw-threshold
# forest walk (ProbAll chunks rows across goroutines) against binned trees,
# presorted binning and the empty-bin-skipping split search against sort,
# search and full scan, and forests whose trees grow on goroutines over one
# shared presort against the former Train on hand-cut matrices.
oracle-race:
	$(GO) test -race -count=1 -run 'TestMADMatchesOracle|TestSVDPowerRoundMatchesLoop|TestForestRawWalkMatchesBinned|TestPresortMatchesOracle|TestTrainMatchesReference' ./internal/detectors ./internal/ml/tree ./internal/ml/forest

# The JSON-lines data-directory upgrade on the real binaries: opprenticed
# refuses the unmigrated fixture (exit 1, naming the files and the command),
# `opprenticectl wal migrate` imports it, the daemon then serves both series
# with the fixture's points and labels and exits 0 on SIGTERM.
upgrade-smoke:
	GO=$(GO) bash scripts/upgrade-smoke.sh

# Regenerate every paper table/figure (writes the checked-in report under
# internal/experiments/).
eval:
	$(GO) run ./cmd/evalbench -run all -scale medium -o internal/experiments/results_medium.txt -html internal/experiments/results_medium.html

# Per-target fuzzing budget; CI shortens it (FUZZTIME=10s) to keep the job
# inside its time box while still exercising the fuzz harnesses.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzPRCurve -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/timeseries/
	$(GO) test -fuzz=FuzzParseManifest -fuzztime=$(FUZZTIME) ./internal/registry/
	$(GO) test -fuzz=FuzzHandlePoints -fuzztime=$(FUZZTIME) ./internal/service/
	$(GO) test -fuzz=FuzzSegmentDecode -fuzztime=$(FUZZTIME) ./internal/tsdb/

# Static analysis beyond vet. Both tools are optional: the targets no-op with
# a notice when the binary is not installed, so `make all` works in minimal
# containers while CI (which installs them) gets the full check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck: not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
