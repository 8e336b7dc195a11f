GO ?= go

.PHONY: all build test vet check golden fuzz snap-diff bench bench-baseline bench-diff bench-smoke bench-compare search search-baseline profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the full pre-merge gate: formatting (gofmt -l must list nothing),
# static analysis, a clean build of every package (examples included, so they
# cannot rot), and the whole test suite — golden-run scenario regressions,
# the chaos catalog, kill-and-resume over the catalog, the maficserve kill -9
# recovery and the fuzz seed corpora included, none of it -short-gated — under
# the race detector, then the quick adversary-search grid through the CLI.
check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/maficsearch -quick

# golden re-pins the scenario regression fixtures after an intentional
# behaviour change. Review the diff before committing it.
golden:
	$(GO) test ./internal/experiment -run TestGoldenScenarios -update

# fuzz runs the five fuzz targets one after the other, FUZZTIME each (`go test
# -fuzz` takes one target and one package at a time). `make check` only
# replays their seed corpora; this mutates them. A crasher is written under
# the package's testdata/fuzz/<target>/ — commit it, it is a regression test
# from then on. The minimization budget is cut from the default 60 s per new
# input: FuzzSnapshotDecode's inputs are 40 KB snapshots, and at the default a
# 60 s run spends 55 s shrinking its first find and executes 60 inputs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/experiment -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/flowtable -run '^$$' -fuzz FuzzTablesOps -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/loglog -run '^$$' -fuzz FuzzSketchMerge -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/traffic -run '^$$' -fuzz FuzzRotatingSource -fuzztime $(FUZZTIME) -fuzzminimizetime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzJobSpec -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

# snap-diff is the gate for a change that claims the snapshot wire format and
# the results unchanged: BASE is exported with `git archive` into a temporary
# directory, maficsim is built once from there and once from the working tree,
# and every catalog entry runs `-quick -checkpoint-at 600ms -json` on both, one
# process per scenario and side (a process's pools are cold, so no run can
# inherit anything from the one before). Each pair of .snap files and each
# pair of result JSON must be byte-identical. Then the working tree's maficsim
# resumes every BASE snapshot (`-resume <file> -json`), and what it prints
# must be byte-identical to BASE's uninterrupted result JSON: the restore side
# is checked against files the change did not write. The differing names are
# printed and the exit status is non-zero if there are any.
snap-diff:
	@test -n "$(BASE)" || { echo "usage: make snap-diff BASE=<git ref>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git archive --prefix=base/ $(BASE) | tar -x -C "$$tmp"; \
	$(GO) build -C "$$tmp/base" -o "$$tmp/sim.base" ./cmd/maficsim; \
	$(GO) build -o "$$tmp/sim.change" ./cmd/maficsim; \
	mkdir "$$tmp/out.base" "$$tmp/out.change"; n=0; bad=""; \
	for name in $$("$$tmp/sim.change" -list | awk 'NR > 1 { print $$1 }'); do \
		for side in base change; do \
			"$$tmp/sim.$$side" -scenario $$name -quick -checkpoint-at 600ms -json \
				-checkpoint-out "$$tmp/out.$$side/$$name" >"$$tmp/out.$$side/$$name.json" 2>"$$tmp/out.$$side/$$name.log" \
				|| { echo "$$name ($$side): run failed:"; cat "$$tmp/out.$$side/$$name.log"; }; \
		done; \
		for f in $$name-600ms.snap $$name.json; do \
			cmp -s "$$tmp/out.base/$$f" "$$tmp/out.change/$$f" || bad="$$bad $$f"; \
		done; \
		"$$tmp/sim.change" -resume "$$tmp/out.base/$$name-600ms.snap" -json \
			>"$$tmp/out.change/$$name.resumed.json" 2>"$$tmp/out.change/$$name.resumed.log" \
			|| { echo "$$name (resume of base): run failed:"; cat "$$tmp/out.change/$$name.resumed.log"; }; \
		cmp -s "$$tmp/out.base/$$name.json" "$$tmp/out.change/$$name.resumed.json" || bad="$$bad $$name.resumed.json"; \
		n=$$((n + 1)); \
	done; \
	if [ -n "$$bad" ]; then echo "snap-diff against $(BASE): of $$n scenarios these differ:$$bad"; exit 1; fi; \
	echo "snap-diff against $(BASE): $$n scenarios, every snapshot, result JSON and resumed JSON byte-identical"

# bench measures the current engine (ns/op, B/op, allocs/op per figure
# benchmark) and writes BENCH_current.json (untracked: this target and
# bench-diff regenerate it); diff it against the tracked BENCH_baseline.json
# to see the performance trajectory.
bench:
	$(GO) run ./cmd/maficbench -out BENCH_current.json

# bench-baseline deliberately re-records the tracked baseline. Run it in the
# PR that changes engine performance so the next PR measures against it.
bench-baseline:
	$(GO) run ./cmd/maficbench -out BENCH_baseline.json

# bench-diff is the performance regression gate: it re-measures every figure
# benchmark (median-of-3 process-CPU-time samples, immune to host CPU-steal),
# prints a comparison table against the tracked baseline, and exits non-zero
# on regression. allocs/op and B/op carry the strict 10% gate — they are
# exactly reproducible, so any excursion is a real code change. The ns/op
# tolerance is 25% to absorb shared-host noise; the tracked baseline's ns
# rows are CPU-time recordings since the checkpoint PR's re-record, so both
# sides of the diff now measure the same clock.
bench-diff:
	$(GO) run ./cmd/maficbench -out BENCH_current.json -diff BENCH_baseline.json -tolerance 0.25

# bench-smoke is the quick-mode regression gate CI runs on a schedule: only
# the headline benchmarks, with a looser ns/op tolerance to absorb
# shared-runner noise (allocs/op and B/op stay on the strict gate). A failure
# here means a >25% wall-clock or >10% allocation regression slipped past
# review.
bench-smoke:
	$(GO) run ./cmd/maficbench -benchmarks table2,stress-1k,stress-5k,stress-50k -diff BENCH_baseline.json -tolerance 0.25

# bench-compare is the acceptance measurement of a perf PR, the paired recipe
# of benchmark/README.md ("Comparing two commits") as one command: PARENT is
# exported with `git archive` into a temporary directory, `./benchmark` is
# built once from there and once from the working tree, the two binaries run
# PAIRS times each (10 s per workload) taking turns to go first, and -compare
# reads the two sets of reports. Without WORKLOAD every run is the whole suite,
# untraced and traced (about four minutes a side, so PAIRS=10 is an hour and a
# half); with WORKLOAD=<name> it is that workload's untraced run alone, which
# is what the end-to-end verdicts are made of. Exits non-zero on any `worse`.
PAIRS ?= 10
bench-compare:
	@test -n "$(PARENT)" || { echo "usage: make bench-compare PARENT=<rev> [WORKLOAD=<name>] [PAIRS=10]"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git archive --prefix=parent/ $(PARENT) | tar -x -C "$$tmp"; \
	$(GO) build -C "$$tmp/parent" -o "$$tmp/bench.parent" ./benchmark; \
	$(GO) build -o "$$tmp/bench.change" ./benchmark; \
	i=1; while [ $$i -le $(PAIRS) ]; do \
		order="parent change"; [ $$((i % 2)) = 0 ] && order="change parent"; \
		for side in $$order; do \
			echo "pair $$i of $(PAIRS): $$side" >&2; \
			"$$tmp/bench.$$side" $(if $(WORKLOAD),-workload $(WORKLOAD) -trace 0,-trace 1) -seed $$i -seconds 10 \
				-tmp "$$tmp/scratch" -out "$$tmp/$$side.$$i.json" >/dev/null; \
		done; \
		i=$$((i + 1)); \
	done; \
	"$$tmp/bench.change" -compare $$(ls "$$tmp"/parent.*.json | paste -sd,) $$(ls "$$tmp"/change.*.json | paste -sd,)

# search runs the full adversary-search grid (maficbench for robustness) and
# writes ROBUST_current.json; diff it against the tracked ROBUST_baseline.json
# to see how the worst-case accuracy per defence config moved.
search:
	$(GO) run ./cmd/maficsearch -out ROBUST_current.json

# search-baseline re-records the tracked robustness baseline. Run it in the
# PR that intentionally changes defence behaviour, and review the diff.
search-baseline:
	$(GO) run ./cmd/maficsearch -out ROBUST_baseline.json

# profile runs the headline benchmark under the CPU and allocation profilers
# so the next hotspot hunt starts from `go tool pprof cpu.pprof` instead of
# ad-hoc wiring. Override PROFILE_BENCH to profile a different benchmark.
PROFILE_BENCH ?= table2
profile:
	$(GO) run ./cmd/maficbench -benchmarks $(PROFILE_BENCH) -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof (alloc profile); inspect with: go tool pprof -top cpu.pprof"
