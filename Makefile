GO ?= go

.PHONY: all build test test-times vet check golden fuzz snap-diff digest-diff arch-diff bench-compare search search-baseline profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-times runs the whole suite once, uncached, and prints its 20 slowest
# top-level tests as `seconds package test (own|subtests)`, slowest first,
# then every package's wall time as `seconds package (wall)`, so a change that
# adds seconds to the suite says so. A parent's own time leaves out the
# subtests it runs in parallel (they run after its body returns), so each test
# is listed at the larger of its own time, marked `(own)`, and the sum of its
# direct subtests' times, marked `(subtests)`. A failing test is listed like a
# passing one: `make test` is the verdict, this is only the clock.
test-times:
	@$(GO) test -count=1 -json ./... \
		| sed -n 's/.*"Action":"\(pass\|fail\)","Package":"\([^"]*\)",\("Test":"\([^"]*\)",\)\{0,1\}"Elapsed":\([0-9.]*\).*/\2 \5 \4/p' \
		| awk 'NF == 2 { wall[$$1] = $$2; next } \
			{ n = split($$3, part, "/"); key = $$1 " " part[1] } \
			n == 1 { own[key] = $$2 } \
			n == 2 { subs[key] += $$2 } \
			END { \
				for (k in own) { \
					if (subs[k] > own[k]) printf "%.2f %s (subtests)\n", subs[k], k | "sort -rn | head -20"; \
					else printf "%.2f %s (own)\n", own[k], k | "sort -rn | head -20"; \
				} \
				close("sort -rn | head -20"); \
				for (p in wall) printf "%.2f %s (wall)\n", wall[p], p | "sort -rn"; \
			}'

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

# golden re-pins the scenario regression fixtures and the quick figure set
# (testdata/figures-quick.json) after an intentional behaviour change. Review
# the diff before committing it.
golden:
	$(GO) test ./internal/experiment -run 'TestGoldenScenarios|TestGenerateQuickFigures' -update

# fuzz runs the six fuzz targets one after the other, FUZZTIME each (`go test
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
	$(GO) test ./internal/netsim -run '^$$' -fuzz FuzzRouteColumns -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

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
# printed and the exit status is non-zero if there are any. Cold processes
# cannot catch state a recycled run bundle carries from one run into the next;
# TestSnapshotIndependentOfBundleHistory (internal/experiment) covers that,
# comparing every catalog entry's snapshot on a used bundle with a fresh one's.
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

# digest-diff is the guard of a change that claims every result unchanged,
# perf or not: BASE is exported with `git archive` into a temporary directory,
# `./benchmark` is built once from there and once from the working tree, each
# runs the whole suite once (`-seed 1 -seconds 0 -trace 0`: each workload's
# fixed job count, untraced), and -compare reads the two reports. It fails
# unless every workload's result_digest line reads `identical`; one pair of
# runs says nothing about timing, so the other verdicts are printed and not
# judged (that is bench-compare's job).
digest-diff:
	@test -n "$(BASE)" || { echo "usage: make digest-diff BASE=<git ref>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git archive --prefix=base/ $(BASE) | tar -x -C "$$tmp"; \
	$(GO) build -C "$$tmp/base" -o "$$tmp/bench.base" ./benchmark; \
	$(GO) build -o "$$tmp/bench.change" ./benchmark; \
	for side in base change; do \
		echo "digest-diff: running $$side" >&2; \
		"$$tmp/bench.$$side" -seed 1 -seconds 0 -trace 0 -tmp "$$tmp/scratch" -out "$$tmp/$$side.json" >/dev/null; \
	done; \
	"$$tmp/bench.change" -compare "$$tmp/base.json" "$$tmp/change.json" >"$$tmp/compare.txt" || true; \
	grep ' result_digest ' "$$tmp/compare.txt" >"$$tmp/digests.txt" || true; \
	cat "$$tmp/digests.txt"; \
	n=$$(wc -l <"$$tmp/digests.txt"); same=$$(grep -c ' identical$$' "$$tmp/digests.txt" || true); \
	if [ "$$n" -eq 0 ] || [ "$$same" -ne "$$n" ]; then \
		echo "digest-diff against $(BASE): $$same of $$n workloads identical"; cat "$$tmp/compare.txt"; exit 1; \
	fi; \
	echo "digest-diff against $(BASE): every result_digest identical on all $$n workloads"

# arch-diff is the guard that results do not depend on the CPU level or the
# word size the simulator is built for: maficsim is built from the working
# tree at GOAMD64=v1, at GOAMD64=v3 (where the compiler lowers rounding, bit
# counting and math.FMA to other instructions) and at GOARCH=386 (4-byte
# pointers and ints), and every catalog entry runs `-quick -json` on each, one
# process per scenario and build. The v3 and 386 result JSON must be
# byte-identical to v1's; the differing names are printed and the exit status
# is non-zero if there are any. The v3 binary needs a CPU with AVX2, BMI2 and
# FMA to run, the 386 one a kernel that runs 32-bit binaries.
arch-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for build in v1 v3 386; do \
		case $$build in \
		386) GOARCH=386 $(GO) build -o "$$tmp/sim.$$build" ./cmd/maficsim ;; \
		*) GOAMD64=$$build $(GO) build -o "$$tmp/sim.$$build" ./cmd/maficsim ;; \
		esac; \
		mkdir "$$tmp/out.$$build"; \
	done; \
	n=0; bad=""; \
	for name in $$("$$tmp/sim.v1" -list | awk 'NR > 1 { print $$1 }'); do \
		for build in v1 v3 386; do \
			"$$tmp/sim.$$build" -scenario $$name -quick -json >"$$tmp/out.$$build/$$name.json" 2>"$$tmp/out.$$build/$$name.log" \
				|| { echo "$$name ($$build): run failed:"; cat "$$tmp/out.$$build/$$name.log"; }; \
		done; \
		for build in v3 386; do \
			cmp -s "$$tmp/out.v1/$$name.json" "$$tmp/out.$$build/$$name.json" || bad="$$bad $$name.json($$build)"; \
		done; \
		n=$$((n + 1)); \
	done; \
	if [ -n "$$bad" ]; then echo "arch-diff: of $$n scenarios these differ from the GOAMD64=v1 build's:$$bad"; exit 1; fi; \
	echo "arch-diff: $$n scenarios, result JSON byte-identical at GOAMD64=v1, GOAMD64=v3 and GOARCH=386"

# bench-compare is the acceptance measurement of a perf PR and the repo's one
# performance gate: the paired recipe of benchmark/README.md ("Comparing two
# commits") as one command: PARENT is exported with `git archive` into a temporary directory, `./benchmark` is
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

# search runs the full adversary-search grid and writes ROBUST_current.json;
# diff it against the tracked ROBUST_baseline.json to see how the worst-case accuracy per defence config moved.
search:
	$(GO) run ./cmd/maficsearch -out ROBUST_current.json

# search-baseline re-records the tracked robustness baseline. Run it in the
# PR that intentionally changes defence behaviour, and review the diff.
search-baseline:
	$(GO) run ./cmd/maficsearch -out ROBUST_baseline.json

# profile runs one of internal/experiment's BenchmarkRun sub-benchmarks (table2,
# stress-1k, stress-5k, stress-50k, and for the checkpoint layer
# resume/table2, resume/stress-1k, replay/table2, replay/stress-1k and
# ckpt/table2) five times under the CPU and allocation
# profilers, so the next hotspot hunt starts from `go tool pprof cpu.pprof`.
# Every allocation is recorded, not one per half-megabyte: a warm run makes a
# few hundred small ones, which the default sampling rate would mostly miss.
# mem.pprof also holds the in-use heap at the end, which is what the pooled
# run bundle's arena retains: read it with -sample_index=inuse_space; and
# everything the runs allocated, the first (cold) one included: read it with
# -sample_index=alloc_space.
PROFILE_BENCH ?= table2
profile:
	$(GO) test ./internal/experiment -run '^$$' -bench 'Run/$(PROFILE_BENCH)$$' -benchtime 5x -cpuprofile cpu.pprof -memprofile mem.pprof -memprofilerate 1
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof -top cpu.pprof"
	@echo "retained heap (the pooled arena): go tool pprof -top -sample_index=inuse_space mem.pprof"
	@echo "allocated by the runs, the first one cold: go tool pprof -top -sample_index=alloc_space mem.pprof"
