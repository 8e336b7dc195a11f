GO ?= go

.PHONY: all build test vet check golden bench bench-baseline bench-diff bench-smoke search search-baseline search-smoke chaos-smoke crash-smoke serve-smoke profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# check is the full pre-merge gate: formatting (gofmt -l must list nothing),
# static analysis, a clean build of every package (examples included, so they
# cannot rot), and the whole test suite —
# golden-run scenario regressions and fuzz seed corpora included — under the
# race detector. The explicit -timeout covers the experiment package, whose
# catalog-wide equivalence suites re-run every registered scenario several
# ways and outgrew go test's default 10m budget under the race detector.
check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -timeout 30m ./...
	$(GO) run ./cmd/maficsearch -quick
	$(MAKE) chaos-smoke
	$(MAKE) crash-smoke
	$(MAKE) serve-smoke

# golden re-pins the scenario regression fixtures after an intentional
# behaviour change. Review the diff before committing it.
golden:
	$(GO) test ./internal/experiment -run TestGoldenScenarios -update

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

# search runs the full adversary-search grid (maficbench for robustness) and
# writes ROBUST_current.json; diff it against the tracked ROBUST_baseline.json
# to see how the worst-case accuracy per defence config moved.
search:
	$(GO) run ./cmd/maficsearch -out ROBUST_current.json

# search-baseline re-records the tracked robustness baseline. Run it in the
# PR that intentionally changes defence behaviour, and review the diff.
search-baseline:
	$(GO) run ./cmd/maficsearch -out ROBUST_baseline.json

# search-smoke is the tiny quick-mode grid `make check` runs: six scaled-down
# runs proving the harness end-to-end in well under a second.
search-smoke:
	$(GO) run ./cmd/maficsearch -quick

# chaos-smoke re-runs the chaos catalog — link flaps, a router crash window
# and the lossy control plane — in quick mode under the race detector, against
# the pinned golden fixtures. A failure means churn handling regressed or a
# fault schedule stopped biting.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/experiment \
		-run 'TestGoldenScenarios/(flap-core|partition-heal|lossy-control)|TestChaosScenariosRun'

# crash-smoke is the kill-and-resume gate: every catalog scenario (chaos
# entries included) is snapshotted mid-run and resumed under the race
# detector, and the resumed result must be bit-identical to the
# uninterrupted run — mid-fault-window snapshots too. A failure means live
# state stopped round-tripping through the snapshot format. The same pass
# requires every snapshot a run takes through its reused capture session to
# equal a fresh capture byte for byte, catalog-wide. Link occupancy is
# rebuilt on restore from the packets in flight rather than carried in the
# snapshot, so the link's property test against the two-event reference link
# (both scheduler backends) and the restore-time consistency check ride here.
# Every build, a restore's included, lands on a network the arena has reset
# under the last run's packets, so the reset-equivalence and leak tests ride
# here too.
crash-smoke:
	$(GO) test -race -count=1 ./internal/experiment \
		-run 'TestKillAndResumeEquivalence|TestCheckpointUnderActiveFaults|TestRestoreThenReuseInvariance|TestSessionMatchesFreshCapture|TestRestoreChecksLinkOccupancy|TestArenaSequenceMatchesFreshArena'
	$(GO) test -race -count=1 ./internal/netsim \
		-run 'TestLinkMatchesReferenceLink|TestLinkFullQueueAtTransmitDoneInstant|TestReset'
	$(GO) test -race -count=1 ./internal/topology -run 'TestArenaReuseMatchesFreshBuild'

# serve-smoke is the service-mode crash-recovery gate: it starts a real
# maficserve process, submits a long checkpointing job, kill -9s the process
# mid-run, restarts it over the same store, and requires the resumed job's
# result.json to be bit-identical to an uninterrupted run — all under the
# race detector. A failure means the service can lose or corrupt work across
# a crash. The second pass is the upgrade path: a store whose snapshots were
# written by a build with an older snapshot version is recovered by running
# the job again from time zero, to the same result.json.
serve-smoke:
	$(GO) test -race -count=1 -timeout 10m ./cmd/maficserve -run TestServeKillNineRecovery -v
	$(GO) test -race -count=1 ./internal/serve -run TestRecoveryFromVersion1Store -v

# profile runs the headline benchmark under the CPU and allocation profilers
# so the next hotspot hunt starts from `go tool pprof cpu.pprof` instead of
# ad-hoc wiring. Override PROFILE_BENCH to profile a different benchmark.
PROFILE_BENCH ?= table2
profile:
	$(GO) run ./cmd/maficbench -benchmarks $(PROFILE_BENCH) -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof (alloc profile); inspect with: go tool pprof -top cpu.pprof"
