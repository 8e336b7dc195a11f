package experiment

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"mafic/internal/checkpoint"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// heapDelta runs fn and reports the heap objects and bytes it allocated.
func heapDelta(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func table2Quick(t *testing.T) Scenario {
	t.Helper()
	return Quick(fullTable2(t))
}

// TestSnapshotSteadyStateAllocs pins what a snapshot costs once the run's
// capture session is warm. Steady state is a snapshot of a world no larger
// than one the session has already captured, measured here by snapshotting
// twice at each pause: the second makes one allocation, the buffer it hands
// to the sink, of exactly the snapshot's size rounded up to the allocator's
// 8 KB page. The first at each pause may have to grow scratch, because the run
// holds more pending events, probe cycles or table entries than at any
// earlier snapshot, or encodes to more bytes; over the run that still averages
// under eight heap objects a snapshot.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	s := table2Quick(t)
	b, err := buildRun(s, newRunResources())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer b.release()
	sched := b.res.sched
	var data []byte
	snapshot := func() {
		if data, err = b.snapshot(); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
	}
	const pauses = 16
	var advancing uint64
	for k := sim.Time(1); k < pauses; k++ {
		if err := sched.RunUntil(s.Duration * k / pauses); err != nil {
			t.Fatalf("run: %v", err)
		}
		mallocs, _ := heapDelta(snapshot)
		if k > 1 { // the very first snapshot builds the session
			advancing += mallocs
		}
		// The counters are the process's: the lower of two repeats keeps a
		// stray allocation by the runtime out of the reading.
		mallocs, bytes := heapDelta(snapshot)
		if again, againBytes := heapDelta(snapshot); again < mallocs {
			mallocs, bytes = again, againBytes
		}
		if mallocs != 1 {
			t.Errorf("pause %d: a repeat snapshot performed %d heap allocations, want 1", k, mallocs)
		}
		if limit := (uint64(len(data)) + 8191) &^ 8191; bytes > limit {
			t.Errorf("pause %d: a repeat snapshot allocated %d B for %d B of snapshot, want at most %d", k, bytes, len(data), limit)
		}
	}
	if limit := uint64(8 * (pauses - 2)); advancing > limit {
		t.Errorf("%d snapshots of an advancing run performed %d heap allocations, want at most %d", pauses-2, advancing, limit)
	}
	if err := sched.RunUntil(s.Duration); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := b.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

// TestEncodeAllocatesOnce pins the single-allocation encode on a decoded real
// snapshot, once its first Encode has grown the scratch it is written into:
// the output buffer and nothing else, sized to exactly what was written.
func TestEncodeAllocatesOnce(t *testing.T) {
	s := table2Quick(t)
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var out []byte
	if allocs := testing.AllocsPerRun(20, func() { out = checkpoint.Encode(snap) }); allocs != 1 {
		t.Errorf("Encode performed %v allocations, want 1", allocs)
	}
	if cap(out) != len(out) || !bytes.Equal(out, data) {
		t.Errorf("Encode returned %d B in a %d B buffer for a %d B snapshot", len(out), cap(out), len(data))
	}
}

// TestSnapshotSizes pins what a snapshot weighs at full size, so that a
// format change which re-inflates it fails here rather than in a benchmark's
// alloc_bytes_per_job: every snapshot of table2 checkpointed each 100 ms fits
// 64 KB (43 KB measured; 142 KB with fixed-width integers and every sketch
// written out), and the median of stress-1k each 10 ms fits 256 KB (202 KB;
// was 673 KB).
func TestSnapshotSizes(t *testing.T) {
	sizes := func(name string, every sim.Time) []int {
		e, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		var out []int
		if _, err := RunControlled(e.Build(), ControlOptions{
			CheckpointEvery: every,
			Save: func(_ sim.Time, data []byte) error {
				out = append(out, len(data))
				return nil
			},
		}); err != nil {
			t.Fatalf("%s: checkpointed run: %v", name, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: no snapshot was taken", name)
		}
		slices.Sort(out)
		return out
	}
	if all := sizes("table2", 100*sim.Millisecond); all[len(all)-1] > 64<<10 {
		t.Errorf("the largest of %d table2 snapshots is %d B, want at most %d", len(all), all[len(all)-1], 64<<10)
	}
	if all := sizes("stress-1k", 10*sim.Millisecond); all[len(all)/2] > 256<<10 {
		t.Errorf("the median of %d stress-1k snapshots is %d B, want at most %d", len(all), all[len(all)/2], 256<<10)
	}
}

// TestPlainRunPaysNothingForCheckpointing pins that the capture session is
// lazy: a run that is never snapshotted allocates what it did before the
// session existed. It is also the pin on what a warm run allocates at all:
// 5 352 B in 25 objects for quick table2 on warm pools (57 536 B in 76
// before the bundle kept its RNG streams, 147 584 B in 124 before the arena
// kept its network), the lowest of a few runs since map growth makes single
// runs wobble. Run alone it is 4 712 B in 23; in the whole package the idle
// bundles it draws have served other tests' scenarios first, which costs
// 640 B in 2 more. TestRecycledRunAllocations names what is left.
func TestPlainRunPaysNothingForCheckpointing(t *testing.T) {
	s := table2Quick(t)
	best, bestBytes := ^uint64(0), ^uint64(0)
	for i := 0; i < 6; i++ {
		mallocs, bytes := heapDelta(func() {
			if _, err := Run(s); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
		if i == 0 {
			continue // fills the pools
		}
		best, bestBytes = min(best, mallocs), min(bestBytes, bytes)
	}
	if best > 25 || bestBytes > 5352 {
		t.Errorf("a plain run allocated %d B in %d objects, want at most 5352 B in 25", bestBytes, best)
	}
}

// TestRecycledRunAllocations pins what the second run of each catalog entry
// (quick) on one bundle allocates, the lower of two such runs. Every run
// still allocates about 5 KB in about 25 objects: the builtRun, the metrics
// collector with its series bins, the result's copy of the series, the
// build's closures and the victim servers. What an entry adds beyond that
// has a row in extra: the 5 000- and 50 000-router domains regrow their
// calendar buckets, and lossy-control's late reports each clone their
// matrix (trafficmatrix.EpochReport.Clone, about 85 KB a run). Before the
// bundle kept its RNG streams a second run allocated 54–372 KB, one 5.5 KB
// math/rand source per stream.
//
// The same bundle then serves checkpointed runs and resumes, and its
// checkpoint session is pinned the same way. A second run checkpointed at
// 90 % of its duration allocates the snapshot it hands to Save, rounded up to
// the allocator's 8 KB page, and at most ckptMargin beyond a plain run: the
// save goroutine and the scenario's JSON (measured at most 8 KB). A second
// resume from that snapshot allocates at most resumeMargin beyond a plain run
// (measured at most 6 KB): the decode refills the bundle's Snapshot in place.
// When every run's session and every resume's Snapshot were new, the
// checkpointed runs allocated 190 KB (shrew) to 46 MB (stress-50k) beyond
// their snapshot and a plain run, and the resumes 73 KB to 10 MB.
func TestRecycledRunAllocations(t *testing.T) {
	const base = 8 << 10
	const ckptMargin, resumeMargin = 16 << 10, 8 << 10
	extra := map[string]uint64{
		"stress-5k":     2 << 10,
		"stress-50k":    2 << 10,
		"lossy-control": 92 << 10,
	}
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			s := Quick(e.Build())
			res := newRunResources()
			// lowest runs fn three times on the bundle and returns the lower
			// of what the second and the third allocated, with what fn
			// returned on that run.
			lowest := func(fn func() uint64) (bytes, ret uint64) {
				fn()
				bytes = ^uint64(0)
				for i := 0; i < 2; i++ {
					var r uint64
					if _, b := heapDelta(func() { r = fn() }); b < bytes {
						bytes, ret = b, r
					}
				}
				return bytes, ret
			}
			plain, _ := lowest(func() uint64 {
				if _, err := runWith(s, res, nil, ControlOptions{}); err != nil {
					t.Fatalf("run: %v", err)
				}
				return 0
			})
			if limit := base + extra[e.Name]; plain > limit {
				t.Errorf("a second run on a recycled bundle allocated %d B, want at most %d", plain, limit)
			}

			var data []byte
			ckpt, snapshot := lowest(func() uint64 {
				save := func(_ sim.Time, d []byte) error { data = d; return nil }
				if _, err := runWith(s, res, nil, ControlOptions{Save: save, at: []sim.Time{s.Duration * 9 / 10}}); err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
				return (uint64(len(data)) + 8191) &^ 8191
			})
			if limit := snapshot + base + extra[e.Name] + ckptMargin; ckpt > limit {
				t.Errorf("a second checkpointed run on a recycled bundle allocated %d B for a %d B snapshot, want at most %d",
					ckpt, len(data), limit)
			}
			resumed, _ := lowest(func() uint64 {
				if _, err := resumeWith(data, res, ControlOptions{}); err != nil {
					t.Fatalf("resume: %v", err)
				}
				return 0
			})
			if limit := base + extra[e.Name] + resumeMargin; resumed > limit {
				t.Errorf("a second resume on a recycled bundle allocated %d B, want at most %d", resumed, limit)
			}
		})
	}
}

// TestRebuildReusesTheNetwork pins the arena's network: the first quick
// stress-5k run through an arena carves the domain (6.7 MB), every later one
// rebuilds it in place and allocates a twentieth of that — a tenth is the
// limit. Before the arena kept its network a later run still allocated 3.7 MB.
func TestRebuildReusesTheNetwork(t *testing.T) {
	e, ok := LookupScenario("stress-5k")
	if !ok {
		t.Fatal("stress-5k not registered")
	}
	s := Quick(e.Build())
	res := newRunResources()
	run := func() {
		if _, err := runWith(s, res, nil, ControlOptions{}); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	_, first := heapDelta(run)
	for i := 2; i <= 4; i++ {
		if _, bytes := heapDelta(run); bytes > first/10 {
			t.Errorf("run %d through the arena allocated %d B, the first %d B: want at most a tenth", i, bytes, first)
		}
	}
}

// TestStructSizes pins the structs a domain is made of. Packets come from the
// network's pool in chunks, and the quick 50 000-router domain has about
// 130 000 links and 50 000 routers, so a word on any of them shows in the
// benchmark's peak_rss_mb and alloc_bytes_per_job: on paper-table2 through
// the packet chunks, on scale-50k through the router and link slabs. Packet
// and Link carry the in-flight chain that replaced the per-packet
// transmit-done event without having grown for it; nodes carry no name, and
// links share their configuration. Host rides along so that it, too, cannot
// grow back a name.
func TestStructSizes(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"Packet", unsafe.Sizeof(netsim.Packet{}), 120},
		{"Link", unsafe.Sizeof(netsim.Link{}), 80},
		{"Router", unsafe.Sizeof(netsim.Router{}), 72},
		{"Host", unsafe.Sizeof(netsim.Host{}), 160},
	} {
		if c.got > c.max {
			t.Errorf("netsim.%s is %d bytes, want at most %d", c.name, c.got, c.max)
		}
	}
}

// TestEventBudgetPerHop pins the engine's event count against the work it
// simulates: a link send costs one event, the arrival, so a run dispatches
// little more than one event per hop (measured 1.13; the rest is sources,
// probe cycles and epochs). A per-hop event creeping back in — it was 2.13
// with a transmit-done event per packet — fails here, not in a benchmark.
func TestEventBudgetPerHop(t *testing.T) {
	s := table2Quick(t)
	b, err := buildRun(s, newRunResources())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer b.release()
	sched := b.res.sched
	if err := sched.RunUntil(s.Duration); err != nil {
		t.Fatalf("run: %v", err)
	}
	var hops uint64
	b.domain.Net.ForEachLink(func(l *netsim.Link) { hops += l.Sent() })
	res, err := b.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if hops == 0 || float64(res.EventsProcessed) > 1.2*float64(hops) {
		t.Errorf("%d events for %d link sends (%.2f per hop), want at most 1.2",
			res.EventsProcessed, hops, float64(res.EventsProcessed)/float64(hops))
	}
}

// TestInterruptedRunReleasesWhatItBuilt pins the single tear-down: a run
// interrupted through its control surface hands its bundle back with its MAFIC
// defenders — flow tables and probe slabs — like a finished one, so the run
// after it allocates no more than any warm run. Before builtRun had one
// release, the interrupt path kept them and every interrupted, timed-out or
// failed-save attempt in maficserve cost the next attempt a fresh set.
func TestInterruptedRunReleasesWhatItBuilt(t *testing.T) {
	s := table2Quick(t)
	stopped := make(chan struct{})
	close(stopped)
	plain := func() {
		if _, err := Run(s); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	plain() // fills the pools
	warm, afterInterrupt := ^uint64(0), ^uint64(0)
	for i := 0; i < 5; i++ {
		_, b := heapDelta(plain)
		warm = min(warm, b)
	}
	for i := 0; i < 5; i++ {
		if _, err := RunControlled(s, ControlOptions{Interrupt: stopped}); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
		}
		_, b := heapDelta(plain)
		afterInterrupt = min(afterInterrupt, b)
	}
	if afterInterrupt > warm {
		t.Errorf("a run after an interrupted one allocated %d B, a warm run %d B: the interrupt kept its run's objects", afterInterrupt, warm)
	}
}
