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

// heapDelta runs fn and reports the heap objects and bytes it allocated. The
// counters are the process's, so a test that reads them does not call
// t.Parallel: Go runs the package's sequential tests first, one at a time, and
// its parallel ones after them.
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
	t.Parallel()
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
// session existed. It is also the pin on what a warm run through Run
// allocates at all: one object, its Result's series (1 280 B for quick
// table2), the lowest of a few runs, alone or after the package's other
// tests have used the idle bundles it draws. It was 5 352 B in 25 objects
// before the bundle kept its collector, built run and build callbacks,
// 57 536 B in 76 before it kept its RNG streams and 147 584 B in 124 before
// the arena kept its network. TestRecycledRunAllocations pins every catalog
// entry the same way.
func TestPlainRunPaysNothingForCheckpointing(t *testing.T) {
	s := table2Quick(t)
	best, bestBytes, series := ^uint64(0), ^uint64(0), uint64(0)
	for i := 0; i < 6; i++ {
		mallocs, bytes := heapDelta(func() {
			r, err := Run(s)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			series = uint64(cap(r.Series)) * uint64(unsafe.Sizeof(r.Series[0]))
		})
		if i == 0 {
			continue // fills the pools
		}
		best, bestBytes = min(best, mallocs), min(bestBytes, bytes)
	}
	if want := sizeClass(series); best > 1 || bestBytes > want {
		t.Errorf("a plain run allocated %d B in %d objects, want at most %d B in 1: its Result's series", bestBytes, best, want)
	}
}

// sizeClass is what the allocator hands out for an object of n bytes: the
// capacity an append grows a nil byte slice to.
func sizeClass(n uint64) uint64 {
	return uint64(cap(append([]byte(nil), make([]byte, n)...)))
}

// TestRecycledRunAllocations pins what a warm run of each catalog entry
// (quick) on one bundle allocates, the lower of its second and third runs:
// exactly its Result's series, at the allocator's size class for it, and
// nothing else. Everything else a run builds is the bundle's and reset in
// place: the built run, the metrics collector with its series bins and hooks,
// the callbacks the build wires, the victim servers, the coordinator's
// request buffer, the calendar's largest bucket array, the flow tables' free
// list and the monitor's delayed reports. Before the bundle kept its RNG
// streams a second run allocated 54–372 KB, one 5.5 KB math/rand source per
// stream.
//
// heapDelta reads the process's counters, so a run is also charged for what
// the runtime allocates beside it: a new OS thread's records (5 248 B) when
// the scheduler starts one, or a P's timer heap growing when the scavenger
// sleeps there (16 B). Each is a one-off, seen in about one warm run in a
// thousand, and the lower of two runs leaves it out unless both are hit.
// Until the flow tables sized their free list when carving a chunk and the
// calendar restarted its bucket count on reset, every second run allocated
// more (the free list's growth, 304 B on carpet-bombing; a longer bucket
// array, 2 KB on stress-5k), so the pin rested on the third run alone and
// failed whenever the runtime allocated during it.
//
// The same bundle then serves checkpointed runs and resumes, and its
// checkpoint session is pinned against that exact figure. A second run
// checkpointed at 90 % of its duration allocates the snapshot it hands to
// Save, rounded up to the allocator's 8 KB page, and at most ckptMargin
// beyond a plain run: the save goroutine and the scenario's JSON (measured at
// most 8 KB). A second resume from that snapshot allocates at most
// resumeMargin beyond a plain run (measured at most 6 KB): the decode refills
// the bundle's Snapshot in place. When every run's session and every
// resume's Snapshot were new, the checkpointed runs allocated 190 KB (shrew)
// to 46 MB (stress-50k) beyond their snapshot and a plain run, and the
// resumes 73 KB to 10 MB.
func TestRecycledRunAllocations(t *testing.T) {
	const ckptMargin, resumeMargin = 16 << 10, 8 << 10
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			s := Quick(e.Build())
			res := newRunResources()
			_, plain, series := lowestRun(seriesRun(t, s, res))
			if want := sizeClass(series); plain != want {
				t.Errorf("a second run on a recycled bundle allocated %d B, want %d: its Result's series", plain, want)
			}

			var data []byte
			_, ckpt, snapshot := lowestRun(func() uint64 {
				save := func(_ sim.Time, d []byte) error { data = d; return nil }
				if _, err := runWith(s, res, nil, ControlOptions{Save: save, at: []sim.Time{s.Duration * 9 / 10}}); err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
				return (uint64(len(data)) + 8191) &^ 8191
			})
			if limit := snapshot + plain + ckptMargin; ckpt > limit {
				t.Errorf("a second checkpointed run on a recycled bundle allocated %d B for a %d B snapshot, want at most %d",
					ckpt, len(data), limit)
			}
			_, resumed, _ := lowestRun(func() uint64 {
				if _, err := resumeWith(data, res, ControlOptions{}); err != nil {
					t.Fatalf("resume: %v", err)
				}
				return 0
			})
			if limit := plain + resumeMargin; resumed > limit {
				t.Errorf("a second resume on a recycled bundle allocated %d B, want at most %d", resumed, limit)
			}
		})
	}
	// The proportional baseline's droppers and their drop observer are the
	// bundle's too: a second quick table2 run under it allocates its series
	// in one object. Before the bundle kept them it allocated 1 600 B in 9.
	t.Run("table2/baseline", func(t *testing.T) {
		s := table2Quick(t)
		s.Defense = DefenseBaseline
		objects, bytes, series := lowestRun(seriesRun(t, s, newRunResources()))
		if want := sizeClass(series); bytes != want || objects != 1 {
			t.Errorf("a second baseline run on a recycled bundle allocated %d B in %d objects, want %d B in 1: its Result's series",
				bytes, objects, want)
		}
	})
}

// lowestRun runs fn three times and returns the lower of what the second and
// the third allocated, objects and bytes, with what fn returned on that run.
func lowestRun(fn func() uint64) (objects, bytes, ret uint64) {
	fn()
	bytes = ^uint64(0)
	for i := 0; i < 2; i++ {
		var r uint64
		if o, b := heapDelta(func() { r = fn() }); b < bytes {
			objects, bytes, ret = o, b, r
		}
	}
	return objects, bytes, ret
}

// seriesRun returns a run of s on res that reports its Result's series size
// in bytes.
func seriesRun(t *testing.T, s Scenario, res *runResources) func() uint64 {
	return func() uint64 {
		r, err := runWith(s, res, nil, ControlOptions{})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return uint64(cap(r.Series)) * uint64(unsafe.Sizeof(r.Series[0]))
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

// TestStress50kBundleHeap pins what a bundle keeps after a quick stress-50k
// run: its 50 259-node, 130 518-link domain and the 12 route columns its
// traffic materializes (toward the victims, and back toward the sources that
// acknowledgements and probes go to). Links, routers and adjacency entries
// are pinned one by one in netsim's TestStructSizes and TestAdjacencySizes;
// this is their sum with the per-node tables and the columns, as every idle
// bundle holds it: 8.9 MB. It was 31.6 MB with 8-byte link pointers in
// columns and rows, 22.6 MB with every link and router holding its run state
// inline, used or not, 15.4 MB with 24-byte links, 40-byte routers, 4-byte
// column entries, a 16-byte node-table entry and a node-wide counter table in
// the monitor, and 10.0 MB with 12-byte adjacency entries and 8-byte row
// locators.
func TestStress50kBundleHeap(t *testing.T) {
	e, ok := LookupScenario("stress-50k")
	if !ok {
		t.Fatal("stress-50k not registered")
	}
	s := Quick(e.Build())
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	res := newRunResources()
	if _, err := runWith(s, res, nil, ControlOptions{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	held := heap() - before
	runtime.KeepAlive(res)
	const limit = 9.5e6
	t.Logf("a bundle after a quick stress-50k run holds %.2f MB of heap", float64(held)/1e6)
	if held > limit {
		t.Errorf("a bundle after a quick stress-50k run holds %.1f MB of heap, want at most %.1f MB", float64(held)/1e6, limit/1e6)
	}
}

// TestEventBudgetPerHop pins the engine's event count against the work it
// simulates: a link send costs one event, the arrival, so a run dispatches
// little more than one event per hop (measured 1.13; the rest is sources,
// probe cycles and epochs). A per-hop event creeping back in — it was 2.13
// with a transmit-done event per packet — fails here, not in a benchmark.
func TestEventBudgetPerHop(t *testing.T) {
	t.Parallel()
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
