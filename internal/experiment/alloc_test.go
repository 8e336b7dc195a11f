package experiment

import (
	"runtime"
	"testing"
	"unsafe"

	"mafic/internal/checkpoint"
	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
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
	e, ok := LookupScenario("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	return Quick(e.Build())
}

// TestSnapshotSteadyStateAllocs pins what a snapshot costs once the run's
// capture session is warm. Steady state is a snapshot of a world no larger
// than one the session has already captured, measured here by snapshotting
// twice at each pause: the second allocates the output buffer and the encoder
// and nothing else, and no more bytes than the snapshot it hands to the sink
// plus the allocator's rounding (a large object is rounded up to an 8 KB
// page). The first at each pause may have to grow scratch, because the run
// holds more pending events, probe cycles or table entries than at any
// earlier snapshot; over the run that still averages under eight heap objects
// a snapshot.
func TestSnapshotSteadyStateAllocs(t *testing.T) {
	s := table2Quick(t)
	sched := getScheduler()
	defer putScheduler(sched)
	b, err := buildRun(s, topology.NewArena(), sched)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
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
		mallocs, bytes := heapDelta(snapshot)
		if mallocs > 2 {
			t.Errorf("pause %d: a repeat snapshot performed %d heap allocations, want at most 2", k, mallocs)
		}
		if limit := uint64(len(data)) + 8192 + 64; bytes > limit {
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
// snapshot: the output buffer plus the encoder, and a buffer sized to what
// was written rather than grown past it.
func TestEncodeAllocatesOnce(t *testing.T) {
	s := table2Quick(t)
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var out []byte
	if allocs := testing.AllocsPerRun(20, func() { out = checkpoint.Encode(snap) }); allocs > 2 {
		t.Errorf("Encode performed %v allocations, want at most 2", allocs)
	}
	if spare := cap(out) - len(out); spare > len(out)/8 {
		t.Errorf("Encode returned %d B in a %d B buffer", len(out), cap(out))
	}
}

// TestPlainRunPaysNothingForCheckpointing pins that the capture session is
// lazy: a run that is never snapshotted allocates what it did before the
// session existed. It is also the pin on what a warm run allocates at all:
// 57 536 B in 76 objects for quick table2 on warm pools (147 584 B in 124
// before the arena kept its network), the lowest of a few runs since map
// growth makes single runs wobble.
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
	if best > 76 || bestBytes > 57536 {
		t.Errorf("a plain run allocated %d B in %d objects, want at most 57536 B in 76", bestBytes, best)
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
	arena := topology.NewArena()
	run := func() {
		if _, err := runWith(s, arena); err != nil {
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

// TestStructSizes pins the two structs the engine holds by the hundred
// thousand. Packets come from the network's pool in chunks and a 50 000-router
// domain has 120 000 links, so a word on either shows directly in the
// benchmark's alloc_bytes_per_job: on paper-table2 through the packet chunks,
// on scale-50k through the link slab. Both carry the in-flight chain that
// replaced the per-packet transmit-done event without having grown for it.
func TestStructSizes(t *testing.T) {
	if got := unsafe.Sizeof(netsim.Packet{}); got > 120 {
		t.Errorf("netsim.Packet is %d bytes, want at most 120", got)
	}
	if got := unsafe.Sizeof(netsim.Link{}); got > 96 {
		t.Errorf("netsim.Link is %d bytes, want at most 96", got)
	}
}

// TestEventBudgetPerHop pins the engine's event count against the work it
// simulates: a link send costs one event, the arrival, so a run dispatches
// little more than one event per hop (measured 1.13; the rest is sources,
// probe cycles and epochs). A per-hop event creeping back in — it was 2.13
// with a transmit-done event per packet — fails here, not in a benchmark.
func TestEventBudgetPerHop(t *testing.T) {
	s := table2Quick(t)
	sched := getScheduler()
	defer putScheduler(sched)
	b, err := buildRun(s, topology.NewArena(), sched)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
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
