package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mafic/internal/checkpoint"
	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

// The suites in this file run the whole catalog (quick mode) and compare a
// variant of each scenario with its plain run. What a variant may differ in
// is storage only — which arena, scheduler or monitor buffers it was handed,
// how many routers carry a counter that can record nothing — so results must
// be bit-identical. Implementations are not compared here any more: the
// heap scheduler, the eager route tables, the dense adjacency rows and the
// fresh-buffer monitor are gone, their references live as small test-only
// code beside the layer they check (sim, topology, netsim, trafficmatrix),
// and the golden fixtures carry the catalog-wide results those references
// were last certified against. Three suites below kept their names from
// that time because the test floor pins their IDs, one per catalog entry:
// TestSchedulerBackendInvariance, TestAdjacencyModeInvariance (adjacency
// rows against ForEachLink) and TestRoutingModeEquivalence (forwarding
// against a breadth-first search).

// plainRun is one scenario's reference result, computed once per test binary.
type plainRun struct {
	once sync.Once
	res  Result
	err  error
}

var plainRuns sync.Map // scenario name → *plainRun

// runPlain computes, once per key, what s gives on an arena and a scheduler of
// its own, which is what a fresh process computes. key names the scenario variant; the
// suites share one plain run per variant.
func runPlain(key string, s Scenario) *plainRun {
	v, _ := plainRuns.LoadOrStore(key, new(plainRun))
	p := v.(*plainRun)
	p.once.Do(func() { p.res, p.err = runWith(s, newRunResources(), nil, ControlOptions{}) })
	return p
}

// plainResult returns the plain run's result, waiting for it if another
// goroutine is computing it.
func plainResult(t *testing.T, key string, s Scenario) Result {
	t.Helper()
	p := runPlain(key, s)
	if p.err != nil {
		t.Fatalf("plain run of %s: %v", key, p.err)
	}
	return p.res
}

// requireSameResult fails with the fields that moved when got is not
// bit-identical to want.
func requireSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		diffResults(t, label, want, got)
	}
}

// testArenaReuse runs every catalog scenario, hardened or not, on one bundle
// shared by the whole catalog — a sweep worker rebuilding wildly different
// topologies back to back, every engine object reset from the scenario
// before — and requires the plain run's result.
func testArenaReuse(t *testing.T, hardened bool) {
	variant := func(e Entry) (string, Scenario) {
		if hardened {
			return "hardened " + e.Name, Harden(Quick(e.Build()))
		}
		return e.Name, Quick(e.Build())
	}
	// The plain runs go through the catalog on the second core, in step
	// with the shared-arena runs below; the last subtest waits for the last.
	go func() {
		for _, e := range Entries() {
			runPlain(variant(e))
		}
	}()
	shared := newRunResources()
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			key, s := variant(e)
			got, err := runWith(s, shared, nil, ControlOptions{})
			if err != nil {
				t.Fatalf("shared-arena run: %v", err)
			}
			requireSameResult(t, "shared arena vs own arena", plainResult(t, key, s), got)
		})
	}
	if !hardened {
		return
	}
	// No quick catalog entry re-probes a flow, so the hardened sequence goes
	// on with a search point that does, on the bundle the last entry left,
	// and runs it twice: the second run resets defenders that hold the
	// first's demoted NFT entries and probing memory.
	s := reprobingPoint(t)
	for range 2 {
		t.Run(s.Name, func(t *testing.T) {
			got, err := runWith(s, shared, nil, ControlOptions{})
			if err != nil {
				t.Fatalf("shared-arena run: %v", err)
			}
			if got.DefenseStats.FlowsReprobed == 0 {
				t.Errorf("%s re-probed no flow", s.Name)
			}
			requireSameResult(t, "shared arena vs own arena", plainResult(t, s.Name, s), got)
		})
	}
}

// TestBufferReuseInvariance is the guarantee that makes the zero-alloc
// pipeline safe: reused storage — the arena's network, the bundle's monitor,
// coordinator, defenders, workload and scheduler — never leaks state between
// sweep points.
func TestBufferReuseInvariance(t *testing.T) { testArenaReuse(t, false) }

// TestHardenedBufferReuseInvariance repeats it with the robustness hardening
// switched on: the probing memory and the ATR hysteresis tables are reset in
// the same bundle. It ends with a full-size search point that re-probes flows,
// run twice on the shared bundle (reprobingPoint).
func TestHardenedBufferReuseInvariance(t *testing.T) { testArenaReuse(t, true) }

// TestMonitoredSetInvariance runs every scenario with the default monitored
// set and with every router listed in Monitor.Monitored: a counter on a
// router with no attached host can never record a packet (see the
// trafficmatrix package comment), so the two runs must agree bit for bit. An
// every-router monitor is four sketches a router, so domains are capped at
// stress-1k's size.
func TestMonitoredSetInvariance(t *testing.T) {
	t.Parallel()
	const maxRouters = 1000
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			key := e.Name
			if s.Topology.NumRouters > maxRouters {
				s.Topology.ExtraChords = s.Topology.ExtraChords * maxRouters / s.Topology.NumRouters
				s.Topology.NumRouters = maxRouters
				key += " capped"
			}
			all := s
			for id := 0; id < s.Topology.NumRouters; id++ { // routers are built first
				all.Monitor.Monitored = append(all.Monitor.Monitored, netsim.NodeID(id))
			}
			got, err := Run(all)
			if err != nil {
				t.Fatalf("every-router run: %v", err)
			}
			requireSameResult(t, "default set vs every router", plainResult(t, key, s), got)
		})
	}
}

// TestSchedulerBackendInvariance runs every scenario through Run, on
// whatever idle bundle the process holds — its scheduler's event arena and
// calendar-queue geometry tuned by whichever run came before — and requires
// the plain run's result, which was computed on a brand-new bundle.
// TestBufferReuseInvariance asks the same of a bundle it passes in itself;
// this one is the only suite that goes through Run's idle bundles.
func TestSchedulerBackendInvariance(t *testing.T) {
	t.Parallel()
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			got, err := Run(s)
			if err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			requireSameResult(t, "pooled scheduler vs new", plainResult(t, e.Name, s), got)
		})
	}
}

// catalogDomains builds every catalog scenario's quick topology, without
// running it, and hands the network to check.
func catalogDomains(t *testing.T, check func(t *testing.T, d *topology.Domain)) {
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			d, err := topology.Build(s.Topology, sim.NewScheduler(), sim.NewRNG(s.Seed))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			check(t, d)
		})
	}
}

// TestAdjacencyModeInvariance asks of every topology the catalog builds,
// stress-50k included, what netsim's adjacency_test.go asks of random graphs:
// LinkBetween finds each link ForEachLink visits, and Neighbors lists exactly
// the visited targets, ascending.
func TestAdjacencyModeInvariance(t *testing.T) {
	t.Parallel()
	catalogDomains(t, func(t *testing.T, d *topology.Domain) {
		net := d.Net
		targets := make([][]netsim.NodeID, net.NodeCount())
		links := 0
		net.ForEachLink(func(l *netsim.Link) {
			if net.LinkBetween(l.From(), l.To()) != l {
				t.Fatalf("LinkBetween(%d,%d) does not find %v", l.From(), l.To(), l)
			}
			targets[l.From()] = append(targets[l.From()], l.To())
			links++
		})
		if links != net.LinkTotal() {
			t.Fatalf("ForEachLink visited %d links, LinkTotal is %d", links, net.LinkTotal())
		}
		for id, want := range targets {
			if got := net.Neighbors(netsim.NodeID(id)); !slices.IsSorted(want) || !slices.Equal(got, want) {
				t.Fatalf("Neighbors(%d) = %v, links visited %v", id, got, want)
			}
		}
	})
}

// TestRoutingModeEquivalence holds every catalog topology's forwarding toward
// a host of each kind and toward a core router to a breadth-first search from
// that destination over Neighbors — the reference topology's lazy_test.go
// applies to every pair of nodes on small domains. Each router must forward
// on LinkBetween(router, reference next hop), the attachment link for a host
// it attaches, and NextHop must name the reference next hop.
func TestRoutingModeEquivalence(t *testing.T) {
	t.Parallel()
	catalogDomains(t, func(t *testing.T, d *topology.Domain) {
		net := d.Net
		dests := []netsim.NodeID{d.Victim.ID(), d.Clients[0].ID(), d.Zombies[len(d.Zombies)-1].ID(),
			d.Bystanders[0].ID(), d.Routers[len(d.Routers)/2].ID()}
		for _, v := range d.ExtraVictims {
			dests = append(dests, v.ID())
		}
		for _, dest := range dests {
			want := make([]netsim.NodeID, net.NodeCount())
			for i := range want {
				want[i] = netsim.NoNode
			}
			want[dest] = dest
			for queue := []netsim.NodeID{dest}; len(queue) > 0; queue = queue[1:] {
				for _, nb := range net.Neighbors(queue[0]) {
					if want[nb] == netsim.NoNode {
						want[nb] = queue[0]
						queue = append(queue, nb)
					}
				}
			}
			for _, r := range d.Routers {
				if r.ID() == dest {
					continue
				}
				var link *netsim.Link
				if net.Host(dest) != nil {
					link = net.AttachmentLink(r.ID(), dest)
				}
				attached := link != nil
				if !attached {
					link = net.RouteLink(r.ID(), dest)
				}
				if wantLink := net.LinkBetween(r.ID(), want[r.ID()]); link == nil || link != wantLink {
					t.Fatalf("router %d forwards toward %d on %v, breadth-first search says %v", r.ID(), dest, link, wantLink)
				}
				if attached {
					continue // delivered over the access link, never looked up
				}
				if got := net.NextHop(r.ID(), dest); got != want[r.ID()] {
					t.Fatalf("router %d forwards toward %d via %d, breadth-first search says %d", r.ID(), dest, got, want[r.ID()])
				}
			}
		}
	})
}

// TestArenaSequenceMatchesFreshArena runs large → small → chaos → large →
// transit-stub → small through one bundle — quick stress-5k, table2 at its
// full 40 routers, a partition that leaves links down and fault drops
// counted, stress-5k again, then a transit-stub domain, a multi-homed victim
// and extra victims — and requires each result to equal what the same
// scenario gives on a bundle of its own, which is what a fresh process
// computes. Every run ends with packets in flight; the next build resets the
// network under them. The defence switches along the way, so the bundle's
// defenders grow (4, 10 and 40 ingress routers), shrink, sit out a
// proportional-dropping and an undefended run, and come back hardened, with
// probing memory, before serving the paper's defence again.
func TestArenaSequenceMatchesFreshArena(t *testing.T) {
	t.Parallel()
	defences := map[string]func(*Scenario){
		"mafic":    func(*Scenario) {},
		"baseline": func(s *Scenario) { s.Defense = DefenseBaseline },
		"none":     func(s *Scenario) { s.Defense = DefenseNone },
		"hardened": func(s *Scenario) { *s = Harden(*s) },
	}
	shared := newRunResources()
	for i, step := range []struct{ name, defence string }{
		{"stress-5k", "mafic"}, {"table2", "mafic"}, {"table2", "baseline"}, {"partition-heal", "mafic"},
		{"stress-5k", "none"}, {"stress-5k", "hardened"}, {"table2", "mafic"}, {"transit-stub", "baseline"},
		{"multihomed-victim", "mafic"}, {"multi-victim", "mafic"},
	} {
		e, ok := LookupScenario(step.name)
		if !ok {
			t.Fatalf("%s not registered", step.name)
		}
		s := Quick(e.Build())
		if step.name == "table2" {
			s.Topology = e.Build().Topology
		}
		defences[step.defence](&s)
		s.Seed += int64(i)
		label := fmt.Sprintf("step %d (%s, %s)", i, step.name, step.defence)
		got, err := runWith(s, shared, nil, ControlOptions{})
		if err != nil {
			t.Fatalf("%s on the shared bundle: %v", label, err)
		}
		want, err := runWith(s, newRunResources(), nil, ControlOptions{})
		if err != nil {
			t.Fatalf("%s on its own bundle: %v", label, err)
		}
		if !reflect.DeepEqual(want, got) {
			diffResults(t, fmt.Sprintf("%s after %d builds on the bundle", label, i), want, got)
		}
	}
}

// TestSnapshotIndependentOfBundleHistory requires a snapshot's bytes not to
// depend on what the run bundle ran before: for each quick catalog entry, the
// snapshot at 90 % of the run taken on a bundle that has already run the
// entry once equals the one taken on a brand-new bundle. `make snap-diff`
// runs every scenario in a cold process, so it cannot see state a recycled
// bundle carries over; before the flow tables' Reset restarted entry
// generations, every entry's Defenders section differed in Entry.Gen here.
//
// The resume direction follows: the bundle keeps one Snapshot, which every
// capture refills and every resume decodes into, and the registry behind
// it. Resuming the entry from its 90 % snapshot, with a checkpoint at 95 %,
// on a bundle that has just captured and resumed the next catalog entry —
// another topology, workload and defence, with other lists, unions and late
// reports left in the Snapshot — must give the result and the 95 % snapshot
// it gives on a brand-new bundle.
func TestSnapshotIndependentOfBundleHistory(t *testing.T) {
	t.Parallel()
	entries := Entries()
	for i, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			snapshot := func(s Scenario, res *runResources) []byte {
				var data []byte
				save := func(_ sim.Time, d []byte) error { data = d; return nil }
				opts := ControlOptions{Save: save, at: []sim.Time{s.Duration * 9 / 10}}
				if _, err := runWith(s, res, nil, opts); err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
				return data
			}
			fresh := snapshot(s, newRunResources())
			res := newRunResources()
			if _, err := runWith(s, res, nil, ControlOptions{}); err != nil {
				t.Fatalf("first run on the bundle: %v", err)
			}
			if recycled := snapshot(s, res); !bytes.Equal(fresh, recycled) {
				t.Errorf("snapshot on a bundle that already ran the entry differs from a fresh bundle's (%d vs %d bytes)", len(recycled), len(fresh))
			}

			// resume resumes data, a snapshot of s at 90 %, and checkpoints
			// it again at 95 %.
			resume := func(s Scenario, data []byte, res *runResources) (Result, []byte) {
				var next []byte
				save := func(_ sim.Time, d []byte) error { next = d; return nil }
				got, err := resumeWith(data, res, ControlOptions{Save: save, at: []sim.Time{s.Duration * 19 / 20}})
				if err != nil || next == nil {
					t.Fatalf("resume of %s: %v, %d bytes checkpointed", s.Name, err, len(next))
				}
				return got, next
			}
			want, wantNext := resume(s, fresh, newRunResources())
			other := Quick(entries[(i+1)%len(entries)].Build())
			res = newRunResources()
			resume(other, snapshot(other, res), res)
			got, gotNext := resume(s, fresh, res)
			requireSameResult(t, "resume on a bundle that captured and resumed "+other.Name, want, got)
			if !bytes.Equal(wantNext, gotNext) {
				t.Errorf("the snapshot after a resume on a bundle that captured and resumed %s differs from a fresh bundle's (%d vs %d bytes)",
					other.Name, len(gotNext), len(wantNext))
			}
		})
	}
}

// TestResumeKeepsEveryLateReport requires a resume on a bundle that has
// captured before to restore every delayed report in flight, each its own.
// The reports arrive three epochs late, so two or three are pending at every
// pause. The bundle captures quick lossy-control at 900 ms and again at 1 s;
// the second capture is the shorter and writes over only the head of the
// kept event list, so one report record is left at two places of it. The
// 900 ms snapshot, its events reordered to put two delayed reports at those
// places (restore takes events in any order), must then resume on the bundle
// to what it resumes to on a brand-new one. When a decode kept the record it
// found at an event's place, both reports decoded into the one record and
// the run went on with the second twice.
func TestResumeKeepsEveryLateReport(t *testing.T) {
	t.Parallel()
	e, ok := LookupScenario("lossy-control")
	if !ok {
		t.Fatal("lossy-control not registered")
	}
	s := Quick(e.Build())
	s.Faults.ReportDelayProb = 1
	s.Faults.ReportDelay = 3 * s.Monitor.Epoch
	var snaps [][]byte
	save := func(_ sim.Time, d []byte) error { snaps = append(snaps, d); return nil }
	res := newRunResources()
	if _, err := runWith(s, res, nil, ControlOptions{Save: save, at: []sim.Time{900 * sim.Millisecond, sim.Second}}); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}

	kept := res.session.snap.Events
	kept = kept[:cap(kept)]
	first, second := -1, -1
	for a := 0; a < len(kept) && first < 0; a++ {
		for b := a + 1; b < len(kept) && kept[a].Report != nil; b++ {
			if kept[b].Report == kept[a].Report {
				first, second = a, b
				break
			}
		}
	}
	if first < 0 {
		t.Fatal("the two captures left no report record at two places of the bundle's event list")
	}
	data := mutateSnapshot(t, snaps[0], func(snap *checkpoint.Snapshot) bool {
		evs := snap.Events
		if len(evs) <= second {
			return false
		}
		for _, dst := range []int{first, second} {
			for k := range evs {
				if evs[dst].Kind == checkpoint.EvMonitorLate {
					break
				}
				if k != first && k != second && evs[k].Kind == checkpoint.EvMonitorLate {
					evs[dst], evs[k] = evs[k], evs[dst]
				}
			}
		}
		return evs[first].Kind == checkpoint.EvMonitorLate && evs[second].Kind == checkpoint.EvMonitorLate
	})

	want, err := resumeWith(data, newRunResources(), ControlOptions{})
	if err != nil {
		t.Fatalf("resume on a new bundle: %v", err)
	}
	got, err := resumeWith(data, res, ControlOptions{})
	if err != nil {
		t.Fatalf("resume on the bundle: %v", err)
	}
	requireSameResult(t, fmt.Sprintf("resume with delayed reports at events %d and %d on the bundle that captured", first, second), want, got)
}
