package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

// oracleMaxRouters bounds the domain size used when an equivalence test must
// run a quadratic oracle — eager all-pairs routing, dense adjacency rows, an
// every-router monitor — against the default path. The oracles are O(nodes²)
// by design (that is why they were replaced), so at stress-50k scale they
// would need tens of gigabytes; capping the router count while preserving the
// scenario's chord density keeps the comparison honest and laptop-sized.
const oracleMaxRouters = 5000

// oracleScale caps a quick scenario at oracleMaxRouters routers, scaling the
// extra-chord count proportionally so path shapes stay representative.
func oracleScale(s Scenario) Scenario {
	if s.Topology.NumRouters <= oracleMaxRouters {
		return s
	}
	s.Topology.ExtraChords = s.Topology.ExtraChords * oracleMaxRouters / s.Topology.NumRouters
	s.Topology.NumRouters = oracleMaxRouters
	return s
}

// TestAdjacencyModeInvariance runs every registered scenario (quick mode,
// stress scenarios capped at the oracle scale) with the default sparse
// adjacency rows and with the historical dense rows, under both routing
// modes, and requires bit-identical results. This is the system-level
// guarantee behind the sparse representation: both layouts answer LinkBetween
// identically and iterate neighbours in the same ascending order, so BFS
// tie-breaking — and therefore every forwarding decision, measurement and
// verdict — cannot tell them apart, and no golden fixture moved when sparse
// became the default.
func TestAdjacencyModeInvariance(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			for _, routing := range []struct {
				name string
				mode topology.RoutingMode
			}{{"lazy", topology.RoutingLazy}, {"eager", topology.RoutingEager}} {
				sparse := oracleScale(Quick(e.Build()))
				sparse.Topology.Routing = routing.mode
				dense := sparse
				dense.Topology.Adjacency = netsim.AdjacencyDense

				gotSparse, err := Run(sparse)
				if err != nil {
					t.Fatalf("%s sparse run: %v", routing.name, err)
				}
				gotDense, err := Run(dense)
				if err != nil {
					t.Fatalf("%s dense run: %v", routing.name, err)
				}
				if !reflect.DeepEqual(gotSparse, gotDense) {
					t.Errorf("%s: sparse and dense adjacency runs diverge", routing.name)
					if gotSparse.Counts != gotDense.Counts {
						t.Errorf("counts: sparse %+v, dense %+v", gotSparse.Counts, gotDense.Counts)
					}
					if gotSparse.EventsProcessed != gotDense.EventsProcessed {
						t.Errorf("events: sparse %d, dense %d", gotSparse.EventsProcessed, gotDense.EventsProcessed)
					}
					if gotSparse.Accuracy != gotDense.Accuracy {
						t.Errorf("accuracy: sparse %v, dense %v", gotSparse.Accuracy, gotDense.Accuracy)
					}
				}
			}
		})
	}
}

// TestMonitoredSetInvariance runs every registered scenario with the default
// monitored-only traffic matrix and with the historical every-router monitor,
// and requires bit-identical results: a counter on a router with no attached
// host can never record a packet (see the trafficmatrix package comment), so
// instrumenting only the host-adjacent routers changes nothing an epoch
// report, the pushback coordinator, or any golden fixture can observe.
func TestMonitoredSetInvariance(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			monitored := oracleScale(Quick(e.Build()))
			all := monitored
			all.Monitor.MonitorAll = true

			gotMonitored, err := Run(monitored)
			if err != nil {
				t.Fatalf("monitored run: %v", err)
			}
			gotAll, err := Run(all)
			if err != nil {
				t.Fatalf("monitor-all run: %v", err)
			}
			if !reflect.DeepEqual(gotMonitored, gotAll) {
				t.Errorf("monitored-only and every-router runs diverge")
				if gotMonitored.Counts != gotAll.Counts {
					t.Errorf("counts: monitored %+v, all %+v", gotMonitored.Counts, gotAll.Counts)
				}
				if gotMonitored.EventsProcessed != gotAll.EventsProcessed {
					t.Errorf("events: monitored %d, all %d", gotMonitored.EventsProcessed, gotAll.EventsProcessed)
				}
				if gotMonitored.Accuracy != gotAll.Accuracy {
					t.Errorf("accuracy: monitored %v, all %v", gotMonitored.Accuracy, gotAll.Accuracy)
				}
			}
		})
	}
}

// TestSchedulerBackendInvariance runs every registered scenario (quick mode,
// stress-1k included) on the default calendar-queue scheduler and on the
// 4-ary-heap escape hatch and requires bit-identical results. This is the
// system-level guarantee behind the scheduler swap: both backends dispatch
// events in exactly the same (time, sequence) order, so no golden fixture
// can tell them apart.
func TestSchedulerBackendInvariance(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			calendar := Quick(e.Build())
			heap := Quick(e.Build())
			heap.Scheduler = sim.SchedulerConfig{Backend: sim.BackendHeap}

			gotCalendar, err := Run(calendar)
			if err != nil {
				t.Fatalf("calendar run: %v", err)
			}
			gotHeap, err := Run(heap)
			if err != nil {
				t.Fatalf("heap run: %v", err)
			}
			if !reflect.DeepEqual(gotCalendar, gotHeap) {
				t.Errorf("calendar and heap runs diverge")
				if gotCalendar.Counts != gotHeap.Counts {
					t.Errorf("counts: calendar %+v, heap %+v", gotCalendar.Counts, gotHeap.Counts)
				}
				if gotCalendar.EventsProcessed != gotHeap.EventsProcessed {
					t.Errorf("events: calendar %d, heap %d", gotCalendar.EventsProcessed, gotHeap.EventsProcessed)
				}
				if gotCalendar.Accuracy != gotHeap.Accuracy {
					t.Errorf("accuracy: calendar %v, heap %v", gotCalendar.Accuracy, gotHeap.Accuracy)
				}
			}
		})
	}
}

// TestHardenedBufferReuseInvariance repeats the pooled-vs-fresh proof with
// the robustness hardening switched on across the whole catalog: the probing
// memory and the ATR hysteresis tables are recycled through the same pools,
// so they too must never leak state between runs. Bit-identical results or
// the hardened zero-alloc path is unsound.
func TestHardenedBufferReuseInvariance(t *testing.T) {
	arena := topology.NewArena()

	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			pooled := Harden(Quick(e.Build()))
			fresh := Harden(Quick(e.Build()))
			fresh.Monitor.FreshBuffers = true

			gotPooled, err := runWith(pooled, arena)
			if err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			gotFresh, err := runWith(fresh, nil)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if !reflect.DeepEqual(gotPooled, gotFresh) {
				t.Errorf("hardened pooled and fresh runs diverge")
				if gotPooled.Counts != gotFresh.Counts {
					t.Errorf("counts: pooled %+v, fresh %+v", gotPooled.Counts, gotFresh.Counts)
				}
				if gotPooled.Accuracy != gotFresh.Accuracy {
					t.Errorf("accuracy: pooled %v, fresh %v", gotPooled.Accuracy, gotFresh.Accuracy)
				}
				if gotPooled.ATRCount != gotFresh.ATRCount {
					t.Errorf("ATRs: pooled %d, fresh %d", gotPooled.ATRCount, gotFresh.ATRCount)
				}
			}
		})
	}
}

// TestArenaSequenceMatchesFreshArena runs large → small → chaos → large →
// transit-stub → small through one arena — quick stress-5k, table2 at its
// full 40 routers, a partition that leaves links down and fault drops
// counted, stress-5k again, then a transit-stub domain, a multi-homed victim
// and extra victims — and requires each result to equal what the same
// scenario gives on an arena of its own, which is what a fresh process
// computes. Every run ends with packets in flight; the next build resets the
// network under them.
func TestArenaSequenceMatchesFreshArena(t *testing.T) {
	arena := topology.NewArena()
	for i, name := range []string{"stress-5k", "table2", "partition-heal", "stress-5k", "transit-stub", "multihomed-victim", "multi-victim"} {
		e, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		s := Quick(e.Build())
		if name == "table2" {
			s.Topology = e.Build().Topology
		}
		s.Seed += int64(i)
		got, err := runWith(s, arena)
		if err != nil {
			t.Fatalf("step %d (%s) on the shared arena: %v", i, name, err)
		}
		want, err := runWith(s, topology.NewArena())
		if err != nil {
			t.Fatalf("step %d (%s) on its own arena: %v", i, name, err)
		}
		if !reflect.DeepEqual(want, got) {
			diffResults(t, fmt.Sprintf("step %d (%s) after %d builds on the arena", i, name, i), want, got)
		}
	}
}

// TestBufferReuseInvariance runs every registered scenario (quick mode) down
// both refactor paths — pooled epoch-report buffers + a shared topology arena
// versus fresh buffers + fresh builds — and requires bit-identical results.
// This is the guarantee that makes the zero-alloc pipeline safe: buffer reuse
// can never leak state between epochs or between sweep points.
func TestBufferReuseInvariance(t *testing.T) {
	// One arena deliberately shared across every scenario in the catalog,
	// mimicking a sweep worker that rebuilds wildly different topologies
	// back to back.
	arena := topology.NewArena()

	for _, e := range Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			pooled := Quick(e.Build())
			fresh := Quick(e.Build())
			fresh.Monitor.FreshBuffers = true

			gotPooled, err := runWith(pooled, arena)
			if err != nil {
				t.Fatalf("pooled run: %v", err)
			}
			gotFresh, err := runWith(fresh, nil)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}

			// Every metric, counter and time-series bin must match
			// exactly — tolerances would hide pooling leaks.
			if !reflect.DeepEqual(gotPooled, gotFresh) {
				t.Errorf("pooled and fresh runs diverge")
				if gotPooled.Counts != gotFresh.Counts {
					t.Errorf("counts: pooled %+v, fresh %+v", gotPooled.Counts, gotFresh.Counts)
				}
				if gotPooled.EventsProcessed != gotFresh.EventsProcessed {
					t.Errorf("events: pooled %d, fresh %d", gotPooled.EventsProcessed, gotFresh.EventsProcessed)
				}
				if gotPooled.Accuracy != gotFresh.Accuracy {
					t.Errorf("accuracy: pooled %v, fresh %v", gotPooled.Accuracy, gotFresh.Accuracy)
				}
				if gotPooled.ATRCount != gotFresh.ATRCount {
					t.Errorf("ATRs: pooled %d, fresh %d", gotPooled.ATRCount, gotFresh.ATRCount)
				}
			}
		})
	}
}
