package experiment

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mafic/internal/checkpoint"
	"mafic/internal/loglog"
	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/traffic"
)

// snapshotMidRun runs s with one checkpoint at the given virtual time and
// returns the encoded snapshot plus the (complete) run's result.
func snapshotMidRun(t testing.TB, s Scenario, at sim.Time) ([]byte, Result) {
	t.Helper()
	var data []byte
	res, err := RunWithCheckpoints(s, []sim.Time{at}, func(_ sim.Time, d []byte) error {
		data = d
		return nil
	})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(data) == 0 {
		t.Fatal("checkpoint callback never fired")
	}
	return data, res
}

// diffResults reports the usual headline fields when two results diverge.
func diffResults(t *testing.T, label string, want, got Result) {
	t.Helper()
	t.Errorf("%s: results diverge", label)
	if want.Counts != got.Counts {
		t.Errorf("counts: want %+v, got %+v", want.Counts, got.Counts)
	}
	if want.EventsProcessed != got.EventsProcessed {
		t.Errorf("events: want %d, got %d", want.EventsProcessed, got.EventsProcessed)
	}
	if want.Accuracy != got.Accuracy {
		t.Errorf("accuracy: want %v, got %v", want.Accuracy, got.Accuracy)
	}
	if want.ATRCount != got.ATRCount {
		t.Errorf("ATRs: want %d, got %d", want.ATRCount, got.ATRCount)
	}
}

// TestKillAndResumeEquivalence is the crash-recovery guarantee, proven over
// the whole catalog (chaos scenarios included): every scenario is snapshotted
// mid-run, the snapshot is decoded into a freshly rebuilt world, and the
// resumed run must produce a Result bit-identical to the uninterrupted run.
// It also pins that taking a checkpoint is a pure read — the checkpointed
// run's own result must match the plain run exactly. Each entry's "replay"
// subtest resumes the same snapshot by replay (resumeByReplay), whose
// progress at the snapshot's time must be the file's, and requires the
// Result the restore gave.
func TestKillAndResumeEquivalence(t *testing.T) {
	t.Parallel()
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			want := plainResult(t, e.Name, s)
			data, chk := snapshotMidRun(t, s, s.Duration/2)
			if !reflect.DeepEqual(want, chk) {
				diffResults(t, "checkpointing perturbed the run", want, chk)
			}
			got, err := RunFromSnapshot(data)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				diffResults(t, "kill-and-resume", want, got)
			}
			t.Run("replay", func(t *testing.T) {
				replayed, err := replayedResult(data, ControlOptions{})
				if err != nil {
					t.Fatalf("resume by replay: %v", err)
				}
				if !reflect.DeepEqual(got, replayed) {
					diffResults(t, "replay against restore", got, replayed)
				}
			})
		})
	}
}

// TestCheckpointUnderActiveFaults snapshots the chaos scenarios inside their
// fault windows — while a flapped link is down (flap-core) and while the
// crashed chord hub is away (partition-heal) — and requires the resumed run
// to reproduce the uninterrupted one exactly: fault drops, activation
// timing, and the TopoVersion-driven route re-convergence all travel through
// the snapshot.
func TestCheckpointUnderActiveFaults(t *testing.T) {
	t.Parallel()
	// 850 ms is inside flap-core's first outage (800–950 ms) and inside
	// partition-heal's crash window (700–1400 ms).
	const midFault = 850 * sim.Millisecond
	for _, name := range []string{"flap-core", "partition-heal"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := LookupScenario(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			s := Quick(e.Build())
			want, err := Run(s)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			if want.Counts.FaultDrops == 0 {
				t.Fatalf("scenario %s produced no fault drops; the snapshot window misses the fault", name)
			}
			data, _ := snapshotMidRun(t, s, midFault)
			got, err := RunFromSnapshot(data)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				diffResults(t, "mid-fault kill-and-resume", want, got)
			}
			if got.Counts.FaultDrops != want.Counts.FaultDrops {
				t.Errorf("fault drops: want %d, got %d", want.Counts.FaultDrops, got.Counts.FaultDrops)
			}
			if got.Activated != want.Activated || got.ActivationSeconds != want.ActivationSeconds {
				t.Errorf("activation: want (%v, %v), got (%v, %v)",
					want.Activated, want.ActivationSeconds, got.Activated, got.ActivationSeconds)
			}
		})
	}
}

// TestRestoreThenReuseInvariance pins that a restore leaves the pooled engine
// objects healthy: after a RunFromSnapshot, running a different catalog
// scenario on the same pools must still be bit-identical to its reference
// run. A restore that leaked state into a pooled scheduler, arena or scratch
// table would surface here.
func TestRestoreThenReuseInvariance(t *testing.T) {
	t.Parallel()
	entries := Entries()
	if len(entries) < 2 {
		t.Skip("need at least two catalog scenarios")
	}
	// Two structurally different scenarios: the first catalog entry and the
	// partition-heal chaos run.
	a := Quick(entries[0].Build())
	ph, ok := LookupScenario("partition-heal")
	if !ok {
		t.Fatal("partition-heal not registered")
	}
	b := Quick(ph.Build())

	want, err := Run(b)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	data, _ := snapshotMidRun(t, a, a.Duration/2)
	if _, err := RunFromSnapshot(data); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := Run(b)
	if err != nil {
		t.Fatalf("post-restore run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		diffResults(t, "pooled objects after restore", want, got)
	}
}

// TestCheckpointRoundTripStability pins the wire format: encode → decode →
// encode must be byte-identical, so a snapshot file can be copied, inspected
// and re-saved without drift.
func TestCheckpointRoundTripStability(t *testing.T) {
	t.Parallel()
	e := Entries()[0]
	s := Quick(e.Build())
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	again := checkpoint.Encode(snap)
	if !bytes.Equal(data, again) {
		t.Fatalf("re-encoded snapshot differs: %d bytes vs %d", len(data), len(again))
	}
}

// TestCheckpointTimeValidation pins the harness-level input checks.
func TestCheckpointTimeValidation(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	noSave := func(sim.Time, []byte) error { return nil }
	if _, err := RunWithCheckpoints(s, []sim.Time{0}, noSave); !errors.Is(err, ErrScenario) {
		t.Errorf("t=0 accepted: %v", err)
	}
	if _, err := RunWithCheckpoints(s, []sim.Time{s.Duration}, noSave); !errors.Is(err, ErrScenario) {
		t.Errorf("t=Duration accepted: %v", err)
	}
	if _, err := RunWithCheckpoints(s, []sim.Time{s.Duration / 2, s.Duration / 4}, noSave); !errors.Is(err, ErrScenario) {
		t.Errorf("descending times accepted: %v", err)
	}
}

// TestSnapshotDecodeRejectsCorruption walks a real snapshot and verifies the
// decoder survives systematic damage — truncation at every section boundary
// region and bit flips across the header — returning clean errors.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	data, _ := snapshotMidRun(t, s, s.Duration/2)

	for cut := 0; cut < len(data); cut += 97 {
		if _, err := checkpoint.Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	for i := 0; i < len(data) && i < 64; i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		// A flipped byte may still decode (e.g. inside the scenario JSON);
		// the requirement is no panic and no unbounded allocation.
		_, _ = checkpoint.Decode(mut)
	}
}

// misorderLinkArrivals makes two packets in flight on one link arrive in the
// wrong order by exchanging their arrival times; it reports whether the
// snapshot held such a pair.
func misorderLinkArrivals(snap *checkpoint.Snapshot) bool {
	last := map[uint32]*checkpoint.EventState{}
	for i := range snap.Events {
		ev := &snap.Events[i]
		if ev.Kind != checkpoint.EvLinkArrive {
			continue
		}
		if prev := last[ev.Index]; prev != nil && prev.At != ev.At {
			prev.At, ev.At = ev.At, prev.At
			return true
		}
		last[ev.Index] = ev
	}
	return false
}

// miscountLinkQueue records one packet more on the first link's queue than
// the snapshot holds in flight for it.
func miscountLinkQueue(snap *checkpoint.Snapshot) bool {
	if len(snap.Links) == 0 {
		return false
	}
	snap.Links[0].Queued++
	return true
}

// editFirstArrival applies edit to the first packet the snapshot holds in
// flight.
func editFirstArrival(edit func(*netsim.PacketState)) func(*checkpoint.Snapshot) bool {
	return func(snap *checkpoint.Snapshot) bool {
		for i := range snap.Events {
			if snap.Events[i].Kind == checkpoint.EvLinkArrive {
				edit(&snap.Events[i].Packet)
				return true
			}
		}
		return false
	}
}

// editFirstTouchedSketch applies edit to the first sketch of the monitor
// something has been added to.
func editFirstTouchedSketch(edit func(*loglog.SketchState)) func(*checkpoint.Snapshot) bool {
	return func(snap *checkpoint.Snapshot) bool {
		for i := range snap.Monitor.Counters {
			c := &snap.Monitor.Counters[i]
			for _, st := range []*loglog.SketchState{&c.Source.Active, &c.Source.Shadow, &c.Dest.Active, &c.Dest.Shadow} {
				if st.Adds > 0 {
					edit(st)
					return true
				}
			}
		}
		return false
	}
}

// restoreRefusals are edits that leave a well-formed file a resume has to
// refuse, each with what the refusal says. TestRestoreChecksLinkOccupancy
// runs them; FuzzSnapshotDecode starts from them.
var restoreRefusals = []struct {
	name string
	mut  func(*checkpoint.Snapshot) bool
	want string
}{
	{"arrivals out of order", misorderLinkArrivals, "is not behind packet"},
	{"queued disagrees", miscountLinkQueue, "still being transmitted"},
	{"unknown packet kind", editFirstArrival(func(p *netsim.PacketState) { p.Kind = netsim.KindControl + 1 }), "kind 6,"},
	{"no packet kind", editFirstArrival(func(p *netsim.PacketState) { p.Kind = 0 }), "kind 0,"},
	{"unknown protocol", editFirstArrival(func(p *netsim.PacketState) { p.Proto = netsim.ProtoUDP + 1 }), "protocol 3,"},
	{"negative packet size", editFirstArrival(func(p *netsim.PacketState) { p.Size = -p.Size }), "size -"},
	{"a packet over the IP maximum", editFirstArrival(func(p *netsim.PacketState) { p.Size = netsim.MaxPacketSize + 1 }), "size 65536,"},
	{"negative hop count", editFirstArrival(func(p *netsim.PacketState) { p.Hops = -1 }), "hop count -1"},
	{"buckets set, zero adds", editFirstTouchedSketch(func(st *loglog.SketchState) { st.Adds = 0 }), "non-zero buckets and zero adds"},
	{"adds, no buckets", editFirstTouchedSketch(func(st *loglog.SketchState) { st.Buckets = nil }), "bucket count 0"},
	{"a rank no add records", editFirstTouchedSketch(func(st *loglog.SketchState) { st.Buckets[0] = 200 }), "holds rank 200"},
	{"gate event on an ungated flow", gateLastFlowSend, "schedules a phase on flow"},
	{"draws no run could have made", func(snap *checkpoint.Snapshot) bool {
		snap.Streams[0].Draws = 1 << 40
		return true
	}, "draws since the build"},
	{"a window no run reaches", nanFirstRunningWindow, "snapshot Cwnd NaN"},
	{"an event before the clock", func(snap *checkpoint.Snapshot) bool {
		for i := range snap.Events {
			if ev := &snap.Events[i]; ev.Kind == checkpoint.EvFlowSend {
				ev.At = snap.Now / 2
				return true
			}
		}
		return false
	}, "before the snapshot's Now"},
	// Build event 0 ran at the start; keeping it would dispatch it in the past.
	{"a build event the run consumed", func(snap *checkpoint.Snapshot) bool {
		if slices.ContainsFunc(snap.Events, func(ev checkpoint.EventState) bool { return ev.Seq == 0 }) {
			return false
		}
		snap.Events = append(snap.Events, checkpoint.EventState{Seq: 0, Kind: checkpoint.EvBuild})
		return true
	}, "build event 0 is kept at"},
	{"a build event the rebuild never scheduled", func(snap *checkpoint.Snapshot) bool {
		snap.Events = append(snap.Events, checkpoint.EventState{At: snap.Now + 1, Seq: snap.BuildSeq, Kind: checkpoint.EvBuild})
		return true
	}, "the rebuild has"},
	// A deleted option set to a value the engine no longer implements.
	{"withdrawal asked for", spliceScenarioKeys(map[string]any{"Pushback.DisableWithdraw": false}), "Pushback.DisableWithdraw"},
	{"an absolute detector", spliceScenarioKeys(map[string]any{"Pushback.AbsoluteThreshold": 500}), "Pushback.AbsoluteThreshold"},
	{"a relative detector", spliceScenarioKeys(map[string]any{"Pushback.RelativeFactor": 4}), "Pushback.RelativeFactor"},
	{"an ATR cap", spliceScenarioKeys(map[string]any{"Pushback.MaxATRs": 3}), "Pushback.MaxATRs"},
	{"a proportional probability other than P_d", spliceScenarioKeys(map[string]any{
		"Defense": int(DefenseBaseline), "BaselineDropProbability": 0.5}), "BaselineDropProbability"},
	{"a legitimate start offset", spliceScenarioKeys(map[string]any{"Workload.LegitStart": int64(100 * sim.Millisecond)}), "Workload.LegitStart"},
	// A flap the build would schedule 2^41 events for.
	{"a flap of 2^40 outages", spliceScenarioKeys(map[string]any{"Faults": map[string]any{"linkFlaps": []any{map[string]any{
		"routerA": 1, "routerB": 2, "start": int64(sim.Millisecond), "downFor": int64(sim.Millisecond),
		"period": int64(2 * sim.Millisecond), "count": int64(1 << 40)}}}}), "count 1099511627776 is above 1000"},
	// Links whose transmission times or arrival keys would wrap sim.Time.
	{"a 1e-300 b/s access link", spliceScenarioKeys(map[string]any{"Topology.AccessLink.BandwidthBps": 1e-300}), "access link drains"},
	{"a victim delay near the end of time", spliceScenarioKeys(map[string]any{"Topology.VictimLink.Delay": int64(math.MaxInt64 - 10)}), "victim link drains"},
}

// nanFirstRunningWindow sets the congestion window of the first running TCP
// flow to NaN: the source would pace its next send at a gap of NaN, which the
// scheduler clamps to zero, and re-fire at one instant forever.
func nanFirstRunningWindow(snap *checkpoint.Snapshot) bool {
	for i := range snap.Flows {
		if f := &snap.Flows[i]; f.Kind == traffic.FlowTCP && f.Running {
			f.Cwnd = math.NaN()
			return true
		}
	}
	return false
}

// gateLastFlowSend turns the pending send timer of the last flow — in table2
// a constant-rate attack flow, a paced sender without a gate — into the
// gate-opening event only a pulsing or rotating flow can have pending.
func gateLastFlowSend(snap *checkpoint.Snapshot) bool {
	last := uint32(len(snap.Flows) - 1)
	for i := range snap.Events {
		if ev := &snap.Events[i]; ev.Kind == checkpoint.EvFlowSend && ev.Index == last {
			ev.Kind = checkpoint.EvFlowPhase
			return true
		}
	}
	return false
}

// TestRestoreRefusesFlowKindMismatch pins the kind tag now that one Go type
// carries four flow kinds: a shrew snapshot whose embedded scenario is edited
// so that the rebuild produces constant-rate attack flows where the snapshot
// recorded pulsing ones is refused naming the first such flow, not resumed
// with burst state laid over senders that have no gate.
func TestRestoreRefusesFlowKindMismatch(t *testing.T) {
	t.Parallel()
	e, ok := LookupScenario("shrew")
	if !ok {
		t.Fatal("shrew not registered")
	}
	s := Quick(e.Build())
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	var firstAttack int
	edited := mutateSnapshot(t, data, func(snap *checkpoint.Snapshot) bool {
		var flat Scenario
		if json.Unmarshal(snap.Scenario, &flat) != nil || flat.Workload.AttackPulsePeriod == 0 {
			return false
		}
		flat.Workload.AttackPulsePeriod = 0
		for firstAttack < len(snap.Flows) && snap.Flows[firstAttack].Kind != traffic.FlowPulsing {
			firstAttack++
		}
		var err error
		snap.Scenario, err = json.Marshal(flat)
		return err == nil && firstAttack < len(snap.Flows)
	})
	_, err := RunFromSnapshot(edited)
	if want := fmt.Sprintf("flow %d: snapshot flow kind %d", firstAttack, traffic.FlowPulsing); !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), want) {
		t.Fatalf("resume returned %v, want an ErrSnapshot saying %q", err, want)
	}
}

// TestRestoreRefusesDefenderKindMismatch pins that the defender records are
// checked against the rebuilt run's defence, not believed: a MAFIC snapshot
// whose defender kind says "none" and whose defender list is gone would
// otherwise resume with every defender fresh and inactive, and a snapshot of
// an undefended run that carries a MAFIC defender list, empty as the rebuild's
// is, would resume as if it were one. Both are refused as unusable snapshots.
func TestRestoreRefusesDefenderKindMismatch(t *testing.T) {
	t.Parallel()
	e, ok := LookupScenario("carpet-bombing")
	if !ok {
		t.Fatal("carpet-bombing not registered")
	}
	undefended := table2Quick(t)
	undefended.Defense = DefenseNone
	for _, tc := range []struct {
		name string
		s    Scenario
		at   sim.Time
		mut  func(*checkpoint.Snapshot) bool
		want string
	}{
		{"MAFIC run recorded as undefended", Quick(e.Build()), 800 * sim.Millisecond, func(snap *checkpoint.Snapshot) bool {
			ok := snap.DefKind == checkpoint.DefMAFIC && len(snap.Defenders) > 0
			snap.DefKind, snap.Defenders = checkpoint.DefNone, nil
			return ok
		}, "defender kind"},
		{"undefended run with a defender list", undefended, undefended.Duration / 2, func(snap *checkpoint.Snapshot) bool {
			ok := snap.DefKind == checkpoint.DefNone
			snap.DefKind = checkpoint.DefMAFIC // the list the rebuild has: empty
			return ok
		}, "defender kind"},
	} {
		data, _ := snapshotMidRun(t, tc.s, tc.at)
		_, err := RunFromSnapshot(mutateSnapshot(t, data, tc.mut))
		if !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume returned %v, want an ErrSnapshot saying %q", tc.name, err, tc.want)
		}
	}
}

// spliceScenarioKeys returns a mutation that sets keys in the snapshot's
// scenario JSON, each named by its dotted path, whether or not a Scenario
// field declares it.
func spliceScenarioKeys(keys map[string]any) func(*checkpoint.Snapshot) bool {
	return func(snap *checkpoint.Snapshot) bool {
		dec := json.NewDecoder(bytes.NewReader(snap.Scenario))
		dec.UseNumber()
		var scenario map[string]any
		if dec.Decode(&scenario) != nil {
			return false
		}
		for path, v := range keys {
			obj, parts := scenario, strings.Split(path, ".")
			for _, p := range parts[:len(parts)-1] {
				next, ok := obj[p].(map[string]any)
				if !ok {
					return false
				}
				obj = next
			}
			obj[parts[len(parts)-1]] = v
		}
		var err error
		snap.Scenario, err = json.Marshal(scenario)
		return err == nil
	}
}

// spliceRetiredKeys adds to the snapshot's scenario JSON the keys of the
// fifteen options that have been deleted. The five oracle options stand at
// the value that selected their deleted implementation (the scheduler backend
// at one no implementation ever had); the ten detection, withdrawal,
// baseline, start and legitimate-UDP knobs at the values every catalog
// snapshot written while they existed has. Such files carry these keys.
var spliceRetiredKeys = spliceScenarioKeys(map[string]any{
	"Scheduler":                  map[string]any{"Backend": 7},
	"Topology.Routing":           1,
	"Topology.Adjacency":         1,
	"Monitor.MonitorAll":         true,
	"Monitor.FreshBuffers":       true,
	"Pushback.AbsoluteThreshold": 0,
	"Pushback.RelativeFactor":    0,
	"Pushback.MaxATRs":           0,
	"Pushback.WithdrawFactor":    0.5,
	"Pushback.WithdrawEpochs":    2,
	"Pushback.DisableWithdraw":   true,
	"BaselineDropProbability":    0,
	"Workload.LegitStart":        0,
	"Workload.UDPShare":          0,
	"Workload.UDPRate":           100,
})

// TestResumeIgnoresRetiredScenarioKeys pins how a snapshot from before the
// options were deleted resumes: the keys are unknown, unknown keys are
// ignored, and the run continues on the one engine there is — to the same
// result as the file without them. So does a file whose deleted knobs are set
// to values that ask for nothing the engine lacks: withdrawal tuning with
// withdrawal disabled, and a proportional probability under the MAFIC
// defence. With the oracle options in place an out-of-range scheduler backend
// in a snapshot indexed past the scheduler pools and panicked. A file that
// asks for legitimate UDP flows, which the engine no longer makes, is
// refused: json.Unmarshal alone would drop the share and resume a run with
// other traffic than it was written with.
func TestResumeIgnoresRetiredScenarioKeys(t *testing.T) {
	t.Parallel()
	s := table2Quick(t)
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	want, err := RunFromSnapshot(data)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	inert := spliceScenarioKeys(map[string]any{
		"Pushback.DisableWithdraw": true,
		"Pushback.WithdrawFactor":  0.9,
		"Pushback.WithdrawEpochs":  7,
		"BaselineDropProbability":  0.5,
	})
	for _, splice := range []func(*checkpoint.Snapshot) bool{spliceRetiredKeys, inert} {
		stale := mutateSnapshot(t, data, splice)
		if bytes.Equal(stale, data) {
			t.Fatal("the edit left the snapshot as it was")
		}
		got, err := ResumeControlled(stale, ControlOptions{})
		if err != nil {
			t.Fatalf("resume with retired keys: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			diffResults(t, "snapshot with retired scenario keys", want, got)
		}
	}
	udp := mutateSnapshot(t, data, spliceScenarioKeys(map[string]any{"Workload.UDPShare": 0.3}))
	if _, err := ResumeControlled(udp, ControlOptions{}); !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), "Workload.UDPShare") {
		t.Fatalf("resume with legitimate UDP flows asked for returned %v, want an ErrSnapshot naming Workload.UDPShare", err)
	}
}

// mutateSnapshot decodes data, applies mut and re-encodes, so the result is
// a well-formed file that differs from a real one only where mut changed it.
func mutateSnapshot(tb testing.TB, data []byte, mut func(*checkpoint.Snapshot) bool) []byte {
	tb.Helper()
	snap, err := checkpoint.Decode(data)
	if err != nil {
		tb.Fatalf("decode: %v", err)
	}
	if !mut(snap) {
		tb.Fatal("the snapshot holds nothing for the mutation to change")
	}
	return checkpoint.Encode(snap)
}

// TestRestoreChecksLinkOccupancy pins that a link's occupancy and in-flight
// chain are recomputed from the pending arrival events on restore and
// checked against what the snapshot recorded, not trusted: a file that
// decodes cleanly but is inconsistent there is refused, not run. So is one
// holding a packet no run could have sent (a kind or protocol outside the
// declared sets, a negative size or hop count), a sketch in a state no
// sketch reaches (buckets set with nothing added, or the reverse), a build
// event to keep that the run had already consumed or that the rebuild never
// scheduled, or a scenario that sets a deleted option to a value the engine
// no longer implements, which json.Unmarshal alone would drop without a word.
func TestRestoreChecksLinkOccupancy(t *testing.T) {
	t.Parallel()
	s := table2Quick(t)
	data, _ := snapshotMidRun(t, s, s.Duration/2)
	for _, tc := range restoreRefusals {
		_, err := RunFromSnapshot(mutateSnapshot(t, data, tc.mut))
		if !errors.Is(err, ErrSnapshot) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume returned %v, want an ErrSnapshot saying %q", tc.name, err, tc.want)
		}
	}
	if _, err := RunFromSnapshot(mutateSnapshot(t, data, func(*checkpoint.Snapshot) bool { return true })); err != nil {
		t.Errorf("unmutated round trip: %v", err)
	}
}

// TestRetainedSnapshotsStayValid pins the Save ownership contract: data is a
// fresh buffer per call and the callee owns it. The sink keeps every snapshot
// of a checkpointed run without copying, and only after the run has finished
// checks that each still holds the bytes it was handed, decodes to the time it
// was saved at and re-encodes byte-identically, and that the first and the
// last both resume to the reference result. Reusing the output buffer across
// snapshots would corrupt the kept ones and fail here.
func TestRetainedSnapshotsStayValid(t *testing.T) {
	t.Parallel()
	s := Quick(Entries()[0].Build())
	want, err := Run(s)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	type kept struct {
		at   sim.Time
		data []byte
		sum  [sha256.Size]byte
	}
	var all []kept
	got, err := RunControlled(s, ControlOptions{
		CheckpointEvery: s.Duration / 16,
		Save: func(at sim.Time, data []byte) error {
			all = append(all, kept{at: at, data: data, sum: sha256.Sum256(data)})
			return nil
		},
	})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		diffResults(t, "checkpointed vs plain", want, got)
	}
	if len(all) != 15 {
		t.Fatalf("kept %d snapshots, want 15", len(all))
	}
	for i, k := range all {
		if sha256.Sum256(k.data) != k.sum {
			t.Fatalf("snapshot %d (t=%v) changed after it was handed to Save", i, k.at)
		}
		snap, err := checkpoint.Decode(k.data)
		if err != nil {
			t.Fatalf("snapshot %d (t=%v): decode: %v", i, k.at, err)
		}
		if snap.Now != k.at {
			t.Errorf("snapshot %d saved at %v decodes to t=%v", i, k.at, snap.Now)
		}
		if !bytes.Equal(checkpoint.Encode(snap), k.data) {
			t.Errorf("snapshot %d (t=%v) does not re-encode byte-identically", i, k.at)
		}
	}
	for _, k := range []kept{all[0], all[len(all)-1]} {
		resumed, err := RunFromSnapshot(k.data)
		if err != nil {
			t.Fatalf("resume from t=%v: %v", k.at, err)
		}
		if !reflect.DeepEqual(want, resumed) {
			diffResults(t, "resume from a kept snapshot", want, resumed)
		}
	}
}

// TestSessionMatchesFreshCapture is the guard against stale scratch: a run's
// capture session refills one Snapshot in place, so anything a capture fails
// to overwrite would leak from snapshot k into snapshot k+1. For every
// catalog entry, every snapshot of one run taken through the reused session
// must equal, byte for byte, the encoding of a capture through a fresh session
// on the same paused run: seven per run, or one every half report delay where the
// control plane delays reports, so that delayed-report payloads come and go
// between snapshots. Two hardened runs follow, for the probing memory only
// hardening turns on: rolling-pulse, and one whose flow tables are emptied by
// hand — every defender's tables flushed mid-run, which no catalog run does on
// its own — to kill the open probe cycles under a warm session. The test
// requires that it did see each of those counts go down.
func TestSessionMatchesFreshCapture(t *testing.T) {
	t.Parallel()
	var sawMemory bool
	var eventsShrank, probesShrank, tablesShrank, lateShrank bool
	check := func(name string, s Scenario, flushAt sim.Time) {
		b, err := buildRun(s, newRunResources())
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		defer b.release()
		sched := b.res.sched
		every := s.Duration / 8
		if s.Faults.ReportDelayProb > 0 {
			every = s.Faults.ReportDelay / 2
		}
		var prevEvents, prevProbes, prevEntries, prevLate int
		for at := every; at < s.Duration; at += every {
			if err := sched.RunUntil(at); err != nil {
				t.Fatalf("%s: run to %v: %v", name, at, err)
			}
			if at == flushAt {
				for _, d := range b.res.mafic {
					d.Tables().Flush()
				}
			}
			got, err := b.snapshot()
			if err != nil {
				t.Fatalf("%s: session snapshot at %v: %v", name, at, err)
			}
			warm := b.res.session
			b.res.session, b.linked, b.registered = nil, false, false
			fresh, err := b.capture()
			b.res.session = warm
			if err != nil {
				t.Fatalf("%s: fresh capture at %v: %v", name, at, err)
			}
			if want := checkpoint.Encode(fresh); !bytes.Equal(got, want) {
				t.Errorf("%s: the snapshot at %v through the reused session differs from a fresh capture (%d vs %d bytes)",
					name, at, len(got), len(want))
			}

			entries, late := 0, 0
			for i := range fresh.Defenders {
				entries += len(fresh.Defenders[i].Tables.Entries)
				sawMemory = sawMemory || len(fresh.Defenders[i].ProbeMemory) > 0
			}
			for i := range fresh.Events {
				if fresh.Events[i].Kind == checkpoint.EvMonitorLate {
					late++
				}
			}
			eventsShrank = eventsShrank || len(fresh.Events) < prevEvents
			probesShrank = probesShrank || len(fresh.ProbeRecs) < prevProbes
			tablesShrank = tablesShrank || entries < prevEntries
			lateShrank = lateShrank || late < prevLate
			prevEvents, prevProbes, prevEntries, prevLate = len(fresh.Events), len(fresh.ProbeRecs), entries, late
		}
		if err := sched.RunUntil(s.Duration); err != nil {
			t.Fatalf("%s: run to the end: %v", name, err)
		}
		if _, err := b.finish(); err != nil {
			t.Fatalf("%s: finish: %v", name, err)
		}
	}
	for _, e := range Entries() {
		check(e.Name, Quick(e.Build()), 0)
	}
	rolling, ok := LookupScenario("rolling-pulse")
	if !ok {
		t.Fatal("rolling-pulse not registered")
	}
	check("rolling-pulse hardened", Harden(Quick(rolling.Build())), 0)
	s := Harden(Quick(Entries()[0].Build()))
	check(s.Name+" hardened, flushed", s, s.Duration*5/8)

	for what, saw := range map[string]bool{
		"a non-empty probing memory":           sawMemory,
		"the pending-event count shrinking":    eventsShrank,
		"the probe-record count shrinking":     probesShrank,
		"the flow-table entry count shrinking": tablesShrank,
		"the delayed-report count shrinking":   lateShrank,
	} {
		if !saw {
			t.Errorf("no run showed %s between snapshots; the guard is not exercising that reuse path", what)
		}
	}
}

// TestRestoreThenCaptureIsIdentity pins restore fidelity for the state no
// final Result reads, which TestKillAndResumeEquivalence cannot see: for every
// catalog entry, a mid-run snapshot restored onto a rebuilt run and captured
// again at once, before any event runs, must give back the snapshot. Only the
// order of the pending events and the probe records' numbering, both of which
// follow the scheduler's arena, are taken out of the comparison.
func TestRestoreThenCaptureIsIdentity(t *testing.T) {
	t.Parallel()
	for _, e := range Entries() {
		s := Quick(e.Build())
		b, err := buildRun(s, newRunResources())
		if err != nil {
			t.Fatalf("%s: build: %v", e.Name, err)
		}
		if err := b.res.sched.RunUntil(s.Duration / 2); err != nil {
			t.Fatalf("%s: run: %v", e.Name, err)
		}
		data, err := b.snapshot()
		b.release()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", e.Name, err)
		}
		want, err := checkpoint.Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", e.Name, err)
		}
		in, _ := checkpoint.Decode(data) // restore sorts its events in place

		b, err = buildRun(s, newRunResources())
		if err != nil {
			t.Fatalf("%s: rebuild: %v", e.Name, err)
		}
		if err := b.restore(in); err != nil {
			t.Fatalf("%s: restore: %v", e.Name, err)
		}
		got, err := b.capture()
		if err != nil {
			t.Fatalf("%s: capture after restore: %v", e.Name, err)
		}
		inSeqOrder(want)
		inSeqOrder(got)
		if !reflect.DeepEqual(want, got) {
			var differ []string
			wv, gv := reflect.ValueOf(*want), reflect.ValueOf(*got)
			for i := 0; i < wv.NumField(); i++ {
				if f := wv.Type().Field(i); f.IsExported() && !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
					differ = append(differ, f.Name)
				}
			}
			t.Errorf("%s: the snapshot captured right after its restore differs from it (fields %v)", e.Name, differ)
		}
		b.release()
	}
}

// inSeqOrder sorts a snapshot's pending events by sequence number and
// renumbers its probe records in the order those events first name them.
func inSeqOrder(snap *checkpoint.Snapshot) {
	slices.SortFunc(snap.Events, func(a, b checkpoint.EventState) int { return cmp.Compare(a.Seq, b.Seq) })
	recs := snap.ProbeRecs
	snap.ProbeRecs = nil
	renumbered := make(map[uint32]uint32)
	for i := range snap.Events {
		ev := &snap.Events[i]
		if ev.Kind != checkpoint.EvProbeSend && ev.Kind != checkpoint.EvWindowEnd {
			continue
		}
		idx, ok := renumbered[ev.Probe]
		if !ok {
			idx = uint32(len(snap.ProbeRecs))
			renumbered[ev.Probe] = idx
			snap.ProbeRecs = append(snap.ProbeRecs, recs[ev.Probe])
		}
		ev.Probe = idx
	}
}

// TestRestoreAcceptsAnyEventOrder pins where the ordering of pending events
// lives: a capture lists them as the scheduler's arena holds them and Restore
// sorts them, so the order in the file is free. A mid-run snapshot with its
// events reversed, and shuffled, resumes to the result of the file as written.
func TestRestoreAcceptsAnyEventOrder(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"flap-core", "table2"} {
		e, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		s := Quick(e.Build())
		data, want := snapshotMidRun(t, s, s.Duration/2)
		orders := map[string]func(evs []checkpoint.EventState){
			"reversed": slices.Reverse[[]checkpoint.EventState],
			"shuffled": func(evs []checkpoint.EventState) {
				rand.New(rand.NewSource(19)).Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			},
		}
		for order, permute := range orders {
			edited := mutateSnapshot(t, data, func(snap *checkpoint.Snapshot) bool {
				permute(snap.Events)
				return len(snap.Events) > 1
			})
			if bytes.Equal(edited, data) {
				t.Fatalf("%s, %s: the edit left the snapshot as it was", name, order)
			}
			got, err := RunFromSnapshot(edited)
			if err != nil {
				t.Fatalf("%s, %s: resume: %v", name, order, err)
			}
			if !reflect.DeepEqual(want, got) {
				diffResults(t, name+" with events "+order, want, got)
			}
		}
	}
}

// holdsSlice reports whether a value of type t has a slice anywhere inside,
// remembering the answer per type.
func holdsSlice(t reflect.Type) (holds bool) {
	if holds, ok := sliceHolders.Load(t); ok {
		return holds.(bool)
	}
	defer func() { sliceHolders.Store(t, holds) }()
	switch t.Kind() {
	case reflect.Slice:
		return true
	case reflect.Array, reflect.Pointer:
		return holdsSlice(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsSlice(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

var sliceHolders sync.Map // reflect.Type → bool, shared by parallel tests

// sameState reports whether two values are equal in everything a snapshot
// file carries: a nil slice and an empty one are the same list, a pointer (a
// late event's report) is compared by what it points at, and the unexported fields of a struct that holds slices
// (Snapshot's encode scratch) are not state. Everything without a slice
// inside is compared with ==, or failing that by its bits, so that a NaN a
// file carries equals itself.
func sameState(a, b reflect.Value) bool {
	switch {
	case !holdsSlice(a.Type()):
		return a.Interface() == b.Interface() || sameBits(a, b)
	case a.Kind() == reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameState(a.Elem(), b.Elem())
	case a.Kind() == reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !sameState(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case a.Type().Elem().Kind() == reflect.Uint8:
		return bytes.Equal(a.Bytes(), b.Bytes())
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !sameState(a.Index(i), b.Index(i)) {
			return false
		}
	}
	return true
}

// sameBits is == with floats compared by their bits.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// TestDecodeInvertsEncode pins that the wire format loses nothing: for every
// catalog entry, each Snapshot a run's session captures — the same pauses as
// TestSessionMatchesFreshCapture — comes back from Decode(Encode(snap)) equal
// to the captured one field for field, elided sketches and unordered events
// included.
func TestDecodeInvertsEncode(t *testing.T) {
	t.Parallel()
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			s := Quick(e.Build())
			b, err := buildRun(s, newRunResources())
			if err != nil {
				t.Fatalf("%s: build: %v", e.Name, err)
			}
			sched := b.res.sched
			every := s.Duration / 8
			if s.Faults.ReportDelayProb > 0 {
				every = s.Faults.ReportDelay / 2
			}
			for at := every; at < s.Duration; at += every {
				if err := sched.RunUntil(at); err != nil {
					t.Fatalf("%s: run to %v: %v", e.Name, at, err)
				}
				data, err := b.snapshot()
				if err != nil {
					t.Fatalf("%s: snapshot at %v: %v", e.Name, at, err)
				}
				snap, err := b.capture() // the same paused run, so the same Snapshot
				if err != nil {
					t.Fatalf("%s: capture at %v: %v", e.Name, at, err)
				}
				decoded, err := checkpoint.Decode(data)
				if err != nil {
					t.Fatalf("%s: decode at %v: %v", e.Name, at, err)
				}
				if !sameState(reflect.ValueOf(*snap), reflect.ValueOf(*decoded)) {
					t.Errorf("%s: the snapshot at %v does not survive Encode and Decode", e.Name, at)
				}
			}
			if err := sched.RunUntil(s.Duration); err != nil {
				t.Fatalf("%s: run to the end: %v", e.Name, err)
			}
			if _, err := b.finish(); err != nil {
				t.Fatalf("%s: finish: %v", e.Name, err)
			}
			b.release()
		})
	}
}
