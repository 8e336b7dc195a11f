package experiment

import (
	"testing"

	"mafic/internal/core"
	"mafic/internal/trafficmatrix"
)

// runInspected runs s to its end on a bundle of its own, hands the run to
// inspect before it is finished and released, and returns the result: what
// inspect reads, such as the monitor's work counts or the droppers' counters,
// is in no Result.
func runInspected(t *testing.T, s Scenario, inspect func(b *builtRun)) Result {
	t.Helper()
	b, err := buildRun(s, newRunResources())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer b.release()
	if err := b.res.sched.RunUntil(s.Duration); err != nil {
		t.Fatalf("run: %v", err)
	}
	inspect(b)
	res, err := b.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res
}

// runCounted returns the result together with the monitor's work counts.
func runCounted(t *testing.T, s Scenario) (Result, trafficmatrix.MonitorStats) {
	t.Helper()
	var stats trafficmatrix.MonitorStats
	res := runInspected(t, s, func(b *builtRun) { stats = b.monitor.Stats() })
	return res, stats
}

// fullTable2 is the catalog's table2 at full size, the paper's Table II run.
func fullTable2(t *testing.T) Scenario {
	t.Helper()
	e, ok := LookupScenario("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	return e.Build()
}

// TestMonitorWorkCounts pins how much of the traffic matrix a run estimates:
// the counts depend on the run alone, so they repeat exactly. The paper
// configuration reads the matrix once, the victim's column in the epoch that
// detects it — 11 unions, where computing every cell every epoch took 3 619.
// The hardened one reads that column again in every epoch pushback stays
// active, for the ATR hysteresis.
func TestMonitorWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Scenario
		want trafficmatrix.MonitorStats
	}{
		{"table2", fullTable2(t), trafficmatrix.MonitorStats{Epochs: 30, Estimates: 1260, Columns: 1, Unions: 11}},
		{"table2 hardened", Harden(fullTable2(t)), trafficmatrix.MonitorStats{Epochs: 30, Estimates: 1260, Columns: 24, Unions: 264}},
	} {
		if _, got := runCounted(t, tc.s); got != tc.want {
			t.Errorf("%s: monitor did %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestNoAttackCondemnsNoLegitimateFlow is the first metamorphic case: table2
// with every flow a legitimate TCP flow must condemn no legitimate flow,
// whatever the detector does. TCPShare = 1 alone does not get there —
// WorkloadSpec.Counts keeps one attack flow in every workload — so the case
// comes in two steps, each pinned as it runs (PAPER.md records both). With
// that one 5 000 pkt/s flow among 49 TCP flows pushback still fires, on
// |D_j|, at the end of the flow's first epoch: it reads one column, names all ten
// ingress routers, and MAFIC probes all 50 flows and condemns exactly the one.
// With the flow never starting, the legitimate ramp toward the single server
// stays under the detector: no request, no column read, nothing probed.
func TestNoAttackCondemnsNoLegitimateFlow(t *testing.T) {
	type outcome struct {
		attacked, activated                   bool
		atrs, probed, condemned, legitCondemn int
		columns, unions                       uint64
	}
	s := fullTable2(t)
	s.Workload.TCPShare = 1
	never := s
	never.Workload.AttackStart = s.Duration + 1
	for _, tc := range []struct {
		name string
		s    Scenario
		want outcome
	}{
		{"one attack flow left", s, outcome{attacked: true, activated: true, atrs: 10, probed: 50, condemned: 1, columns: 1, unions: 11}},
		{"attack never starts", never, outcome{}},
	} {
		res, stats := runCounted(t, tc.s)
		got := outcome{res.Counts.ATRAttackPre+res.Counts.ATRAttackPost > 0, res.Activated, res.ATRCount, res.FlowsProbed, int(res.DefenseStats.FlowsCondemned), res.LegitFlowsCondemned, stats.Columns, stats.Unions}
		if got != tc.want {
			t.Errorf("%s: run ended %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestZeroDropProbabilityProbesNothing is the second metamorphic case: quick
// table2 with P_d = 0. A flow enters the SFT on a lost coin flip, so no flow
// does: nothing is probed, no probe is sent and probing drops nothing.
// Detection does not read P_d — pushback fires and names its ATRs as ever —
// and table2 has no illegal sources, so the activated defence is inert: it
// examines every victim-bound packet entering at an ATR and forwards it, and
// everything that arrives after activation reaches the victim. It is still
// not the run without a defence, which PAPER.md "Findings" records: the attack
// is the same packet for packet, the legitimate flows start at other times.
func TestZeroDropProbabilityProbesNothing(t *testing.T) {
	s := table2Quick(t)
	s.MAFIC.DropProbability = 0
	res, _ := runCounted(t, s)
	n := res.Counts
	if !res.Activated || !res.DetectedByPushback || res.ATRCount == 0 {
		t.Fatalf("pushback did not fire: activated %v, by pushback %v, %d ATRs", res.Activated, res.DetectedByPushback, res.ATRCount)
	}
	if res.FlowsProbed != 0 || res.DefenseStats.ProbesSent != 0 || res.DefenseStats.DroppedProbing != 0 || n.DropLegitProbing != 0 {
		t.Errorf("probing happened: %d flows probed, %d probes sent, %d packets dropped probing (%d legitimate)",
			res.FlowsProbed, res.DefenseStats.ProbesSent, res.DefenseStats.DroppedProbing, n.DropLegitProbing)
	}
	examined := n.ATRLegitPost + n.ATRAttackPost
	if want := (core.Stats{Examined: examined, Forwarded: examined}); examined == 0 || res.DefenseStats != want {
		t.Errorf("the defenders did %+v, want %+v", res.DefenseStats, want)
	}
	if n.DropLegitPDT+n.DropLegitIllegal+n.DropAttack+n.QueueDrops != 0 || n.VictimLegit != n.ATRLegitPost || n.VictimAttack != n.ATRAttackPost {
		t.Errorf("not every packet arriving after activation reached the victim: %+v", n)
	}
	none := table2Quick(t)
	none.Defense = DefenseNone
	if ref, _ := runCounted(t, none); ref.Counts.ATRAttackPre != n.ATRAttackPre || ref.Counts.ATRAttackPost != n.ATRAttackPost {
		t.Errorf("the attack differs from the undefended run's: %+v, undefended %+v", n, ref.Counts)
	}
}
