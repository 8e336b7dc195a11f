package pushback

import (
	"math"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/trafficmatrix"
)

// TestGapDecayMatchesQuietEpochs pins the dark-epoch semantics: a coordinator
// that misses k reports must end up with the same hysteresis scores as one
// that received k explicit quiet epochs — the scores decay through the
// outage, they do not freeze at their pre-outage values.
func TestGapDecayMatchesQuietEpochs(t *testing.T) {
	cfg := Config{
		HistoryFactor: 2, MinVictimLoad: 1, ATRShare: 0.1,
		ATRRise: 0.5, ATRDecay: 0.85,
	}
	load := map[netsim.NodeID]float64{1: 100}
	cells := []trafficmatrix.Cell{{Source: 2, Dest: 1, Packets: 50}}
	quiet := func(epoch int) trafficmatrix.EpochReport {
		return report(epoch, load, nil)
	}

	steady := NewCoordinator(cfg, nil, nil)
	epoch := spike(steady, load, cells)
	for e := epoch + 1; e <= epoch+4; e++ {
		steady.HandleReport(quiet(e))
	}

	gapped := NewCoordinator(cfg, nil, nil)
	spike(gapped, load, cells)
	gapped.HandleReport(quiet(epoch + 4)) // the three epochs before it lost

	if !steady.Active() || !gapped.Active() {
		t.Fatalf("setup: both coordinators must be active (steady=%v gapped=%v)", steady.Active(), gapped.Active())
	}
	s, g := steady.st.ATRScore[2], gapped.st.ATRScore[2]
	if s <= 0 || g <= 0 {
		t.Fatalf("scores vanished (steady=%v gapped=%v)", s, g)
	}
	if math.Abs(s-g) > 1e-12 {
		t.Fatalf("gap decay diverges from quiet epochs: steady=%v gapped=%v", s, g)
	}
	// Identification stays sticky through the outage: decayed, not dropped.
	if gapped.IdentifiedATRs() != 1 {
		t.Fatalf("identified set = %d after outage, want 1 (sticky)", gapped.IdentifiedATRs())
	}
}

// TestStaleGapResetsBaselines verifies the staleness timeout: after an outage
// of at least StaleEpochs missing reports, the learned |D_j| baselines are
// discarded, so the first post-outage report cannot be judged against a world
// that no longer exists.
func TestStaleGapResetsBaselines(t *testing.T) {
	base := Config{HistoryFactor: 1.5, MinHistoryEpochs: 2, MinVictimLoad: 1, ATRShare: 0}
	calm := func(epoch int) trafficmatrix.EpochReport {
		return report(epoch, map[netsim.NodeID]float64{1: 100}, nil)
	}
	hot := func(epoch int) trafficmatrix.EpochReport {
		return report(epoch, map[netsim.NodeID]float64{1: 600},
			[]trafficmatrix.Cell{{Source: 2, Dest: 1, Packets: 500}})
	}

	// Control: baselines survive the gap, so the post-outage spike fires
	// against the pre-outage baseline.
	control := NewCoordinator(base, nil, nil)
	for e := 1; e <= 3; e++ {
		control.HandleReport(calm(e))
	}
	control.HandleReport(hot(10))
	if !control.Active() {
		t.Fatal("control (no staleness timeout) should fire on the post-outage spike")
	}

	// With the timeout, the same sequence relearns instead of firing.
	stale := base
	stale.StaleEpochs = 3
	c := NewCoordinator(stale, nil, nil)
	for e := 1; e <= 3; e++ {
		c.HandleReport(calm(e))
	}
	c.HandleReport(hot(10)) // gap of 6 epochs >= StaleEpochs
	if c.Active() {
		t.Fatal("stale baselines were not reset: detector fired on relearning data")
	}
	// After the minimum history re-accumulates at the new level, a steady
	// load is normal again — no spurious firing.
	c.HandleReport(hot(11))
	c.HandleReport(hot(12))
	c.HandleReport(hot(13))
	if c.Active() {
		t.Fatal("detector fired on a steady post-outage load after relearning")
	}
}

// TestRefireBackoffDefersGrownSet verifies hysteresis re-fires respect the
// backoff: a newly identified router is still (eventually) reported, but the
// re-issued request waits out RefireBackoffEpochs instead of firing the
// moment the set grows.
func TestRefireBackoffDefersGrownSet(t *testing.T) {
	mk := func(backoff int) (*Coordinator, *[]Request) {
		var fired []Request
		c := NewCoordinator(Config{
			HistoryFactor: 2, MinVictimLoad: 1, ATRShare: 0.3,
			ATRRise: 1, ATRDecay: 0.85,
			RefireBackoffEpochs: backoff,
		}, func(r Request) { fired = append(fired, r) }, nil)
		return c, &fired
	}
	one := []trafficmatrix.Cell{{Source: 2, Dest: 1, Packets: 50}}
	two := []trafficmatrix.Cell{
		{Source: 2, Dest: 1, Packets: 50},
		{Source: 3, Dest: 1, Packets: 40},
	}
	load := map[netsim.NodeID]float64{1: 100}

	// Without backoff the grown set re-fires in the epoch after detection.
	eager, eagerFired := mk(0)
	e := spike(eager, load, one)
	eager.HandleReport(report(e+1, load, two))
	if len(*eagerFired) != 2 {
		t.Fatalf("no-backoff control fired %d requests, want 2", len(*eagerFired))
	}

	c, fired := mk(3)
	e = spike(c, load, one)                // initial detection fires at e
	c.HandleReport(report(e+1, load, two)) // source 3 crosses: grown, deferred
	c.HandleReport(report(e+2, load, two)) // still inside the backoff window
	if len(*fired) != 1 {
		t.Fatalf("backoff coordinator fired %d requests before the window elapsed, want 1", len(*fired))
	}
	c.HandleReport(report(e+3, load, two)) // three epochs after the last fire: re-fire
	if len(*fired) != 2 {
		t.Fatalf("backoff coordinator fired %d requests after the window, want 2", len(*fired))
	}
	refire := (*fired)[1]
	found := false
	for _, a := range refire.ATRs {
		if a.Router == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("deferred re-fire lost the newly identified router: %+v", refire.ATRs)
	}
}

// TestLateReportIgnored verifies a report overtaken on a delayed control
// channel (epoch at or before one already processed) is dropped instead of
// rolling the detector's view backwards.
func TestLateReportIgnored(t *testing.T) {
	fired := 0
	c := NewCoordinator(Config{HistoryFactor: 2, MinVictimLoad: 1},
		func(Request) { fired++ }, nil)

	hot := map[netsim.NodeID]float64{1: 500}
	cells := []trafficmatrix.Cell{{Source: 2, Dest: 1, Packets: 400}}
	for epoch := 1; epoch <= 3; epoch++ {
		c.HandleReport(report(epoch, map[netsim.NodeID]float64{1: 5}, nil))
	}
	// A delayed epoch-2 report arrives after epoch 3 was processed; its
	// load would trigger detection if acted upon.
	c.HandleReport(report(2, hot, cells))
	if fired != 0 || c.Active() {
		t.Fatalf("late report was acted upon (fired=%d active=%v)", fired, c.Active())
	}
	// Fresh epochs keep working.
	c.HandleReport(report(4, hot, cells))
	if fired != 1 || !c.Active() {
		t.Fatalf("current report after a late one did not fire (fired=%d active=%v)", fired, c.Active())
	}
}

// TestCoordinatorReuseClearsLossyState verifies the reuse hygiene of the
// control-channel fields: a reset coordinator starts with no last epoch, no
// pending re-fire and no fire history.
func TestCoordinatorReuseClearsLossyState(t *testing.T) {
	c := NewCoordinator(Config{
		HistoryFactor: 2, MinVictimLoad: 1, ATRShare: 0.3,
		ATRRise: 1, RefireBackoffEpochs: 5, StaleEpochs: 2,
	}, nil, nil)
	c.HandleReport(report(5, map[netsim.NodeID]float64{1: 10}, nil))
	c.HandleReport(report(6, map[netsim.NodeID]float64{1: 10}, nil))
	c.HandleReport(report(7, map[netsim.NodeID]float64{1: 100},
		[]trafficmatrix.Cell{{Source: 2, Dest: 1, Packets: 50}}))
	c.HandleReport(report(8, map[netsim.NodeID]float64{1: 100}, []trafficmatrix.Cell{
		{Source: 2, Dest: 1, Packets: 50},
		{Source: 3, Dest: 1, Packets: 40},
	}))
	if c.st.LastEpoch != 8 || c.st.LastFireEpoch != 7 || !c.st.PendingRefire {
		t.Fatalf("setup: unexpected channel state (last=%d fire=%d pending=%v)",
			c.st.LastEpoch, c.st.LastFireEpoch, c.st.PendingRefire)
	}

	c.Reset(Config{HistoryFactor: 2, MinVictimLoad: 1}, nil)
	if c.st.LastEpoch != 0 || c.st.LastFireEpoch != 0 || c.st.PendingRefire {
		t.Fatalf("reset coordinator kept channel state (last=%d fire=%d pending=%v)",
			c.st.LastEpoch, c.st.LastFireEpoch, c.st.PendingRefire)
	}
	// In particular, early-epoch reports must not be mistaken for late
	// duplicates of the previous run's stream.
	spike(c, map[netsim.NodeID]float64{1: 500}, nil)
	if !c.Active() {
		t.Fatal("reset coordinator ignored epochs 1-3 as stale")
	}
}
