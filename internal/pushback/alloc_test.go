package pushback

import (
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/trafficmatrix"
)

// TestHandleReportSteadyStateZeroAlloc pins the detector's per-epoch cost at
// zero allocations once its dense history tables have grown: epoch reports
// stream through detection and baseline maintenance without heap traffic as
// long as no pushback request fires.
func TestHandleReportSteadyStateZeroAlloc(t *testing.T) {
	c := NewCoordinator(Config{HistoryFactor: 1e12, MinVictimLoad: 1e12}, nil, nil)

	routers := []netsim.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	dest := []float64{40, 35, 60, 20, 15, 80, 5, 50}
	src := []float64{30, 30, 30, 30, 30, 30, 30, 30}
	r := trafficmatrix.EpochReport{
		Routers:   routers,
		DestEst:   dest,
		SourceEst: src,
		Matrix: []trafficmatrix.Cell{
			{Source: 0, Dest: 5, Packets: 25},
			{Source: 1, Dest: 5, Packets: 30},
		},
	}

	// First report grows the history tables.
	r.Epoch = 1
	c.HandleReport(r)

	epoch := 1
	allocs := testing.AllocsPerRun(50, func() {
		epoch++
		r.Epoch = epoch
		c.HandleReport(r)
	})
	if allocs != 0 {
		t.Fatalf("HandleReport allocates %v per epoch in steady state, want 0", allocs)
	}
	if c.Active() {
		t.Fatal("thresholds were set impossible; nothing should trigger")
	}
}

// TestHysteresisSteadyStateZeroAlloc extends the per-epoch pin to hardened
// configurations: with ATR hysteresis enabled and pushback active, an epoch
// that identifies nothing new — the common case — folds shares into the
// score tables without heap traffic. Only set growth and request re-issue
// may allocate, and both are rare.
func TestHysteresisSteadyStateZeroAlloc(t *testing.T) {
	cfg := Config{
		HistoryFactor: 2, ATRShare: 0.1,
		ATRRise: 0.5, ATRDecay: 0.85,
	}
	c := NewCoordinator(cfg, nil, nil)

	r := trafficmatrix.EpochReport{
		Routers: []netsim.NodeID{0, 1, 2, 3},
		DestEst: []float64{10, 20, 30, 1000},
		Matrix: []trafficmatrix.Cell{
			{Source: 0, Dest: 3, Packets: 500},
			{Source: 1, Dest: 3, Packets: 400},
		},
	}

	// The spike triggers pushback and grows the score tables; one more
	// report warms the steady hysteresis path.
	epoch := spike(c, map[netsim.NodeID]float64{0: 10, 1: 20, 2: 30, 3: 1000}, r.Matrix) + 1
	r.Epoch = epoch
	c.HandleReport(r)
	if !c.Active() || c.IdentifiedATRs() == 0 {
		t.Fatalf("setup: active=%v identified=%d", c.Active(), c.IdentifiedATRs())
	}

	allocs := testing.AllocsPerRun(50, func() {
		epoch++
		r.Epoch = epoch
		c.HandleReport(r)
	})
	if allocs != 0 {
		t.Fatalf("steady hysteresis epoch allocates %v, want 0", allocs)
	}

	// Reuse hygiene: a reset coordinator must not inherit the old run's
	// identified set or scores.
	c.Reset(cfg, nil)
	if c.Active() || c.IdentifiedATRs() != 0 {
		t.Fatalf("reset coordinator leaked hysteresis state (active=%v identified=%d)",
			c.Active(), c.IdentifiedATRs())
	}
}

// TestCoordinatorReuseZeroAlloc pins the construction-time win of reuse: once
// a coordinator has run, a Reset/report cycle with the same eligibility set
// allocates nothing — the history tables, ranking scratch and eligibility
// map are all kept.
func TestCoordinatorReuseZeroAlloc(t *testing.T) {
	eligible := []netsim.NodeID{1, 3, 5, 7}
	cfg := Config{HistoryFactor: 1.5, Eligible: eligible}
	report := trafficmatrix.EpochReport{
		Epoch:     1,
		Routers:   []netsim.NodeID{0, 1, 2, 3},
		DestEst:   []float64{10, 20, 30, 40},
		SourceEst: []float64{5, 5, 5, 5},
	}

	// Grow the kept tables once.
	c := NewCoordinator(cfg, nil, nil)
	c.HandleReport(report)

	allocs := testing.AllocsPerRun(50, func() {
		c.Reset(cfg, nil)
		c.HandleReport(report)
	})
	if allocs != 0 {
		t.Fatalf("Reset/report cycle allocates %v, want 0", allocs)
	}
}

// TestCoordinatorReuseLeaksNoState verifies a reset coordinator starts from
// scratch: no history, no active pushback, no stale eligibility.
func TestCoordinatorReuseLeaksNoState(t *testing.T) {
	fired := 0
	cfg := Config{HistoryFactor: 2, MinVictimLoad: 1}
	only := func(id netsim.NodeID) Config {
		c := cfg
		c.Eligible = []netsim.NodeID{id}
		return c
	}
	c := NewCoordinator(only(0), func(Request) { fired++ }, nil)
	dests := map[netsim.NodeID]float64{0: 5, 1: 500}
	cells := []trafficmatrix.Cell{{Source: 0, Dest: 1, Packets: 400}}
	spike(c, dests, cells)
	if fired != 1 || !c.Active() {
		t.Fatalf("setup detection did not fire (fired=%d active=%v)", fired, c.Active())
	}

	// The reset coordinator must neither remember the old victim nor keep
	// the old eligibility set: with router 3 the only eligible one, router 0
	// must not rank, and with no set at all it must.
	var atrs []ATR
	c.Reset(only(3), func(req Request) { atrs = req.ATRs })
	if c.Active() || c.Requests() != 0 {
		t.Fatalf("reset coordinator leaked activation state (active=%v requests=%d)",
			c.Active(), c.Requests())
	}
	spike(c, dests, cells)
	if !c.Active() {
		t.Fatal("reset coordinator failed to detect")
	}
	if len(atrs) != 0 {
		t.Errorf("reset coordinator kept a stale eligibility set: %+v", atrs)
	}
	c.Reset(cfg, func(req Request) { atrs = req.ATRs })
	spike(c, dests, cells)
	if len(atrs) == 0 {
		t.Error("reset coordinator kept an eligibility set")
	}
}
