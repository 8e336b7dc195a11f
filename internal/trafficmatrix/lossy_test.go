package trafficmatrix

import (
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// TestReportLossDropsEpochs verifies a fully lossy control channel delivers
// nothing while the epochs themselves keep ending: the next surviving window
// (none here) would carry the advanced epoch index, so consumers see gaps
// rather than renumbered history.
func TestReportLossDropsEpochs(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	delivered := 0
	mon, err := NewMonitor(d.Net, MonitorConfig{
		Epoch:      50 * sim.Millisecond,
		ReportLoss: 1,
	}, func(EpochReport) { delivered++ })
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	mon.Start()
	if err := d.Net.Scheduler().RunUntil(260 * sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if delivered != 0 {
		t.Fatalf("fully lossy channel delivered %d reports, want 0", delivered)
	}
	// Five epochs ended and were consumed; the next computed report carries
	// index 6, exposing the gap to consumers.
	if rep := mon.Compute(d.Net.Now()); rep.Epoch != 6 {
		t.Fatalf("epoch index after 5 lost epochs = %d, want 6", rep.Epoch)
	}
}

// TestPartialReportLossLeavesNumberingGaps verifies surviving reports keep
// their original epoch numbers: the delivered sequence is strictly increasing
// with holes where reports were lost.
func TestPartialReportLossLeavesNumberingGaps(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	var epochs []int
	mon, err := NewMonitor(d.Net, MonitorConfig{
		Epoch:      10 * sim.Millisecond,
		ReportLoss: 0.5,
	}, func(r EpochReport) { epochs = append(epochs, r.Epoch) })
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	mon.Start()
	const ticks = 40
	if err := d.Net.Scheduler().RunUntil(ticks*10*sim.Millisecond + sim.Millisecond); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(epochs) == 0 || len(epochs) >= ticks {
		t.Fatalf("50%% loss delivered %d of %d reports; expected some but not all", len(epochs), ticks)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("delivered epochs not strictly increasing: %v", epochs)
		}
	}
	if epochs[len(epochs)-1] > ticks {
		t.Fatalf("delivered epoch %d beyond the %d epochs that ended", epochs[len(epochs)-1], ticks)
	}
}

// TestDelayedReportsArriveLateAndOwned verifies delayed reports are delivered
// ReportDelay after their epoch boundary as deep copies that stay valid while
// the pooled buffers roll on underneath.
func TestDelayedReportsArriveLateAndOwned(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	const (
		epoch = 50 * sim.Millisecond
		delay = 5 * sim.Millisecond
	)
	type arrival struct {
		epoch int
		at    sim.Time
		end   sim.Time
	}
	var got []arrival
	var retained []EpochReport
	mon, err := NewMonitor(d.Net, MonitorConfig{
		Epoch:           epoch,
		ReportDelayProb: 1,
		ReportDelay:     delay,
	}, func(r EpochReport) {
		got = append(got, arrival{epoch: r.Epoch, at: d.Net.Now(), end: r.End})
		retained = append(retained, r)
	})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	mon.Start()
	if err := d.Net.Scheduler().RunUntil(4*epoch + 2*delay); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("received %d delayed reports, want 4", len(got))
	}
	for i, a := range got {
		if a.epoch != i+1 {
			t.Fatalf("report %d has epoch %d, want %d", i, a.epoch, i+1)
		}
		if a.at != a.end+delay {
			t.Fatalf("report %d arrived at %v, want %v (boundary %v + delay %v)", i, a.at, a.end+delay, a.end, delay)
		}
	}
	// The retained copies must own their backing: each report's window is
	// still its own, untouched by the epochs computed after it.
	for i, r := range retained {
		if r.End != sim.Time(i+1)*epoch {
			t.Fatalf("retained report %d End mutated to %v", i, r.End)
		}
	}
}

// TestRestoredReportOwnsItsBacking verifies a delayed report restored from a
// snapshot record copies the record's tables: the record belongs to a
// snapshot that is decoded and captured into again while the report is in
// flight.
func TestRestoredReportOwnsItsBacking(t *testing.T) {
	var m Monitor
	st := &EpochReportState{
		Epoch: 3, Start: sim.Second, End: 2 * sim.Second,
		Routers: []netsim.NodeID{4, 7}, SourceEst: []float64{1.5, 2}, DestEst: []float64{0.5, 1},
		Matrix: []Cell{{Source: 4, Dest: 7, Packets: 3}},
	}
	rep := m.RestoreEpochReport(st).(*EpochReport)
	st.Routers[0], st.SourceEst[0], st.DestEst[0], st.Matrix[0].Packets = 9, 9, 9, 9
	if rep.Epoch != 3 || rep.End != 2*sim.Second || rep.Routers[0] != 4 || rep.SourceEst[0] != 1.5 ||
		rep.DestEst[0] != 0.5 || rep.Matrix[0].Packets != 3 {
		t.Errorf("the restored report changed with the record it came from: %+v", *rep)
	}
}

// TestLossyMonitorPooledReuseClearsChannelState verifies a monitor whose last
// run used the lossy channel comes back clean from Reset: no stale RNG, no
// stale loss knobs, so a fault-free reuse draws no randomness.
func TestLossyMonitorPooledReuseClearsChannelState(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{
		Epoch:           20 * sim.Millisecond,
		ReportLoss:      0.5,
		ReportDelayProb: 0.5,
		ReportDelay:     sim.Millisecond,
	}, nil)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	if mon.ctrlRNG == nil {
		t.Fatal("lossy monitor did not fork a control RNG")
	}

	d2 := smallDomain(t)
	if err := mon.Reset(d2.Net, MonitorConfig{Epoch: 20 * sim.Millisecond}, nil); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if mon.ctrlRNG != nil || mon.reportLoss != 0 || mon.delayProb != 0 || mon.reportDelay != 0 {
		t.Fatalf("reset monitor kept lossy-channel state: rng=%v loss=%v delayProb=%v delay=%v",
			mon.ctrlRNG, mon.reportLoss, mon.delayProb, mon.reportDelay)
	}
}
