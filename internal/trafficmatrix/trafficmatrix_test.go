package trafficmatrix

import (
	"math"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

func smallDomain(t *testing.T) *topology.Domain {
	t.Helper()
	cfg := topology.DefaultConfig()
	cfg.NumRouters = 12
	cfg.ClientsPerIngress = 2
	cfg.ZombiesPerIngress = 1
	cfg.BystanderHosts = 4
	d, err := topology.Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatalf("build domain: %v", err)
	}
	return d
}

// floodFrom schedules count packets from src to the victim, spread over the
// given window.
func floodFrom(d *topology.Domain, src *netsim.Host, count int, window sim.Time) {
	interval := window / sim.Time(count)
	for i := 0; i < count; i++ {
		i := i
		d.Net.Scheduler().ScheduleAt(sim.Time(i)*interval, func(sim.Time) {
			pkt := &netsim.Packet{
				ID: d.Net.NextPacketID(),
				Label: netsim.FlowLabel{
					SrcIP: src.PrimaryIP(), DstIP: d.VictimIP(),
					SrcPort: 5000, DstPort: 80,
				},
				Kind: netsim.KindData, Proto: netsim.ProtoTCP, Size: 500,
			}
			src.Send(pkt)
		})
	}
}

func TestCounterTracksSourceAndDest(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 100 * sim.Millisecond}, nil)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}

	client := d.Clients[0]
	ingress := d.IngressOf(client)
	const pkts = 400
	floodFrom(d, client, pkts, 90*sim.Millisecond)
	if err := d.Net.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}

	ingressCounter := mon.Counter(ingress.ID())
	if ingressCounter == nil {
		t.Fatal("no counter on ingress router")
	}
	if got := ingressCounter.SourcePackets(); got != pkts {
		t.Fatalf("ingress S_i packet count = %d, want %d", got, pkts)
	}
	if est := ingressCounter.SourceEstimate(); math.Abs(est-pkts)/pkts > 0.25 {
		t.Fatalf("ingress S_i estimate = %.0f, want ~%d", est, pkts)
	}

	lastHop := mon.Counter(d.LastHop.ID())
	if got := lastHop.DestPackets(); got != pkts {
		t.Fatalf("last-hop D_j packet count = %d, want %d", got, pkts)
	}
	if est := lastHop.DestEstimate(); math.Abs(est-pkts)/pkts > 0.25 {
		t.Fatalf("last-hop D_j estimate = %.0f, want ~%d", est, pkts)
	}
	if ingressCounter.Router() != ingress {
		t.Fatal("counter router back-reference wrong")
	}
	if ingressCounter.Name() != CounterName {
		t.Fatal("counter name mismatch")
	}
}

func TestCounterIgnoresControlAndProbes(t *testing.T) {
	d := smallDomain(t)
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: sim.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client := d.Clients[0]
	ingress := d.IngressOf(client)
	for _, kind := range []netsim.PacketKind{netsim.KindControl, netsim.KindProbe} {
		pkt := &netsim.Packet{
			ID: d.Net.NextPacketID(),
			Label: netsim.FlowLabel{
				SrcIP: client.PrimaryIP(), DstIP: d.VictimIP(), SrcPort: 1, DstPort: 2,
			},
			Kind: kind, Size: 40,
		}
		client.Send(pkt)
	}
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	if err := d.Net.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	if got := mon.Counter(ingress.ID()).SourcePackets(); got != 0 {
		t.Fatalf("control/probe packets were counted: %d", got)
	}
}

func TestMonitorEpochReports(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})

	var reports []EpochReport
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 50 * sim.Millisecond}, func(r EpochReport) {
		// Callback reports share the monitor's pooled buffers; retaining
		// them across epochs requires a deep copy.
		reports = append(reports, r.Clone())
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()

	// Flood from one zombie for the first epoch only.
	zombie := d.Zombies[0]
	floodFrom(d, zombie, 600, 45*sim.Millisecond)
	if err := d.Net.Scheduler().RunUntil(160 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	if err := d.Net.Scheduler().RunUntil(300 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	if len(reports) < 2 {
		t.Fatalf("got %d epoch reports, want >= 2", len(reports))
	}
	first := reports[0]
	if first.Epoch != 1 {
		t.Fatalf("first report epoch = %d, want 1", first.Epoch)
	}
	// The access link (20 Mbps) bottlenecks the 600-packet burst, so only
	// part of it reaches the last hop within the first epoch.
	lastHopLoad := first.DestEstimate(d.LastHop.ID())
	if lastHopLoad < 150 {
		t.Fatalf("last-hop D_j estimate = %.0f, want >= 150", lastHopLoad)
	}
	// The zombie's ingress must dominate the matrix column toward the
	// last-hop router.
	top := first.TopSources(d.LastHop.ID())
	if len(top) == 0 {
		t.Fatal("no matrix cells toward the last-hop router")
	}
	if top[0].Source != d.IngressOf(zombie).ID() {
		t.Fatalf("top source router = %d, want zombie ingress %d", top[0].Source, d.IngressOf(zombie).ID())
	}
	// A later epoch (after the flood stopped) must show the load subsiding.
	last := reports[len(reports)-1]
	if last.DestEstimate(d.LastHop.ID()) > lastHopLoad/2 {
		t.Fatalf("load did not subside after flood: %.0f", last.DestEstimate(d.LastHop.ID()))
	}
	if mon.Epoch() != 50*sim.Millisecond {
		t.Fatal("Epoch() accessor mismatch")
	}
}

func TestMonitorStartIdempotent(t *testing.T) {
	d := smallDomain(t)
	count := 0
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: 10 * sim.Millisecond}, func(EpochReport) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	mon.Start() // second call must not double the tick rate
	if err := d.Net.Scheduler().RunUntil(35 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	if err := d.Net.Scheduler().RunUntil(100 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if count < 3 || count > 5 {
		t.Fatalf("epoch callbacks = %d, want 3..5 for a single ticker", count)
	}
}

func TestMatrixIntersectionMatchesGroundTruth(t *testing.T) {
	d := smallDomain(t)
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
	mon, err := NewMonitor(d.Net, MonitorConfig{Epoch: sim.Second, Buckets: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Two clients on (usually) different ingress routers send known
	// volumes; a_ij for each ingress must approximate its volume.
	c0, c1 := d.Clients[0], d.Clients[len(d.Clients)-1]
	floodFrom(d, c0, 800, 400*sim.Millisecond)
	floodFrom(d, c1, 300, 400*sim.Millisecond)
	if err := d.Net.Scheduler().Run(); err != nil {
		t.Fatal(err)
	}
	report := mon.Compute(d.Net.Now())

	wantPerIngress := map[netsim.NodeID]float64{}
	wantPerIngress[d.IngressOf(c0).ID()] += 800
	wantPerIngress[d.IngressOf(c1).ID()] += 300
	for ing, want := range wantPerIngress {
		var got float64
		for _, cell := range report.Cells() {
			if cell.Source == ing && cell.Dest == d.LastHop.ID() {
				got = cell.Packets
			}
		}
		if math.Abs(got-want)/want > 0.35 {
			t.Fatalf("a_ij for ingress %d = %.0f, want ~%.0f", ing, got, want)
		}
	}
}
