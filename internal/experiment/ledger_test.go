package experiment

import (
	"testing"

	"mafic/internal/core"
	"mafic/internal/flowtable"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// runBuilt builds s on a brand-new bundle, lets hook rewire the network
// after the build, runs s to its end and hands the finished run and its
// result to check before releasing it.
func runBuilt(t *testing.T, s Scenario, hook func(b *builtRun), check func(b *builtRun, r Result)) {
	t.Helper()
	b, err := buildRun(s, newRunResources())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer b.release()
	if hook != nil {
		hook(b)
	}
	if err := b.res.sched.RunUntil(s.Duration); err != nil {
		t.Fatalf("run: %v", err)
	}
	r, err := b.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	check(b, r)
}

// reprobingPoint is the full-size hardened point of the default search grid
// that re-probes flows (ROBUST_baseline.json records 10 for it): no quick
// catalog run re-probes one.
func reprobingPoint(t *testing.T) Scenario {
	t.Helper()
	const name = "hardened/none/pulse-400ms-25pct/uniform/spread0.00"
	spec := DefaultSearchSpec()
	for _, p := range spec.Grid() {
		if s := spec.scenario(spec.Defences[1], p, false); s.Name == name {
			return s
		}
	}
	t.Fatalf("the default search grid has no point %s", name)
	return Scenario{}
}

// TestFlowTableCensus checks, at the end of every catalog entry's quick run,
// paper and hardened, that each defender's tables hold exactly what its
// statistics say flowed through them. With TableCapacity 0 nothing is ever
// evicted, and Defender.Handle and classify move flows only so:
//   - the SFT admits every probed flow: a first sight that starts a probe
//     cycle (FlowsProbed less FlowsReprobed) or a nice flow re-probed after
//     going idle (FlowsReprobed, from the NFT);
//   - a closing window moves its flow from the SFT to the NFT (FlowsNice) or
//     to the PDT (FlowsCondemned, FlowsRepeatCondemned among them);
//   - an illegal source enters the PDT directly, once per flow
//     (FlowsIllegal);
//
// so at any instant SFT = FlowsProbed − FlowsNice − FlowsCondemned (the
// windows still open), NFT = FlowsNice − FlowsReprobed and PDT =
// FlowsCondemned + FlowsIllegal, and the tables' per-state admission counts
// are FlowsProbed, FlowsNice and FlowsCondemned + FlowsIllegal.
//
// No quick catalog run re-probes a flow, so the census also runs one full-size
// hardened point of the default search grid that does (reprobingPoint) and
// requires it to: the NFT → SFT move is counted, not only the identities that
// hold without it.
func TestFlowTableCensus(t *testing.T) {
	t.Parallel()
	type censusRun struct {
		name    string
		s       Scenario
		reprobe bool // the run must re-probe at least one flow
	}
	var runs []censusRun
	for _, e := range Entries() {
		s := Quick(e.Build())
		runs = append(runs, censusRun{e.Name, s, false}, censusRun{"hardened " + e.Name, Harden(s), false})
	}
	reprobing := reprobingPoint(t)
	runs = append(runs, censusRun{reprobing.Name, reprobing, true})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			name := r.name
			var reprobed uint64
			runBuilt(t, r.s, nil, func(b *builtRun, _ Result) {
				if len(b.res.mafic) == 0 {
					t.Fatalf("%s: no MAFIC defender was built", name)
				}
				for i, d := range b.res.mafic {
					st, tables := d.Stats(), d.Tables()
					reprobed += st.FlowsReprobed
					sft, nft, pdt := tables.Sizes()
					for _, c := range []struct {
						what      string
						got, want uint64
					}{
						{"SFT size", uint64(sft), st.FlowsProbed - st.FlowsNice - st.FlowsCondemned},
						{"NFT size", uint64(nft), st.FlowsNice - st.FlowsReprobed},
						{"PDT size", uint64(pdt), st.FlowsCondemned + st.FlowsIllegal},
						{"SFT admissions", tables.Transitions(flowtable.StateSuspicious), st.FlowsProbed},
						{"NFT admissions", tables.Transitions(flowtable.StateNice), st.FlowsNice},
						{"PDT admissions", tables.Transitions(flowtable.StatePermanentDrop), st.FlowsCondemned + st.FlowsIllegal},
						{"evictions", tables.Evictions(), 0},
					} {
						if c.got != c.want {
							t.Errorf("%s: defender %d: %s %d, its statistics imply %d (%+v)", name, i, c.what, c.got, c.want, st)
						}
					}
				}
			})
			if r.reprobe && reprobed == 0 {
				t.Errorf("%s re-probed no flow: the census did not count the NFT → SFT move", name)
			}
		})
	}
}

// metricLedger recounts what the paper's metrics are made of from the packets'
// ground-truth tags (Packet.Malicious), through a filter, hooks and drop
// observers of its own instead of the collector's: the victim-bound data
// packets arriving at their first router, an ingress router, and the data
// packets delivered to the victim, each by tag and instant, and the
// defence's drops by tag and reason.
type metricLedger struct {
	victimIP  netsim.IP
	arrivals  [2][]sim.Time // indexed by Malicious
	delivered [2][]sim.Time // indexed by Malicious
	// dropLegit counts legitimate packets dropped, by core.DropReason; the
	// baseline dropper, which has no reasons, drops as DropPermanent does:
	// for good.
	dropLegit  [core.DropProbing + 1]uint64
	dropAttack uint64
}

func tagIndex(pkt *netsim.Packet) int {
	if pkt.Malicious {
		return 1
	}
	return 0
}

// Name and Handle make the ledger the last filter of every ingress router's
// chain: it sees each packet the defence let through.
func (l *metricLedger) Name() string { return "ledger" }

func (l *metricLedger) Handle(pkt *netsim.Packet, now sim.Time, _ *netsim.Router) netsim.Action {
	l.noteArrival(pkt, now)
	return netsim.ActionForward
}

// noteArrival counts pkt if it is victim-bound data at its first router:
// called for what passes the defence and for what it drops there.
func (l *metricLedger) noteArrival(pkt *netsim.Packet, now sim.Time) {
	if pkt.Kind == netsim.KindData && pkt.Label.DstIP == l.victimIP && pkt.Hops == 0 {
		l.arrivals[tagIndex(pkt)] = append(l.arrivals[tagIndex(pkt)], now)
	}
}

func (l *metricLedger) noteDrop(pkt *netsim.Packet, reason core.DropReason, now sim.Time) {
	l.noteArrival(pkt, now)
	if pkt.Malicious {
		l.dropAttack++
	} else {
		l.dropLegit[reason]++
	}
}

// rewire installs the ledger on a built run: the filter on every ingress
// router, the drop observers on every defender, and delivery to the victim
// on the network's one hook set, which rewire chains with others.
func (l *metricLedger) rewire(b *builtRun, hooks *netsim.Hooks) {
	l.victimIP = b.domain.VictimIP()
	for _, r := range b.domain.Ingress {
		r.AttachFilter(l)
	}
	for _, d := range b.res.mafic {
		d.SetDropObserver(l.noteDrop)
	}
	for _, d := range b.res.droppers {
		d.SetDropObserver(func(pkt *netsim.Packet, now sim.Time) { l.noteDrop(pkt, core.DropPermanent, now) })
	}
	victim, onDeliver := b.domain.Victim, hooks.OnDeliver
	hooks.OnDeliver = func(pkt *netsim.Packet, h *netsim.Host, now sim.Time) {
		onDeliver(pkt, h, now)
		if h == victim && pkt.Kind == netsim.KindData {
			l.delivered[tagIndex(pkt)] = append(l.delivered[tagIndex(pkt)], now)
		}
	}
}

// ledgerMetrics are α, β, θp, θn and L_r as the paper defines them
// (metrics.Collector's documentation states each), from the ledger's counts.
type ledgerMetrics struct {
	accuracy, reduction, falsePositive, falseNegative, legitDrop float64
}

// metrics computes them for a defence activated at the given instant (or
// never), β over the scenario's reduction window with deliveries counted in
// time-series bins of the scenario's width, as Result reports it.
func (l *metricLedger) metrics(s Scenario, at sim.Time, activated bool) ledgerMetrics {
	post := func(times []sim.Time) (n uint64) {
		for _, t := range times {
			if activated && t >= at {
				n++
			}
		}
		return n
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	legit, attack := post(l.arrivals[0]), post(l.arrivals[1])
	m := ledgerMetrics{
		accuracy:      ratio(l.dropAttack, attack),
		falseNegative: ratio(post(l.delivered[1]), attack),
		falsePositive: ratio(l.dropLegit[core.DropPermanent]+l.dropLegit[core.DropIllegalSource], legit+attack),
		legitDrop:     ratio(l.dropLegit[core.DropProbing]+l.dropLegit[core.DropPermanent]+l.dropLegit[core.DropIllegalSource], legit),
	}
	bin, w := s.BinWidth, s.ReductionWindow
	if bin <= 0 {
		bin = 50 * sim.Millisecond
	}
	if !activated || w <= 0 {
		return m
	}
	// A delivery counts toward the window its bin starts in.
	rate := func(from, to sim.Time) float64 {
		var n uint64
		for _, times := range l.delivered {
			for _, t := range times {
				if start := t / bin * bin; start >= from && start < to {
					n++
				}
			}
		}
		return sim.Rate(float64(n), from, to)
	}
	if before := rate(at-w, at); before > 0 {
		m.reduction = max(1-rate(at, at+w)/before, 0)
	}
	return m
}

// TestPacketLedger balances every packet of every catalog entry's quick run:
// each one a host sent or a defender injected as a probe is, at the end,
// delivered to a host, dropped by the defence (Counts' probing, PDT and
// illegal drops of legitimate packets and its attack drops), dropped by a
// full queue or a fault (Counts' queue and fault drops), dropped as
// unroutable, or still on a link, queued or in flight.
//
// The network has one set of hooks, which the collector takes and which has
// no count of unroutable packets, so each entry runs twice: plainly, for its
// Counts, and with the hooks rewired to count deliveries to any host and
// every drop the hooks report, unroutable ones included. Hooks only observe,
// so the two runs are the same run; the rewired one's queue and fault drops
// must equal the plain one's Counts.
//
// The rewired run also carries a metricLedger, and α, β, θp, θn and L_r
// recomputed from its counts must equal the plain run's Result, which
// metrics.Collector computed, exactly: every figure reports these metrics,
// and this is their one reference independent of the collector.
//
// No catalog entry drops a legitimate packet for an illegal source, and none
// has an ATR arrival at the activation instant, so the check could not see
// θp's illegal-source term or the collector's `>=` at activation. The last
// subtest is quick table2 with an illegalSender added to both runs, which
// exercises both.
func TestPacketLedger(t *testing.T) {
	t.Parallel()
	for _, e := range Entries() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			checkLedger(t, Quick(e.Build()), nil)
		})
	}
	t.Run("table2/illegal-source", func(t *testing.T) {
		t.Parallel()
		s := table2Quick(t)
		sender := new(illegalSender)
		runBuilt(t, s, nil, func(b *builtRun, _ Result) { sender.at, _ = b.collector.Activated() })
		plain := checkLedger(t, s, sender)
		if plain.Counts.DropLegitIllegal == 0 || sender.first != sender.at {
			t.Errorf("the illegal-source sender's first packet arrived at %v, activation at %v, and %d legitimate packets were dropped for an illegal source; want the same instant and at least one",
				sender.first, sender.at, plain.Counts.DropLegitIllegal)
		}
	})
}

// checkLedger runs s plainly and rewired, as TestPacketLedger describes, and
// returns the plain run's Result. With a sender, both runs are built fresh
// and the sender is installed on each, and the packets it made count as
// created.
func checkLedger(t *testing.T, s Scenario, sender *illegalSender) Result {
	t.Helper()
	var plain Result
	if sender == nil {
		var err error
		if plain, err = Run(s); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	} else {
		runBuilt(t, s, func(b *builtRun) { sender.install(t, b) }, func(_ *builtRun, r Result) { plain = r })
	}
	var delivered, queued, faulted, unroutable uint64
	var ledger metricLedger
	rewire := func(b *builtRun) {
		if sender != nil {
			sender.install(t, b)
		}
		hooks := netsim.Hooks{
			OnDeliver:    func(*netsim.Packet, *netsim.Host, sim.Time) { delivered++ },
			OnQueueDrop:  func(*netsim.Packet, *netsim.Link, sim.Time) { queued++ },
			OnFaultDrop:  func(*netsim.Packet, netsim.NodeID, sim.Time) { faulted++ },
			OnUnroutable: func(*netsim.Packet, netsim.NodeID, sim.Time) { unroutable++ },
		}
		ledger.rewire(b, &hooks)
		b.domain.Net.SetHooks(hooks)
	}
	runBuilt(t, s, rewire, func(b *builtRun, r Result) {
		var sent, inFlight uint64
		b.domain.Net.ForEachNode(func(_ netsim.NodeID, _ *netsim.Router, h *netsim.Host) {
			if h != nil {
				sent += h.Sent()
			}
		})
		if sender != nil {
			sent += sender.sent
		}
		b.res.sched.ForEachPending(func(ev sim.PendingEvent) {
			if l, ok := ev.H.(*netsim.Link); ok {
				for p := ev.Arg.(*netsim.Packet); p != nil; p, _, _ = l.NextInFlight(p) {
					inFlight++
				}
			}
		})
		pc := plain.Counts
		created := sent + r.DefenseStats.ProbesSent
		defence := ledger.dropAttack
		for _, n := range ledger.dropLegit {
			defence += n
		}
		if queued != pc.QueueDrops || faulted != pc.FaultDrops || defence != pc.DropLegitProbing+pc.DropLegitPDT+pc.DropLegitIllegal+pc.DropAttack {
			t.Fatalf("%s: the rewired run dropped %d by queue, %d by fault and %d by defence; the plain run's Counts %+v",
				s.Name, queued, faulted, defence, pc)
		}
		if ended := delivered + defence + pc.QueueDrops + pc.FaultDrops + unroutable + inFlight; created != ended {
			t.Errorf("%s: %d packets created (%d sent, %d probes), %d accounted for: %d delivered, %d defence, %d queue and %d fault drops, %d unroutable, %d on links",
				s.Name, created, sent, r.DefenseStats.ProbesSent, ended, delivered, defence, pc.QueueDrops, pc.FaultDrops, unroutable, inFlight)
		}
		at, activated := b.collector.Activated()
		got := ledger.metrics(s, at, activated)
		for _, m := range []struct {
			name              string
			ledger, collector float64
		}{
			{"α (accuracy)", got.accuracy, plain.Accuracy},
			{"β (traffic reduction)", got.reduction, plain.TrafficReduction},
			{"θp (false positives)", got.falsePositive, plain.FalsePositiveRate},
			{"θn (false negatives)", got.falseNegative, plain.FalseNegativeRate},
			{"L_r (legitimate drops)", got.legitDrop, plain.LegitimateDropRate},
		} {
			if m.ledger != m.collector {
				t.Errorf("%s: %s from the ledger %v, from metrics.Collector %v", s.Name, m.name, m.ledger, m.collector)
			}
		}
	})
	return plain
}

// illegalSender is a legitimate client whose source address no host owns. From
// the instant the defence activates it hands an active ATR one victim-bound
// UDP data packet every 10 ms, as if from a host attached there, so the
// defence drops legitimate packets for an illegal source. The first arrives
// at the activation instant itself, after the activation within it, so the
// collector counts it as after activation; at that instant the sender also
// hands the victim one attack-tagged packet, so a victim delivery falls on
// the activation instant too.
type illegalSender struct {
	at    sim.Time // when the defence activates
	b     *builtRun
	label netsim.FlowLabel
	size  int
	first sim.Time // when the first packet arrived
	sent  uint64
}

// install resets the sender for the built run b. It arms itself one
// nanosecond before the activation instant: an event scheduled then fires at
// that instant after every event scheduled before it for the instant, the
// activation's included.
func (s *illegalSender) install(t *testing.T, b *builtRun) {
	t.Helper()
	src := netsim.IP(0xf0000001) // 240.0.0.1, reserved
	if b.domain.Net.IsRoutable(src) {
		t.Fatalf("%v is routable", src)
	}
	*s = illegalSender{at: s.at, b: b, label: netsim.FlowLabel{SrcIP: src, DstIP: b.domain.VictimIP(), SrcPort: 4000, DstPort: 80}, size: b.s.Workload.PacketSize}
	sched := b.res.sched
	sched.ScheduleAt(s.at-1, func(now sim.Time) { sched.ScheduleArgAt(now+1, s, nil) })
}

func (s *illegalSender) OnEventArg(now sim.Time, _ any) {
	var atr *netsim.Router
	for _, d := range s.b.res.mafic {
		if d.Active() {
			atr = d.Router()
			break
		}
	}
	if atr == nil {
		return
	}
	if s.sent == 0 {
		s.first = now
		s.b.domain.Victim.Deliver(s.packet(true), netsim.NoNode)
	}
	atr.Deliver(s.packet(false), netsim.NoNode)
	s.b.res.sched.ScheduleArgAt(now+10*sim.Millisecond, s, nil)
}

// packet makes one of the sender's packets and counts it.
func (s *illegalSender) packet(malicious bool) *netsim.Packet {
	s.sent++
	net := s.b.domain.Net
	pkt := net.NewPacket()
	pkt.ID = net.NextPacketID()
	pkt.Label = s.label
	pkt.Kind, pkt.Proto, pkt.Size, pkt.FlowID = netsim.KindData, netsim.ProtoUDP, s.size, -1
	pkt.Malicious = malicious
	pkt.SetFlowHash(s.label.Hash())
	return pkt
}
