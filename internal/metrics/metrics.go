// Package metrics measures a scenario the way the paper's evaluation does
// (Section IV, Table I): attack-packet dropping accuracy α, traffic
// reduction rate β, false-positive rate θp, false-negative rate θn, and the
// legitimate-packet dropping rate L_r, plus the victim-side bandwidth time
// series behind Figure 4(b).
//
// The collector observes the simulation through ground-truth packet tags
// (Packet.Malicious) that no defence component ever reads, a per-ATR arrival
// tap, the defenders' drop observers, and the network delivery hook.
package metrics

import (
	"mafic/internal/core"
	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// ArrivalTapName is the filter name of the per-ATR arrival tap.
const ArrivalTapName = "metrics-arrival-tap"

// BandwidthPoint is one bin of the victim arrival time series.
type BandwidthPoint struct {
	// Time is the start of the bin.
	Time sim.Time
	// LegitPackets and AttackPackets count data packets delivered to the
	// victim during the bin.
	LegitPackets  uint64
	AttackPackets uint64
	// Bytes is the total data volume delivered during the bin.
	Bytes uint64
}

// Total returns the bin's total packet count.
func (p BandwidthPoint) Total() uint64 { return p.LegitPackets + p.AttackPackets }

// Collector accumulates the per-packet observations of one scenario run.
type Collector struct {
	binWidth sim.Time

	// st is the collector's run state, as a snapshot records it: the
	// activation record, every raw counter (the hooks below increment
	// st.Counts) and the victim bandwidth time series. st.Bins is indexed
	// densely by bin number (Time/binWidth). Quiet bins stay zero and are
	// skipped by Series, so the dense layout is invisible in the reported
	// output; it exists because a map of pointers allocated one
	// BandwidthPoint per bin per run and put a hash lookup on the
	// per-delivery hot path.
	st CollectorState

	// tap is the arrival counter shared by every tapped router; the same
	// filter instance can sit on many routers because its only state is
	// the collector itself.
	tap arrivalTap

	// hooks are the network hooks InstallHooks installs, made with the
	// collector, and victimHost the host whose deliveries they count.
	hooks      netsim.Hooks
	victimHost netsim.NodeID
}

// NewCollector creates a collector with the given time-series bin width.
// A zero bin width defaults to 50 ms.
func NewCollector(binWidth sim.Time) *Collector {
	c := new(Collector)
	c.hooks = netsim.Hooks{
		OnDeliver: func(pkt *netsim.Packet, host *netsim.Host, now sim.Time) {
			if host.ID() != c.victimHost || pkt.Kind != netsim.KindData {
				return
			}
			c.noteVictimDelivery(pkt, now)
		},
		OnQueueDrop: func(*netsim.Packet, *netsim.Link, sim.Time) {
			c.st.Counts.QueueDrops++
		},
		OnFaultDrop: func(*netsim.Packet, netsim.NodeID, sim.Time) {
			c.st.Counts.FaultDrops++
		},
	}
	c.Reset(binWidth)
	return c
}

// Reset makes c what NewCollector(binWidth) returns, keeping its hooks and
// its series backing, which ReserveSeries grows only past its longest run.
func (c *Collector) Reset(binWidth sim.Time) {
	if binWidth <= 0 {
		binWidth = 50 * sim.Millisecond
	}
	*c = Collector{binWidth: binWidth, st: CollectorState{Bins: c.st.Bins[:0]}, hooks: c.hooks}
}

// MarkActivation records the instant the defence was activated. Arrivals and
// deliveries before this instant are excluded from the defence-quality
// metrics (the defence cannot drop what it was not yet asked to drop).
func (c *Collector) MarkActivation(now sim.Time) {
	if c.st.Activated {
		return
	}
	c.st.Activated = true
	c.st.ActivationAt = now
}

// Activated reports whether MarkActivation has been called, and when.
func (c *Collector) Activated() (sim.Time, bool) { return c.st.ActivationAt, c.st.Activated }

// arrivalTap is the passive filter installed on each ATR.
type arrivalTap struct {
	collector *Collector
	victimIP  netsim.IP
}

var _ netsim.Filter = (*arrivalTap)(nil)

func (t *arrivalTap) Name() string { return ArrivalTapName }

func (t *arrivalTap) Handle(pkt *netsim.Packet, now sim.Time, _ *netsim.Router) netsim.Action {
	// Only the packet's first router counts it (Hops is still zero
	// there); transit through other tapped routers must not double count.
	if pkt.Kind == netsim.KindData && pkt.Label.DstIP == t.victimIP && pkt.Hops == 0 {
		t.collector.noteATRArrival(pkt, now)
	}
	return netsim.ActionForward
}

// TapRouter installs a passive arrival counter on the given router. It must
// be attached before the defence filter so it sees packets the defence later
// drops. All taps share one filter instance, which counts for the victim of
// the last call: one victim per run.
func (c *Collector) TapRouter(r *netsim.Router, victim netsim.IP) {
	c.tap = arrivalTap{collector: c, victimIP: victim}
	r.AttachFilter(&c.tap)
}

// ReserveSeries presizes the bandwidth time series for a run of the given
// duration, so recording deliveries never grows the series mid-run.
func (c *Collector) ReserveSeries(duration sim.Time) {
	want := int(duration/c.binWidth) + 1
	if duration <= 0 || cap(c.st.Bins) >= want {
		return
	}
	grown := make([]BandwidthPoint, len(c.st.Bins), want)
	copy(grown, c.st.Bins)
	c.st.Bins = grown
}

func (c *Collector) noteATRArrival(pkt *netsim.Packet, now sim.Time) {
	post := c.st.Activated && now >= c.st.ActivationAt
	if pkt.Malicious {
		if post {
			c.st.Counts.ATRAttackPost++
		} else {
			c.st.Counts.ATRAttackPre++
		}
		return
	}
	if post {
		c.st.Counts.ATRLegitPost++
	} else {
		c.st.Counts.ATRLegitPre++
	}
}

// ObserveMAFICDrop is wired as each MAFIC defender's drop observer.
func (c *Collector) ObserveMAFICDrop(pkt *netsim.Packet, reason core.DropReason, _ sim.Time) {
	if pkt.Malicious {
		c.st.Counts.DropAttack++
		if reason == core.DropPermanent || reason == core.DropIllegalSource {
			c.st.Counts.DropAttackPDT++
		}
		return
	}
	switch reason {
	case core.DropProbing:
		c.st.Counts.DropLegitProbing++
	case core.DropPermanent:
		c.st.Counts.DropLegitPDT++
	case core.DropIllegalSource:
		c.st.Counts.DropLegitIllegal++
	}
}

// ObserveBaselineDrop is wired as the proportional dropper's observer. All
// baseline drops of legitimate packets count as wrong drops: the baseline
// has no notion of probing.
func (c *Collector) ObserveBaselineDrop(pkt *netsim.Packet, _ sim.Time) {
	if pkt.Malicious {
		c.st.Counts.DropAttack++
		return
	}
	c.st.Counts.DropLegitPDT++
}

// InstallHooks registers the collector's network hooks: victim deliveries
// and queue drops. Call it once per scenario after building the network.
func (c *Collector) InstallHooks(net *netsim.Network, victimHost netsim.NodeID) {
	c.victimHost = victimHost
	net.SetHooks(c.hooks)
}

func (c *Collector) noteVictimDelivery(pkt *netsim.Packet, now sim.Time) {
	post := c.st.Activated && now >= c.st.ActivationAt
	if pkt.Malicious {
		if post {
			c.st.Counts.VictimAttack++
		} else {
			c.st.Counts.VictimAttackPre++
		}
	} else {
		if post {
			c.st.Counts.VictimLegit++
		} else {
			c.st.Counts.VictimLegitPre++
		}
	}
	idx := int(now / c.binWidth)
	for len(c.st.Bins) <= idx {
		c.st.Bins = append(c.st.Bins, BandwidthPoint{Time: sim.Time(len(c.st.Bins)) * c.binWidth})
	}
	bin := &c.st.Bins[idx]
	if pkt.Malicious {
		bin.AttackPackets++
	} else {
		bin.LegitPackets++
	}
	bin.Bytes += uint64(pkt.Size)
}

// ratio returns num/den guarding against empty denominators.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Accuracy returns α: the fraction of attack packets arriving at the ATRs
// after activation that the defence dropped.
func (c *Collector) Accuracy() float64 {
	return ratio(c.st.Counts.DropAttack, c.st.Counts.ATRAttackPost)
}

// FalseNegativeRate returns θn: the fraction of attack packets arriving at
// the ATRs after activation that still reached the victim.
func (c *Collector) FalseNegativeRate() float64 {
	return ratio(c.st.Counts.VictimAttack, c.st.Counts.ATRAttackPost)
}

// FalsePositiveRate returns θp: legitimate packets dropped because their
// flow was classified as malicious (PDT or illegal-source drops), as a
// fraction of all victim-bound packets arriving at the ATRs after
// activation. This matches the paper's "percentage of legitimate packets
// wrongly dropped as malicious attacking packets out of the total traffic
// packets".
func (c *Collector) FalsePositiveRate() float64 {
	total := c.st.Counts.ATRLegitPost + c.st.Counts.ATRAttackPost
	return ratio(c.st.Counts.DropLegitPDT+c.st.Counts.DropLegitIllegal, total)
}

// LegitimateDropRate returns L_r: every legitimate packet the defence
// dropped (probing losses included) as a fraction of legitimate packets
// arriving at the ATRs after activation.
func (c *Collector) LegitimateDropRate() float64 {
	return ratio(c.st.Counts.DropLegitProbing+c.st.Counts.DropLegitPDT+c.st.Counts.DropLegitIllegal, c.st.Counts.ATRLegitPost)
}

// TrafficReduction returns β: one minus the ratio of the victim's arrival
// rate in the window of the given length immediately after activation to the
// arrival rate in the window of the same length immediately before it.
func (c *Collector) TrafficReduction(window sim.Time) float64 {
	if !c.st.Activated || window <= 0 {
		return 0
	}
	before := c.rateIn(c.st.ActivationAt-window, c.st.ActivationAt)
	after := c.rateIn(c.st.ActivationAt, c.st.ActivationAt+window)
	if before <= 0 {
		return 0
	}
	reduction := 1 - after/before
	if reduction < 0 {
		reduction = 0
	}
	return reduction
}

// rateIn sums delivered packets whose bins overlap [from, to) and converts
// to packets per second.
func (c *Collector) rateIn(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var count uint64
	for i := range c.st.Bins {
		start := c.st.Bins[i].Time
		if start >= from && start < to {
			count += c.st.Bins[i].Total()
		}
	}
	return sim.Rate(float64(count), from, to)
}

// Series returns the victim bandwidth time series in chronological order.
// Bins in which nothing was delivered are omitted, exactly as when the
// series was stored sparsely.
func (c *Collector) Series() []BandwidthPoint {
	out := make([]BandwidthPoint, 0, len(c.st.Bins))
	for _, bin := range c.st.Bins {
		if bin.Total() > 0 {
			out = append(out, bin)
		}
	}
	return out
}

// Counts is the raw counters, as the collector holds them and as reports and
// snapshots carry them.
type Counts struct {
	// Arrivals at ATRs (victim-bound data), split by ground truth and by
	// whether the defence was active at arrival time.
	ATRLegitPre   uint64 `json:"atrLegitPre"`
	ATRLegitPost  uint64 `json:"atrLegitPost"`
	ATRAttackPre  uint64 `json:"atrAttackPre"`
	ATRAttackPost uint64 `json:"atrAttackPost"`

	// Defence drops split by ground truth and reason.
	DropLegitProbing uint64 `json:"dropLegitProbing"`
	DropLegitPDT     uint64 `json:"dropLegitPdt"`
	DropLegitIllegal uint64 `json:"dropLegitIllegal"`
	DropAttack       uint64 `json:"dropAttack"`
	DropAttackPDT    uint64 `json:"dropAttackPdt"`

	// Victim deliveries split by ground truth and activation phase.
	VictimLegitPre  uint64 `json:"victimLegitPre"`
	VictimLegit     uint64 `json:"victimLegitPost"`
	VictimAttackPre uint64 `json:"victimAttackPre"`
	VictimAttack    uint64 `json:"victimAttackPost"`

	// Queue drops anywhere in the network (not attributable to MAFIC).
	QueueDrops uint64 `json:"queueDrops"`

	// Fault drops: packets killed by down links or crashed routers during
	// injected-failure runs (not attributable to MAFIC either).
	FaultDrops uint64 `json:"faultDrops"`
}

// Counts returns a snapshot of the raw counters.
func (c *Collector) Counts() Counts { return c.st.Counts }
