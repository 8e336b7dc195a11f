package traffic

import (
	"errors"
	"fmt"
	"math"

	"mafic/internal/netsim"
	"mafic/internal/sim"
	"mafic/internal/topology"
)

// Errors returned by BuildWorkload.
var (
	// ErrNoSources is returned when the domain has no client or zombie
	// hosts to place flows on.
	ErrNoSources = errors.New("traffic: domain has no source hosts")
	// ErrBadSpec is returned for inconsistent workload specifications.
	ErrBadSpec = errors.New("traffic: invalid workload spec")
)

// WorkloadSpec describes the traffic mix of one experiment in the paper's
// terms: total traffic volume V_t (number of flows), TCP share Γ, and source
// rate R for the attack flows.
type WorkloadSpec struct {
	// TotalFlows is V_t, the total number of flows.
	TotalFlows int
	// TCPShare is Γ, the fraction of flows that are legitimate TCP
	// (responsive) flows. The remainder are attack flows.
	TCPShare float64

	// AttackRate is R: each attack flow's sending rate in packets/s.
	AttackRate float64
	// LegitRate caps each legitimate TCP flow's rate in packets/s.
	LegitRate float64
	// PacketSize is the data packet size in bytes for every flow.
	PacketSize int
	// RTT is the RTT estimate given to TCP sources for pacing.
	RTT sim.Time

	// AttackPulsePeriod, when positive, turns every attack flow into an
	// on-off (pulsing) source with this cycle length instead of a
	// constant-rate flood.
	AttackPulsePeriod sim.Time
	// AttackDutyCycle is the fraction of each pulse period spent
	// flooding when AttackPulsePeriod is set, at most 1. Zero means 0.2.
	AttackDutyCycle float64

	// AttackGroups, when greater than one, turns the attack into a
	// rolling pulse: attack flows are partitioned into this many groups
	// and exactly one group floods at a time, handing off every
	// AttackRotationPeriod. Rolling pulses shift the hot source routers
	// between measurement epochs, attacking per-router baseline
	// detectors directly. Takes precedence over AttackPulsePeriod.
	AttackGroups int
	// AttackRotationPeriod is the slot length of the rolling pulse; it
	// must be positive when AttackGroups > 1.
	AttackRotationPeriod sim.Time

	// AttackRateMix, when non-empty, makes the attack heterogeneous:
	// attack flow i sends at AttackRate × AttackRateMix[i mod len]. Every
	// multiplier must be positive. An empty mix keeps the uniform rate.
	AttackRateMix []float64

	// ExtraVictimShare is the fraction of attack flows aimed at the
	// domain's extra victims (round-robin) instead of the primary victim,
	// enabling simultaneous multi-victim floods. The domain must provide
	// extra victims when the share is positive.
	ExtraVictimShare float64

	// CoremeltShare is the fraction of attack flows aimed at bystander
	// hosts (round-robin) instead of any victim — a coremelt-style attack
	// that congests the transit links the victim's traffic crosses while
	// never addressing the victim itself, so victim-destination filters
	// cannot see it. The domain must provide bystander hosts when the
	// share is positive.
	CoremeltShare float64

	// FlashCrowdFlows adds this many extra legitimate TCP flows that all
	// start inside FlashCrowdWindow after FlashCrowdStart — a flash crowd
	// with no spoofing that a good defence must tell apart from an
	// attack.
	FlashCrowdFlows int
	// FlashCrowdRate caps each flash-crowd flow's rate in packets/s;
	// zero means LegitRate.
	FlashCrowdRate float64
	// FlashCrowdStart is when the flash crowd begins.
	FlashCrowdStart sim.Time
	// FlashCrowdWindow spreads the flash-crowd starts; zero means all
	// flows start at FlashCrowdStart exactly.
	FlashCrowdWindow sim.Time

	// SpoofIllegalFraction is the fraction of attack flows that forge
	// unroutable source addresses (dropped by MAFIC's PDT fast path).
	SpoofIllegalFraction float64
	// SpoofLegitFraction is the fraction of attack flows that forge
	// valid addresses belonging to bystander hosts. Any remainder uses
	// the zombies' own addresses.
	SpoofLegitFraction float64

	// StartWindow spreads legitimate flow starts uniformly over
	// [0, StartWindow) so they do not synchronise.
	StartWindow sim.Time
	// AttackStart is when every attack flow begins flooding.
	AttackStart sim.Time
}

// DefaultWorkloadSpec returns the paper's default traffic mix (Table II:
// V_t = 50 flows, Γ = 95%, R = 10⁶ packets/s) with the packet rate scaled
// down by 200× (experiment.RateScale) so a software simulation completes
// quickly; PAPER.md's Table II section lists the substitution.
func DefaultWorkloadSpec() WorkloadSpec {
	return WorkloadSpec{
		TotalFlows:           50,
		TCPShare:             0.95,
		AttackRate:           5000, // R = 1e6 pkt/s scaled by 1/200
		LegitRate:            250,
		PacketSize:           DefaultDataSize,
		RTT:                  40 * sim.Millisecond,
		SpoofIllegalFraction: 0.2,
		SpoofLegitFraction:   0.5,
		StartWindow:          200 * sim.Millisecond,
		AttackStart:          500 * sim.Millisecond,
	}
}

// Counts returns the number of TCP and attack flows a valid spec yields. The
// attack always gets at least one flow so every scenario exercises the
// defence.
func (s WorkloadSpec) Counts() (tcp, attack int) {
	tcp = int(math.Round(float64(s.TotalFlows) * s.TCPShare))
	if tcp == s.TotalFlows && tcp > 0 {
		tcp--
	}
	return tcp, s.TotalFlows - tcp
}

// firstSourcePort is the source port of a workload's first flow; flow k
// sends from firstSourcePort + k.
const firstSourcePort = 10000

// maxFlows is the most flows, flash crowd included, a workload can label
// with distinct source ports.
const maxFlows = math.MaxUint16 + 1 - firstSourcePort

// Validate reports specification errors.
func (s WorkloadSpec) Validate() error {
	if s.TotalFlows <= 0 {
		return fmt.Errorf("%w: total flows %d", ErrBadSpec, s.TotalFlows)
	}
	if s.TCPShare < 0 || s.TCPShare > 1 {
		return fmt.Errorf("%w: TCP share %v", ErrBadSpec, s.TCPShare)
	}
	if s.AttackRate <= 0 || s.LegitRate <= 0 {
		return fmt.Errorf("%w: rates attack=%v legit=%v", ErrBadSpec, s.AttackRate, s.LegitRate)
	}
	if s.PacketSize <= 0 || s.PacketSize > netsim.MaxPacketSize || s.RTT <= 0 {
		return fmt.Errorf("%w: packet size %d must lie in [1,%d] and RTT %v be positive", ErrBadSpec, s.PacketSize, netsim.MaxPacketSize, s.RTT)
	}
	if s.AttackPulsePeriod < 0 || s.AttackDutyCycle < 0 || s.AttackDutyCycle > 1 {
		return fmt.Errorf("%w: pulse period %v, duty cycle %v", ErrBadSpec, s.AttackPulsePeriod, s.AttackDutyCycle)
	}
	if s.StartWindow < 0 || s.AttackStart < 0 {
		return fmt.Errorf("%w: start window %v and attack start %v must not be negative", ErrBadSpec, s.StartWindow, s.AttackStart)
	}
	frac := s.SpoofIllegalFraction + s.SpoofLegitFraction
	if s.SpoofIllegalFraction < 0 || s.SpoofLegitFraction < 0 || frac > 1.0+1e-9 {
		return fmt.Errorf("%w: spoof fractions", ErrBadSpec)
	}
	if s.AttackGroups < 0 {
		return fmt.Errorf("%w: attack groups %d", ErrBadSpec, s.AttackGroups)
	}
	if s.AttackRotationPeriod < 0 || (s.AttackGroups > 1 && s.AttackRotationPeriod == 0) {
		return fmt.Errorf("%w: rotation period %v with %d groups", ErrBadSpec, s.AttackRotationPeriod, s.AttackGroups)
	}
	for _, m := range s.AttackRateMix {
		if m <= 0 {
			return fmt.Errorf("%w: rate-mix multiplier %v", ErrBadSpec, m)
		}
	}
	if s.ExtraVictimShare < 0 || s.ExtraVictimShare > 1 {
		return fmt.Errorf("%w: extra victim share %v", ErrBadSpec, s.ExtraVictimShare)
	}
	if s.CoremeltShare < 0 || s.CoremeltShare > 1 {
		return fmt.Errorf("%w: coremelt share %v", ErrBadSpec, s.CoremeltShare)
	}
	if s.CoremeltShare+s.ExtraVictimShare > 1.0+1e-9 {
		return fmt.Errorf("%w: coremelt share %v + extra victim share %v exceed 1",
			ErrBadSpec, s.CoremeltShare, s.ExtraVictimShare)
	}
	if s.FlashCrowdFlows < 0 || s.FlashCrowdRate < 0 || s.FlashCrowdStart < 0 || s.FlashCrowdWindow < 0 {
		return fmt.Errorf("%w: flash crowd parameters", ErrBadSpec)
	}
	if s.TotalFlows > maxFlows || s.FlashCrowdFlows > maxFlows-s.TotalFlows {
		return fmt.Errorf("%w: %d flows and %d flash-crowd flows exceed the %d source ports a workload labels flows with",
			ErrBadSpec, s.TotalFlows, s.FlashCrowdFlows, maxFlows)
	}
	return nil
}

// Workload is the instantiated traffic of one scenario. BuildWorkload appends
// the flash-crowd flows to Legitimate last, so Flash is always the trailing
// len(Flash) entries of Legitimate; StartAll relies on it.
type Workload struct {
	// Victim is the server installed on the victim host.
	Victim *VictimServer
	// ExtraServers are the servers installed on extra victim hosts when
	// the spec aims part of the attack at them.
	ExtraServers []*VictimServer
	// Flows is every flow, legitimate and attack.
	Flows []Flow
	// Legitimate and Attack partition Flows. Flash-crowd flows count as
	// legitimate.
	Legitimate []Flow
	Attack     []Flow
	// Flash is the subset of Legitimate that belongs to the flash crowd;
	// these flows start at the flash-crowd instant rather than inside the
	// regular start window.
	Flash []Flow

	// tcp, paced and servers keep every sender and server a build of this
	// workload has made, by position among its kind: the k-th TCP flow of a
	// build is tcp[k], the k-th attack flow paced[k], the victim's server
	// servers[0] and the k-th extra server servers[k+1].
	tcp     []*TCPSource
	paced   []*PacedSource
	servers []*VictimServer
}

// StartAll schedules every flow: legitimate flows spread over the spec's
// start window, flash-crowd flows inside the flash-crowd window, and attack
// flows at the attack start time.
func (w *Workload) StartAll(spec WorkloadSpec, rng *sim.RNG) {
	for _, f := range w.Legitimate[:len(w.Legitimate)-len(w.Flash)] {
		offset := sim.Time(0)
		if spec.StartWindow > 0 {
			offset = sim.Time(rng.Intn(int(spec.StartWindow)))
		}
		f.Start(offset)
	}
	for _, f := range w.Flash {
		offset := sim.Time(0)
		if spec.FlashCrowdWindow > 0 {
			offset = sim.Time(rng.Intn(int(spec.FlashCrowdWindow)))
		}
		f.Start(spec.FlashCrowdStart + offset)
	}
	for _, f := range w.Attack {
		f.Start(spec.AttackStart)
	}
}

// StopAll halts every flow.
func (w *Workload) StopAll() {
	for _, f := range w.Flows {
		f.Stop()
	}
}

// Release drops the workload's flow lists. Call it once the run's metrics
// have been extracted; Reset makes the workload usable again.
func (w *Workload) Release() {
	w.Flows, w.Legitimate, w.Attack, w.Flash = nil, nil, nil, nil
}

// PacketsSent sums the data packets emitted by legitimate and attack flows.
func (w *Workload) PacketsSent() (legit, attack uint64) {
	for _, f := range w.Legitimate {
		legit += f.PacketsSent()
	}
	for _, f := range w.Attack {
		attack += f.PacketsSent()
	}
	return legit, attack
}

// BuildWorkload instantiates the spec's flows on the domain: legitimate
// flows on client hosts (round-robin), attack flows on zombie hosts
// (round-robin), and a victim server on the victim host.
func BuildWorkload(spec WorkloadSpec, d *topology.Domain, rng *sim.RNG) (*Workload, error) {
	w := new(Workload)
	if err := w.Reset(spec, d, rng); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset makes w what BuildWorkload(spec, d, rng) returns, keeping its
// storage: the flow lists' backing and every sender an earlier build made,
// which this build's senders reuse by position among their kind. d's network
// must have been reset since w's last build ran on it, so that no event or
// handler of the old flows is left; every flow w handed out before is
// invalid from here on. A failed Reset leaves w fit only for another Reset.
func (w *Workload) Reset(spec WorkloadSpec, d *topology.Domain, rng *sim.RNG) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(d.Clients) == 0 || len(d.Zombies) == 0 {
		return ErrNoSources
	}
	tcpCount, attackCount := spec.Counts()

	// Everything not carried over here starts from zero.
	*w = Workload{
		Victim:       kept(&w.servers, 0).reset(d.Victim, DefaultAckSize),
		ExtraServers: w.ExtraServers[:0],
		Flows:        w.Flows[:0],
		Legitimate:   w.Legitimate[:0],
		Attack:       w.Attack[:0],
		Flash:        w.Flash[:0],
		tcp:          w.tcp,
		paced:        w.paced,
		servers:      w.servers,
	}
	victimIP := d.VictimIP()
	flowID := 0
	nextPort := func() uint16 { return uint16(firstSourcePort + flowID) }

	// newLegitTCP builds the k-th legitimate responsive flow; baseline and
	// flash-crowd flows share it so their TCP behaviour cannot diverge.
	newLegitTCP := func(k int, host *netsim.Host, maxRate float64) Flow {
		cfg := TCPConfig{RTT: spec.RTT, MaxRate: maxRate, PacketSize: spec.PacketSize}
		f := kept(&w.tcp, k).reset(flowID, cfg, host, victimIP, nextPort())
		flowID++
		w.Flows = append(w.Flows, f)
		w.Legitimate = append(w.Legitimate, f)
		return f
	}

	for i := 0; i < tcpCount; i++ {
		newLegitTCP(i, d.Clients[i%len(d.Clients)], spec.LegitRate)
	}

	// Flash-crowd flows: extra legitimate TCP sources that all arrive in
	// a burst. They use client hosts round-robin like the baseline TCP
	// flows and are tracked separately so StartAll can release them at
	// the flash-crowd instant.
	for i := 0; i < spec.FlashCrowdFlows; i++ {
		rate := spec.FlashCrowdRate
		if rate <= 0 {
			rate = spec.LegitRate
		}
		f := newLegitTCP(tcpCount+i, d.Clients[(tcpCount+i)%len(d.Clients)], rate)
		w.Flash = append(w.Flash, f)
	}

	// Multi-victim floods: the trailing share of attack flows aims at the
	// domain's extra victims instead of the primary one. Each targeted
	// extra victim gets its own server so the flood it absorbs behaves
	// like real victim traffic.
	extraAim := int(math.Round(spec.ExtraVictimShare * float64(attackCount)))
	if extraAim > 0 {
		if len(d.ExtraVictims) == 0 {
			return fmt.Errorf("%w: extra victim share %v but domain has no extra victims",
				ErrBadSpec, spec.ExtraVictimShare)
		}
		for k, v := range d.ExtraVictims {
			w.ExtraServers = append(w.ExtraServers, kept(&w.servers, k+1).reset(v, DefaultAckSize))
		}
	}

	// Coremelt-style flows: the leading share of attack flows floods
	// bystander hosts across the transit core, never addressing a victim.
	coremeltAim := int(math.Round(spec.CoremeltShare * float64(attackCount)))
	if coremeltAim > attackCount-extraAim {
		coremeltAim = attackCount - extraAim
	}
	if coremeltAim > 0 && len(d.Bystanders) == 0 {
		return fmt.Errorf("%w: coremelt share %v but domain has no bystander hosts",
			ErrBadSpec, spec.CoremeltShare)
	}

	// Coremelt targets and legitimate spoofed sources are both bystander
	// addresses.
	bystanders := d.Bystanders
	illegalFlows := int(math.Round(spec.SpoofIllegalFraction * float64(attackCount)))
	legitSpoofFlows := int(math.Round(spec.SpoofLegitFraction * float64(attackCount)))
	for i := 0; i < attackCount; i++ {
		zombie := d.Zombies[i%len(d.Zombies)]
		// The source address, across Section III-A's spectrum: one routable
		// nowhere (MAFIC's PDT fast path drops the flow), a bystander's
		// (probes reach that host and are ignored), or the zombie's own
		// (the flow is condemned after probing).
		src := zombie.PrimaryIP()
		switch {
		case i < illegalFlows:
			// Addresses under 1.0.0.0/8 are never allocated by the
			// topology builder, so they are unroutable by construction.
			src = netsim.IP(0x01000000 | uint32(flowID+1))
		case i < illegalFlows+legitSpoofFlows && len(bystanders) > 0:
			src = bystanders[i%len(bystanders)].PrimaryIP()
		}

		target := victimIP
		switch {
		case i < coremeltAim:
			target = bystanders[i%len(bystanders)].PrimaryIP()
		case i >= attackCount-extraAim:
			target = d.ExtraVictims[(i-(attackCount-extraAim))%len(d.ExtraVictims)].PrimaryIP()
		}

		// The rate and the gate: a flood sends all the time; a pulse
		// floods Period × DutyCycle at the start of every Period; a
		// rolling pulse floods one slot of every Groups slots, group g
		// starting g slots after the attack.
		p := pacing{rate: spec.AttackRate, size: spec.PacketSize}
		if len(spec.AttackRateMix) > 0 {
			p.rate *= spec.AttackRateMix[i%len(spec.AttackRateMix)]
		}
		kind := FlowAttack
		switch {
		case spec.AttackGroups > 1:
			kind = FlowRotating
			slot := spec.AttackRotationPeriod
			p.onFor = slot
			p.every = sim.Time(int64(slot) * int64(spec.AttackGroups))
			p.offset = sim.Time(int64(slot) * int64(i%spec.AttackGroups))
		case spec.AttackPulsePeriod > 0:
			kind = FlowPulsing
			duty := spec.AttackDutyCycle
			if duty == 0 {
				duty = 0.2
			}
			p.onFor = sim.Time(float64(spec.AttackPulsePeriod) * duty)
			p.every = spec.AttackPulsePeriod
		}

		f := kept(&w.paced, i).reset(flowID, kind, p, zombie, flowLabel(src, target, nextPort()), rng.Fork())
		flowID++
		w.Flows = append(w.Flows, f)
		w.Attack = append(w.Attack, f)
	}
	return nil
}

// kept returns (*list)[k], first appending a new object when the list is
// exactly k long: builds take their senders in order, so the list grows to
// the largest build's count and stays there.
func kept[T any](list *[]*T, k int) *T {
	if k == len(*list) {
		*list = append(*list, new(T))
	}
	return (*list)[k]
}
