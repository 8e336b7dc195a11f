// Package baseline implements the non-adaptive comparator MAFIC is measured
// against: the proportionate packet dropping used by the authors' earlier
// set-union counting pushback work (paper Section II), in which every packet
// destined to the victim — legitimate or malicious — is dropped with the same
// probability at the attack-transit routers.
package baseline

import (
	"errors"
	"fmt"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// FilterName is the name the dropper registers under in drop accounting.
const FilterName = "proportional"

// ErrConfig is returned for invalid configurations.
var ErrConfig = errors.New("baseline: invalid configuration")

// Stats aggregates the dropper's counters.
type Stats struct {
	// Examined counts victim-bound data packets inspected while active.
	Examined uint64
	// Dropped counts inspected packets discarded.
	Dropped uint64
	// Forwarded counts inspected packets passed on.
	Forwarded uint64
}

// Dropper drops every victim-bound data packet with a fixed probability,
// regardless of the flow it belongs to. It implements netsim.Filter.
type Dropper struct {
	probability float64
	router      *netsim.Router
	rng         *sim.RNG

	// st is the dropper's run state, as a snapshot records it.
	st       DropperState
	observer func(pkt *netsim.Packet, now sim.Time)
}

var _ netsim.Filter = (*Dropper)(nil)

// NewDropper creates a proportional dropper bound to a router.
func NewDropper(probability float64, router *netsim.Router, rng *sim.RNG) (*Dropper, error) {
	p := new(Dropper)
	if err := p.Reset(probability, router, rng); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset makes p what NewDropper(probability, router, rng) returns, so a run
// can rebind a dropper an earlier run left behind. A failed Reset leaves p as
// it was.
func (p *Dropper) Reset(probability float64, router *netsim.Router, rng *sim.RNG) error {
	if probability < 0 || probability > 1 {
		return fmt.Errorf("%w: probability %v", ErrConfig, probability)
	}
	if router == nil {
		return fmt.Errorf("%w: nil router", ErrConfig)
	}
	if rng == nil {
		rng = router.Network().RNG().Fork()
	}
	*p = Dropper{probability: probability, router: router, rng: rng}
	return nil
}

// Name implements netsim.Filter.
func (p *Dropper) Name() string { return FilterName }

// Stats returns a snapshot of the dropper's counters.
func (p *Dropper) Stats() Stats { return p.st.Stats }

// Active reports whether the dropper is currently discarding packets.
func (p *Dropper) Active() bool { return p.st.Active }

// Probability returns the configured drop probability.
func (p *Dropper) Probability() float64 { return p.probability }

// Activate starts dropping packets destined to victim.
func (p *Dropper) Activate(victim netsim.IP) {
	p.st.Active = true
	p.st.VictimIP = victim
}

// SetDropObserver installs a callback invoked on every drop (metrics).
func (p *Dropper) SetDropObserver(fn func(pkt *netsim.Packet, now sim.Time)) { p.observer = fn }

// Handle implements netsim.Filter.
func (p *Dropper) Handle(pkt *netsim.Packet, now sim.Time, _ *netsim.Router) netsim.Action {
	if !p.st.Active || pkt.Kind != netsim.KindData || pkt.Label.DstIP != p.st.VictimIP {
		return netsim.ActionForward
	}
	// Like the MAFIC defender, the proportional dropper polices only the
	// traffic entering the domain at this router.
	if pkt.Hops > 0 {
		return netsim.ActionForward
	}
	p.st.Stats.Examined++
	if p.rng.Bool(p.probability) {
		p.st.Stats.Dropped++
		if p.observer != nil {
			p.observer(pkt, now)
		}
		return netsim.ActionDrop
	}
	p.st.Stats.Forwarded++
	return netsim.ActionForward
}
