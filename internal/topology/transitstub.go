package topology

import (
	"fmt"
	"slices"

	"mafic/internal/netsim"
)

// buildTransitStubCore wires a two-level transit-stub graph: the first
// TransitRouters routers form a full mesh (the transit core), and the
// remaining routers are dealt round-robin into per-transit stub chains. The
// deepest router of the last chain becomes the last hop, so victim-bound
// traffic from any other stub must cross the transit core, and the ingress
// routers are spread evenly over the other stub routers.
func buildTransitStubCore(cfg Config, net *netsim.Network, d *Domain, numIngress int) error {
	transit := cfg.TransitRouters
	if transit <= 0 {
		transit = cfg.NumRouters / 6
	}
	if transit < 3 {
		transit = 3
	}
	if transit > cfg.NumRouters-1 {
		transit = cfg.NumRouters - 1
	}

	// Full mesh over the transit core: with a handful of transit routers
	// this is a few dozen links and gives the core path diversity.
	for i := 0; i < transit; i++ {
		for j := i + 1; j < transit; j++ {
			if err := net.ConnectDuplex(d.Routers[i].ID(), d.Routers[j].ID(), cfg.CoreLink); err != nil {
				return fmt.Errorf("transit mesh: %w", err)
			}
		}
	}

	// Stub routers are dealt round-robin into chains, one chain per
	// transit router: stub s joins chain (s-transit)%transit and connects
	// either to its transit router (chain head) or to the previous member
	// of its chain, giving multi-hop stub depth. Either way that is router
	// s-transit.
	for s := transit; s < cfg.NumRouters; s++ {
		if err := net.ConnectDuplex(d.Routers[s].ID(), d.Routers[s-transit].ID(), cfg.CoreLink); err != nil {
			return fmt.Errorf("stub chain: %w", err)
		}
	}

	// The last stub router (deepest in its chain) fronts the victim.
	d.LastHop = d.Routers[cfg.NumRouters-1]

	// Ingress routers spread evenly over the other stub routers; tiny
	// domains with no spare stub routers (the last hop is the only stub)
	// fall back to the transit routers.
	candidates := d.Routers[transit : cfg.NumRouters-1]
	if len(candidates) == 0 {
		candidates = d.Routers[:transit]
	}
	if numIngress > len(candidates) {
		numIngress = len(candidates)
	}
	stride := max(len(candidates)/numIngress, 1)
	for k := 0; k < numIngress; k++ {
		r := candidates[(k*stride)%len(candidates)]
		if slices.Contains(d.Ingress, r) {
			continue
		}
		d.Ingress = append(d.Ingress, r)
	}
	return nil
}

// DefaultTransitStubConfig returns a transit-stub domain comparable in size
// to the paper's 40-router evaluation: a 5-router transit mesh with 35 stub
// routers in five chains.
func DefaultTransitStubConfig() Config {
	cfg := DefaultConfig()
	cfg.Style = StyleTransitStub
	cfg.TransitRouters = 5
	return cfg
}
