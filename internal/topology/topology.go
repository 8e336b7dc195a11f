// Package topology builds the simulated AS-level domain the MAFIC evaluation
// runs on: a connected core of routers, a designated last-hop router in front
// of the victim server, a set of ingress (edge) routers where attack and
// legitimate traffic enters the domain, and stub hosts attached to the edges.
//
// The generated domains mirror Figure 1 of the paper: legitimate clients and
// zombies inject traffic at ingress routers, everything converges on the
// last-hop router, and the victim sits behind it.
//
// Routing is the network's own: netsim computes each destination's route
// column on demand (see netsim's routing.go), and lazy_test.go checks it
// against a textbook BFS on every domain shape this package builds.
//
// Every host's address is its own: Build fails with ErrConfig rather than let
// two hosts share one (see edgeIP for the per-ingress blocks).
//
// Arena-built domains (their network and routing columns included) follow the
// arena ownership rule: valid until the next Build on the same arena.
package topology

import (
	"errors"
	"fmt"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// Errors returned by Build.
var (
	// ErrTooFewRouters is returned when the requested domain has fewer
	// than two routers (a last-hop router plus at least one ingress).
	ErrTooFewRouters = errors.New("topology: domain needs at least 2 routers")
	// ErrNoIngress is returned when the configuration yields no ingress
	// routers.
	ErrNoIngress = errors.New("topology: domain needs at least 1 ingress router")
	// ErrConfig is returned by Validate for inconsistent configurations.
	ErrConfig = errors.New("topology: invalid config")
)

// Style selects the router-level graph shape of the generated domain.
type Style int

// Domain styles.
const (
	// StyleRing is the default intra-AS approximation: a ring of core
	// routers with random chord shortcuts.
	StyleRing Style = iota
	// StyleTransitStub is a two-level transit-stub graph: a small fully
	// meshed transit core with chains of stub routers hanging off it.
	// Ingress routers sit on the stub chains and the victim hangs behind
	// the deepest stub router, so attack paths have to cross the transit
	// core the way inter-domain traffic does.
	StyleTransitStub
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case StyleRing:
		return "ring"
	case StyleTransitStub:
		return "transit-stub"
	default:
		return "unknown"
	}
}

// Config describes the domain to generate. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Style selects the router graph generator (ring by default).
	Style Style
	// NumRouters is the total number of routers in the domain (paper
	// parameter N, default 40).
	NumRouters int
	// NumIngress is the number of edge routers where traffic enters. If
	// zero, a quarter of the routers (at least one) become ingress.
	NumIngress int
	// ExtraChords adds this many random shortcut links to the core ring
	// so paths are not all forced through the same routers. It is ignored
	// by StyleTransitStub.
	ExtraChords int
	// TransitRouters is the transit-core size for StyleTransitStub; zero
	// derives NumRouters/6 (minimum 3). Ignored by StyleRing.
	TransitRouters int

	// CoreLink, AccessLink and VictimLink configure the three classes of
	// links in the domain.
	CoreLink   netsim.LinkConfig
	AccessLink netsim.LinkConfig
	VictimLink netsim.LinkConfig

	// ClientsPerIngress is how many legitimate client hosts attach to
	// each ingress router.
	ClientsPerIngress int
	// ZombiesPerIngress is how many attack hosts attach to each ingress
	// router.
	ZombiesPerIngress int
	// BystanderHosts is the number of stub hosts whose addresses form
	// the pool of "legitimate but spoofed" source addresses. They accept
	// and ignore any packet sent to them (so probes to spoofed sources
	// are silently swallowed, as in the real Internet).
	BystanderHosts int

	// ExtraVictims attaches this many additional victim hosts, each
	// behind its own non-ingress router, for simultaneous multi-victim
	// flood scenarios. The primary victim keeps its role; extra victims
	// only absorb the part of the attack aimed at them.
	ExtraVictims int
	// MultiHomedVictim gives the primary victim a second access link to
	// another (non-ingress) router, so shortest-path routing splits its
	// inbound traffic across two last-hop routers and dilutes the
	// per-router load signal the detector watches.
	MultiHomedVictim bool
}

// Validate reports configuration problems before an expensive build.
func (c Config) Validate() error {
	if c.NumRouters < 2 {
		return fmt.Errorf("%w: need at least 2 routers, got %d", ErrConfig, c.NumRouters)
	}
	if c.Style != StyleRing && c.Style != StyleTransitStub {
		return fmt.Errorf("%w: unknown style %d", ErrConfig, c.Style)
	}
	if c.NumIngress < 0 || c.NumIngress > c.NumRouters-1 {
		return fmt.Errorf("%w: ingress count %d with %d routers", ErrConfig, c.NumIngress, c.NumRouters)
	}
	if c.ExtraChords < 0 {
		return fmt.Errorf("%w: negative chord count %d", ErrConfig, c.ExtraChords)
	}
	if c.TransitRouters < 0 || (c.Style == StyleTransitStub && c.TransitRouters > c.NumRouters-1) {
		return fmt.Errorf("%w: transit core %d with %d routers", ErrConfig, c.TransitRouters, c.NumRouters)
	}
	if c.ClientsPerIngress < 0 || c.ZombiesPerIngress < 0 || c.BystanderHosts < 0 {
		return fmt.Errorf("%w: negative host counts", ErrConfig)
	}
	for _, lc := range []struct {
		name string
		cfg  netsim.LinkConfig
	}{{"core", c.CoreLink}, {"access", c.AccessLink}, {"victim", c.VictimLink}} {
		if lc.cfg.BandwidthBps <= 0 {
			return fmt.Errorf("%w: %s link bandwidth %v", ErrConfig, lc.name, lc.cfg.BandwidthBps)
		}
		if lc.cfg.Delay < 0 {
			return fmt.Errorf("%w: %s link delay %v", ErrConfig, lc.name, lc.cfg.Delay)
		}
		if lc.cfg.QueueLen <= 0 {
			return fmt.Errorf("%w: %s link queue length %d", ErrConfig, lc.name, lc.cfg.QueueLen)
		}
	}
	// The 250 cap keeps every extra victim inside the 10.0.0.0/24 block
	// the builder allocates, clear of the primary victim's 10.0.0.1.
	if c.ExtraVictims < 0 || c.ExtraVictims > 250 {
		return fmt.Errorf("%w: extra victim count %d outside [0,250]", ErrConfig, c.ExtraVictims)
	}
	if c.MultiHomedVictim && c.NumRouters < 3 {
		return fmt.Errorf("%w: multi-homed victim needs at least 3 routers", ErrConfig)
	}
	return nil
}

// DefaultConfig returns the domain configuration used throughout the paper's
// evaluation (Table II: N = 40 routers) with link parameters chosen so that
// edge-to-victim RTTs land in the tens of milliseconds.
func DefaultConfig() Config {
	return Config{
		NumRouters:  40,
		NumIngress:  0, // derived: NumRouters/4
		ExtraChords: 10,
		CoreLink: netsim.LinkConfig{
			BandwidthBps: 1e9,
			Delay:        2 * sim.Millisecond,
			QueueLen:     1024,
		},
		AccessLink: netsim.LinkConfig{
			BandwidthBps: 50e6,
			Delay:        1 * sim.Millisecond,
			QueueLen:     256,
		},
		VictimLink: netsim.LinkConfig{
			BandwidthBps: 200e6,
			Delay:        1 * sim.Millisecond,
			QueueLen:     512,
		},
		ClientsPerIngress: 4,
		ZombiesPerIngress: 2,
		BystanderHosts:    16,
	}
}

// Domain is a fully wired simulated network plus the structural roles the
// defence components need to know about.
type Domain struct {
	// Net is the underlying packet-level network.
	Net *netsim.Network

	// Routers is every router in the domain.
	Routers []*netsim.Router
	// Ingress is the subset of routers where external traffic enters;
	// these are the candidate attack-transit routers (ATRs).
	Ingress []*netsim.Router
	// LastHop is the router directly in front of the victim.
	LastHop *netsim.Router

	// Victim is the host under attack.
	Victim *netsim.Host
	// VictimHomes are the routers the primary victim attaches to: LastHop
	// first, plus a second home for multi-homed configurations.
	VictimHomes []*netsim.Router
	// ExtraVictims are additional victim hosts for multi-victim flood
	// scenarios, each behind its own router.
	ExtraVictims []*netsim.Host
	// Clients are the legitimate traffic sources, grouped per ingress.
	Clients []*netsim.Host
	// Zombies are the attack traffic sources, grouped per ingress.
	Zombies []*netsim.Host
	// Bystanders are stub hosts whose addresses attackers spoof.
	Bystanders []*netsim.Host

	// ingressOf records, densely indexed by host NodeID, which ingress
	// router each edge source (client or zombie) enters through; nil for
	// every other node.
	ingressOf []*netsim.Router
}

// IngressOf reports the ingress router a source host (client or zombie)
// attaches to, or nil if the host is not an edge source.
func (d *Domain) IngressOf(host *netsim.Host) *netsim.Router {
	id := host.ID()
	if id < 0 || int(id) >= len(d.ingressOf) {
		return nil
	}
	return d.ingressOf[id]
}

// setIngressOf records host → ingress in the dense table.
func (d *Domain) setIngressOf(host *netsim.Host, ing *netsim.Router) {
	id := int(host.ID())
	for id >= len(d.ingressOf) {
		d.ingressOf = append(d.ingressOf, nil)
	}
	d.ingressOf[id] = ing
}

// SpoofPool returns the addresses of the bystander hosts: valid, routable
// addresses that do not belong to the attackers, exactly the "legitimate"
// spoofed addresses described in Section III-A of the paper.
func (d *Domain) SpoofPool() []netsim.IP {
	pool := make([]netsim.IP, 0, len(d.Bystanders))
	for _, b := range d.Bystanders {
		pool = append(pool, b.PrimaryIP())
	}
	return pool
}

// VictimIP returns the victim server's address.
func (d *Domain) VictimIP() netsim.IP { return d.Victim.PrimaryIP() }

// Build generates a domain according to cfg, wiring its nodes and links; the
// network routes on demand from there. The supplied RNG drives every random
// choice so domains are reproducible. Each call uses a fresh arena; sweeps
// that rebuild topologies repeatedly should reuse one via Arena.Build.
func Build(cfg Config, sched *sim.Scheduler, rng *sim.RNG) (*Domain, error) {
	return NewArena().Build(cfg, sched, rng)
}

// Build generates a domain like the package-level Build, reusing the arena's
// network and Domain. The returned Domain is valid until the arena's next Build;
// see the Arena documentation for the ownership rules.
func (a *Arena) Build(cfg Config, sched *sim.Scheduler, rng *sim.RNG) (*Domain, error) {
	if cfg.NumRouters < 2 {
		return nil, ErrTooFewRouters
	}
	// Direct Build callers get the same invariants as the scenario path;
	// the NumRouters check above keeps its historical sentinel error.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numIngress := cfg.NumIngress
	if numIngress <= 0 {
		numIngress = cfg.NumRouters / 4
		if numIngress < 1 {
			numIngress = 1
		}
	}
	if numIngress > cfg.NumRouters-1 {
		numIngress = cfg.NumRouters - 1
	}
	if numIngress < 1 {
		return nil, ErrNoIngress
	}

	if a.net == nil {
		a.net = netsim.New(sched, rng)
	} else {
		a.net.Reset(sched, rng)
	}
	net := a.net
	// The final node population is known up front; reserving it lets the
	// network allocate its per-node tables (dispatch, adjacency spine,
	// route columns) exactly once.
	net.Reserve(cfg.nodeBudget(numIngress))
	d := &a.domain
	*d = Domain{
		Net:          net,
		Routers:      d.Routers[:0],
		Ingress:      d.Ingress[:0],
		VictimHomes:  d.VictimHomes[:0],
		ExtraVictims: d.ExtraVictims[:0],
		Clients:      d.Clients[:0],
		Zombies:      d.Zombies[:0],
		Bystanders:   d.Bystanders[:0],
		ingressOf:    d.ingressOf[:0],
	}

	for i := 0; i < cfg.NumRouters; i++ {
		d.Routers = append(d.Routers, net.AddRouter(name(&a.names.routers, "r", i)))
	}

	// Wire the router graph and pick the ingress set per style.
	var err error
	switch cfg.Style {
	case StyleTransitStub:
		err = buildTransitStubCore(cfg, net, d, numIngress)
	default:
		err = buildRingCore(cfg, net, d, rng, numIngress)
	}
	if err != nil {
		return nil, err
	}
	if len(d.Ingress) == 0 {
		return nil, ErrNoIngress
	}

	// Victim server behind the last-hop router.
	d.Victim = net.AddHost("victim", ipFrom(10, 0, 0, 1))
	d.Victim.AttachTo(d.LastHop.ID())
	d.VictimHomes = append(d.VictimHomes, d.LastHop)
	if err := net.ConnectDuplex(d.Victim.ID(), d.LastHop.ID(), cfg.VictimLink); err != nil {
		return nil, fmt.Errorf("victim link: %w", err)
	}
	if cfg.MultiHomedVictim {
		second := d.pickQuietRouter(nil)
		if second == nil {
			return nil, fmt.Errorf("%w: no router available as second victim home", ErrConfig)
		}
		d.VictimHomes = append(d.VictimHomes, second)
		if err := net.ConnectDuplex(d.Victim.ID(), second.ID(), cfg.VictimLink); err != nil {
			return nil, fmt.Errorf("victim second home: %w", err)
		}
	}

	// Extra victims for multi-victim flood scenarios, each behind its own
	// router so their last-hop load shows up as a distinct hot row in the
	// traffic matrix.
	taken := make(map[netsim.NodeID]bool)
	for _, r := range d.VictimHomes {
		taken[r.ID()] = true
	}
	for k := 0; k < cfg.ExtraVictims; k++ {
		attach := d.pickQuietRouter(taken)
		if attach == nil {
			return nil, fmt.Errorf("%w: not enough routers for %d extra victims", ErrConfig, cfg.ExtraVictims)
		}
		taken[attach.ID()] = true
		h := net.AddHost(name(&a.names.victims, "victim", k+2), ipFrom(10, 0, 0, byte(2+k)))
		h.AttachTo(attach.ID())
		if err := net.ConnectDuplex(h.ID(), attach.ID(), cfg.VictimLink); err != nil {
			return nil, fmt.Errorf("extra victim link: %w", err)
		}
		// Swallow traffic by default; workload builders install a real
		// server when the scenario targets this victim.
		h.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
		d.ExtraVictims = append(d.ExtraVictims, h)
	}

	// Source hosts behind each ingress router.
	clientIdx, zombieIdx := 0, 0
	for gi, ing := range d.Ingress {
		for c := 0; c < cfg.ClientsPerIngress; c++ {
			h := net.AddHost(name(&a.names.clients, "client", clientIdx), edgeIP(192, 168, gi, c, len(d.Ingress)))
			clientIdx++
			h.AttachTo(ing.ID())
			if err := net.ConnectDuplex(h.ID(), ing.ID(), cfg.AccessLink); err != nil {
				return nil, fmt.Errorf("client link: %w", err)
			}
			d.Clients = append(d.Clients, h)
			d.setIngressOf(h, ing)
		}
		for z := 0; z < cfg.ZombiesPerIngress; z++ {
			h := net.AddHost(name(&a.names.zombies, "zombie", zombieIdx), edgeIP(172, 16, gi, z, len(d.Ingress)))
			zombieIdx++
			h.AttachTo(ing.ID())
			if err := net.ConnectDuplex(h.ID(), ing.ID(), cfg.AccessLink); err != nil {
				return nil, fmt.Errorf("zombie link: %w", err)
			}
			d.Zombies = append(d.Zombies, h)
			d.setIngressOf(h, ing)
		}
	}

	// Bystander stub hosts scattered across non-ingress routers; their
	// addresses form the spoof pool.
	for b := 0; b < cfg.BystanderHosts; b++ {
		attach := d.Routers[rng.Intn(cfg.NumRouters)]
		h := net.AddHost(name(&a.names.bystanders, "bystander", b), blockIP(203, 0, b/250, 1+b%250))
		h.AttachTo(attach.ID())
		if err := net.ConnectDuplex(h.ID(), attach.ID(), cfg.AccessLink); err != nil {
			return nil, fmt.Errorf("bystander link: %w", err)
		}
		// Bystanders silently swallow whatever reaches them.
		h.SetDefaultHandler(func(*netsim.Packet, sim.Time) {})
		d.Bystanders = append(d.Bystanders, h)
	}
	if err := d.uniqueAddresses(); err != nil {
		return nil, err
	}

	return d, nil
}

// nodeBudget is the total node count (routers plus hosts) a build with the
// given effective ingress count creates, used to pre-size the network's
// per-node tables.
func (c Config) nodeBudget(numIngress int) int {
	return c.NumRouters + // routers
		1 + c.ExtraVictims + // victim hosts
		numIngress*(c.ClientsPerIngress+c.ZombiesPerIngress) + // edge sources
		c.BystanderHosts
}

// buildRingCore wires the default intra-AS approximation: a ring of core
// routers plus random chords, with the last router as the last hop and the
// ingress routers spread evenly around the rest of the ring.
func buildRingCore(cfg Config, net *netsim.Network, d *Domain, rng *sim.RNG, numIngress int) error {
	for i := 0; i < cfg.NumRouters; i++ {
		a := d.Routers[i]
		b := d.Routers[(i+1)%cfg.NumRouters]
		if cfg.NumRouters == 2 && i == 1 {
			break // avoid adding the 1->0 ring link twice for tiny domains
		}
		if err := net.ConnectDuplex(a.ID(), b.ID(), cfg.CoreLink); err != nil {
			return fmt.Errorf("core ring: %w", err)
		}
	}
	for c := 0; c < cfg.ExtraChords && cfg.NumRouters > 3; c++ {
		i := rng.Intn(cfg.NumRouters)
		j := rng.Intn(cfg.NumRouters)
		if i == j || net.LinkBetween(d.Routers[i].ID(), d.Routers[j].ID()) != nil {
			continue
		}
		if err := net.ConnectDuplex(d.Routers[i].ID(), d.Routers[j].ID(), cfg.CoreLink); err != nil {
			return fmt.Errorf("core chord: %w", err)
		}
	}

	d.LastHop = d.Routers[cfg.NumRouters-1]
	stride := (cfg.NumRouters - 1) / numIngress
	if stride < 1 {
		stride = 1
	}
	for k := 0; k < numIngress; k++ {
		idx := (k * stride) % (cfg.NumRouters - 1)
		r := d.Routers[idx]
		if containsRouter(d.Ingress, r) {
			continue
		}
		d.Ingress = append(d.Ingress, r)
	}
	return nil
}

// pickQuietRouter returns the first router that is neither an ingress nor the
// last hop nor already taken, falling back to any non-last-hop router. The
// deterministic scan keeps domain generation reproducible.
func (d *Domain) pickQuietRouter(taken map[netsim.NodeID]bool) *netsim.Router {
	for pass := 0; pass < 2; pass++ {
		for _, r := range d.Routers {
			if r == d.LastHop || taken[r.ID()] {
				continue
			}
			if pass == 0 && containsRouter(d.Ingress, r) {
				continue
			}
			return r
		}
	}
	return nil
}

func containsRouter(rs []*netsim.Router, r *netsim.Router) bool {
	for _, x := range rs {
		if x == r {
			return true
		}
	}
	return false
}

// ipFrom assembles an address from dotted-quad components.
func ipFrom(a, b, c, d byte) netsim.IP {
	return netsim.IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// blockIP returns address host (1–255) of the block-th /24 counted from
// a.b.0.0. Past a.b.255.0 the count carries into the second octet instead of
// wrapping back onto a.b.0.0.
func blockIP(a, b byte, block, host int) netsim.IP {
	return ipFrom(a, b, 0, 0) + netsim.IP(block<<8|host)
}

// edgeIP is the address of host k behind ingress gi of n, in the /24s from
// a.b.0.0 up: a.b.gi.(10+k) for the first 246 hosts behind each of the first
// 256 ingress routers, the layout of every catalog run. Hosts past 246 take
// the next row of n /24s, so no two (gi, k) pairs share an address.
func edgeIP(a, b byte, gi, k, n int) netsim.IP {
	const perBlock = 256 - 10
	return blockIP(a, b, k/perBlock*n+gi, 10+k%perBlock)
}

// uniqueAddresses checks that every host's address resolves back to it.
// AddHost lets a later host take an address over silently, so an address
// handed out twice shows up as an earlier host that resolves to another node.
func (d *Domain) uniqueAddresses() error {
	victim := []*netsim.Host{d.Victim}
	for _, hosts := range [][]*netsim.Host{victim, d.ExtraVictims, d.Clients, d.Zombies, d.Bystanders} {
		for _, h := range hosts {
			if owner := d.Net.Owner(h.PrimaryIP()); owner != h.ID() {
				return fmt.Errorf("%w: %v is the address of both %s and node %d", ErrConfig, h.PrimaryIP(), h.Name(), owner)
			}
		}
	}
	return nil
}
