package topology

import (
	"errors"
	"slices"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

func buildDefault(t *testing.T, mutate func(*Config)) *Domain {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(42))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return d
}

func TestBuildDefaultDomain(t *testing.T) {
	d := buildDefault(t, nil)
	if len(d.Routers) != 40 {
		t.Fatalf("routers = %d, want 40", len(d.Routers))
	}
	if len(d.Ingress) == 0 {
		t.Fatal("no ingress routers")
	}
	if d.LastHop == nil || d.Victim == nil {
		t.Fatal("missing last-hop router or victim")
	}
	wantClients := len(d.Ingress) * DefaultConfig().ClientsPerIngress
	if len(d.Clients) != wantClients {
		t.Fatalf("clients = %d, want %d", len(d.Clients), wantClients)
	}
	wantZombies := len(d.Ingress) * DefaultConfig().ZombiesPerIngress
	if len(d.Zombies) != wantZombies {
		t.Fatalf("zombies = %d, want %d", len(d.Zombies), wantZombies)
	}
	if len(d.Bystanders) != DefaultConfig().BystanderHosts {
		t.Fatalf("bystanders = %d, want %d", len(d.Bystanders), DefaultConfig().BystanderHosts)
	}
	if d.VictimIP() != d.Victim.PrimaryIP() {
		t.Fatal("VictimIP mismatch")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Config{NumRouters: 1}, sim.NewScheduler(), sim.NewRNG(1)); !errors.Is(err, ErrTooFewRouters) {
		t.Fatalf("want ErrTooFewRouters, got %v", err)
	}
}

func TestBuildSmallDomains(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		n := n
		d := buildDefault(t, func(c *Config) {
			c.NumRouters = n
			c.ExtraChords = 0
			c.ClientsPerIngress = 1
			c.ZombiesPerIngress = 1
			c.BystanderHosts = 2
		})
		if len(d.Routers) != n {
			t.Fatalf("N=%d: routers = %d", n, len(d.Routers))
		}
		if len(d.Ingress) < 1 {
			t.Fatalf("N=%d: no ingress routers", n)
		}
	}
}

func TestAllIngressReachVictim(t *testing.T) {
	d := buildDefault(t, nil)
	for _, ing := range d.Ingress {
		hops := pathLength(d.Net, ing.ID(), d.Victim.ID())
		if hops <= 0 {
			t.Fatalf("ingress %s cannot reach victim (hops=%d)", ing, hops)
		}
	}
}

func TestClientsCanReachVictimEndToEnd(t *testing.T) {
	d := buildDefault(t, func(c *Config) {
		c.NumRouters = 12
		c.ClientsPerIngress = 2
		c.ZombiesPerIngress = 1
		c.BystanderHosts = 4
	})
	delivered := 0
	d.Victim.SetDefaultHandler(func(*netsim.Packet, sim.Time) { delivered++ })
	for _, src := range append(append([]*netsim.Host(nil), d.Clients...), d.Zombies...) {
		pkt := &netsim.Packet{
			ID: d.Net.NextPacketID(),
			Label: netsim.FlowLabel{
				SrcIP: src.PrimaryIP(), DstIP: d.VictimIP(),
				SrcPort: 1234, DstPort: 80,
			},
			Kind: netsim.KindData, Proto: netsim.ProtoTCP, Size: 1000,
		}
		src.Send(pkt)
	}
	if err := d.Net.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := len(d.Clients) + len(d.Zombies)
	if delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
}

func TestVictimCanReachClientsReverse(t *testing.T) {
	d := buildDefault(t, func(c *Config) {
		c.NumRouters = 10
		c.ClientsPerIngress = 1
		c.ZombiesPerIngress = 1
		c.BystanderHosts = 2
	})
	got := 0
	for _, c := range d.Clients {
		c.SetDefaultHandler(func(*netsim.Packet, sim.Time) { got++ })
		ack := &netsim.Packet{
			ID: d.Net.NextPacketID(),
			Label: netsim.FlowLabel{
				SrcIP: d.VictimIP(), DstIP: c.PrimaryIP(),
				SrcPort: 80, DstPort: 1234,
			},
			Kind: netsim.KindAck, Proto: netsim.ProtoTCP, Size: 40,
		}
		d.Victim.Send(ack)
	}
	if err := d.Net.Scheduler().Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != len(d.Clients) {
		t.Fatalf("reverse delivery = %d, want %d", got, len(d.Clients))
	}
}

func TestIngressOf(t *testing.T) {
	// 24 bystanders over 12 routers, 3 of them ingress: at seed 42 some
	// bystanders hang off an ingress router.
	d := buildDefault(t, func(c *Config) { c.NumRouters = 12; c.BystanderHosts = 24 })
	ingress := make(map[netsim.NodeID]bool)
	for _, r := range d.Ingress {
		ingress[r.ID()] = true
	}
	for _, h := range slices.Concat(d.Clients, d.Zombies) {
		if ing := d.IngressOf(h); ing == nil || ing.ID() != h.AccessRouter() || !ingress[ing.ID()] {
			t.Fatalf("source %s: IngressOf = %v, want the ingress router %d it attaches to", h, ing, h.AccessRouter())
		}
	}
	if d.IngressOf(d.Victim) != nil {
		t.Fatal("victim should not map to an ingress router")
	}
	onIngress := 0
	for _, b := range d.Bystanders {
		if ingress[b.AccessRouter()] {
			onIngress++
			if ing := d.IngressOf(b); ing != nil {
				t.Errorf("bystander %s behind ingress %d: IngressOf = %v, want nil", b, b.AccessRouter(), ing)
			}
		}
	}
	if onIngress == 0 {
		t.Fatal("no bystander landed on an ingress router; the nil case went unchecked")
	}
}

func TestSpoofPoolAddressesAreRoutable(t *testing.T) {
	d := buildDefault(t, nil)
	for _, b := range d.Bystanders {
		if ip := b.PrimaryIP(); !d.Net.IsRoutable(ip) {
			t.Fatalf("spoof pool address %s is not routable", ip)
		}
	}
	// An address outside every allocated prefix must be unroutable: this
	// is the "illegal source" case MAFIC sends straight to the PDT.
	if d.Net.IsRoutable(netsim.IP(0x01020304)) {
		t.Fatal("unallocated address reported routable")
	}
}

func TestDomainSizeSweepBuilds(t *testing.T) {
	// Figure 5(c)/6(c) sweep domain sizes from 20 to 160 routers; every
	// size must build and keep ingress-victim connectivity.
	for _, n := range []int{20, 40, 80, 120, 160} {
		d := buildDefault(t, func(c *Config) {
			c.NumRouters = n
			c.ClientsPerIngress = 1
			c.ZombiesPerIngress = 1
			c.BystanderHosts = 4
		})
		if got := len(d.Routers); got != n {
			t.Fatalf("N=%d: built %d routers", n, got)
		}
		if hops := pathLength(d.Net, d.Ingress[0].ID(), d.Victim.ID()); hops <= 0 {
			t.Fatalf("N=%d: ingress cannot reach victim", n)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	build := func() *Domain {
		d, err := Build(DefaultConfig(), sim.NewScheduler(), sim.NewRNG(7))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return d
	}
	a, b := build(), build()
	if len(a.Ingress) != len(b.Ingress) || len(a.Clients) != len(b.Clients) {
		t.Fatal("identical seeds produced structurally different domains")
	}
	for i := range a.Clients {
		if a.Clients[i].PrimaryIP() != b.Clients[i].PrimaryIP() {
			t.Fatal("identical seeds produced different client addressing")
		}
	}
}

// TestEveryHostOwnsItsAddress builds past each bound of the old per-block
// layout — 275 ingress routers (maficsim -routers 1100), 248 clients behind
// one ingress (past the 246 of a /24 row, and with its zombies and ring links
// within netsim.MaxDegree), 64 100 bystanders — and requires every host's
// address to resolve to that host. The layout the catalog uses is pinned too: client k
// of ingress gi is 192.168.gi.(10+k), zombie k is 172.16.gi.(10+k), bystander
// b is 203.0.(b/250).(1+b%250).
func TestEveryHostOwnsItsAddress(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"275 ingress", func(c *Config) { c.NumRouters = 1100 }},
		{"248 clients per ingress", func(c *Config) {
			c.NumRouters, c.NumIngress, c.ClientsPerIngress, c.ExtraChords, c.BystanderHosts = 8, 2, 248, 0, 0
		}},
		{"64100 bystanders", func(c *Config) { c.NumRouters, c.BystanderHosts = 1000, 64100 }},
	} {
		d := buildDefault(t, tc.mutate)
		for _, hosts := range [][]*netsim.Host{{d.Victim}, d.Clients, d.Zombies, d.Bystanders} {
			for _, h := range hosts {
				if owner := d.Net.Owner(h.PrimaryIP()); owner != h.ID() {
					t.Fatalf("%s: %v of %s (node %d) routes to node %d", tc.name, h.PrimaryIP(), h, h.ID(), owner)
				}
			}
		}
	}

	d := buildDefault(t, nil)
	per := DefaultConfig().ClientsPerIngress
	if got, want := d.Clients[3*per+2].PrimaryIP(), ipFrom(192, 168, 3, 12); got != want {
		t.Errorf("client 2 of ingress 3 is %v, want %v", got, want)
	}
	if got, want := d.Zombies[2*DefaultConfig().ZombiesPerIngress+1].PrimaryIP(), ipFrom(172, 16, 2, 11); got != want {
		t.Errorf("zombie 1 of ingress 2 is %v, want %v", got, want)
	}
	if got, want := d.Bystanders[7].PrimaryIP(), ipFrom(203, 0, 0, 8); got != want {
		t.Errorf("bystander 7 is %v, want %v", got, want)
	}
}

// TestDuplicateAddressIsAConfigError pins the build-time check behind it: a
// host that takes over another's address fails it with ErrConfig.
func TestDuplicateAddressIsAConfigError(t *testing.T) {
	d := buildDefault(t, nil)
	if err := d.uniqueAddresses(); err != nil {
		t.Fatalf("a default domain fails the check: %v", err)
	}
	d.Net.AddHost(d.Clients[1].PrimaryIP())
	if err := d.uniqueAddresses(); !errors.Is(err, ErrConfig) {
		t.Fatalf("two hosts on %v: got %v, want ErrConfig", d.Clients[1].PrimaryIP(), err)
	}
}

// pathLength returns the number of hops a packet at from takes to reach to,
// walking the links forwarding would send it on, or -1 where there is none
// (or where the walk goes round in a circle).
func pathLength(net *netsim.Network, from, to netsim.NodeID) int {
	hops := 0
	for cur := from; cur != to; hops++ {
		l := forwardingLink(net, cur, to)
		if l == nil || hops == net.NodeCount() {
			return -1
		}
		cur = l.To()
	}
	return hops
}

func TestPathLengthDisconnected(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched, sim.NewRNG(1))
	a := net.AddHost(netsim.IP(1))
	b := net.AddHost(netsim.IP(2))
	if got := pathLength(net, a.ID(), b.ID()); got != -1 {
		t.Fatalf("disconnected path length = %d, want -1", got)
	}
	if got := pathLength(net, a.ID(), a.ID()); got != 0 {
		t.Fatalf("self path length = %d, want 0", got)
	}
}
