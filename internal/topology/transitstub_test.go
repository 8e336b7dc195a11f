package topology

import (
	"errors"
	"math"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

func TestBuildTransitStubDomain(t *testing.T) {
	cfg := DefaultTransitStubConfig()
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := len(d.Routers); got != cfg.NumRouters {
		t.Fatalf("built %d routers, want %d", got, cfg.NumRouters)
	}
	if len(d.Ingress) == 0 {
		t.Fatal("no ingress routers")
	}
	for _, ing := range d.Ingress {
		if ing == d.LastHop {
			t.Fatal("last-hop router must not be an ingress")
		}
		if hops := pathLength(d.Net, ing.ID(), d.Victim.ID()); hops <= 0 {
			t.Fatalf("ingress %s cannot reach the victim", ing)
		}
	}
	// Transit routers carry no direct hosts, so the transit core is pure
	// forwarding fabric: every source host attaches to a stub router.
	for _, h := range append(append([]*netsim.Host{}, d.Clients...), d.Zombies...) {
		if ing := d.IngressOf(h); ing == nil {
			t.Fatalf("host %s has no ingress", h)
		}
	}
}

func TestBuildTransitStubTiny(t *testing.T) {
	cfg := DefaultTransitStubConfig()
	cfg.NumRouters = 5
	cfg.TransitRouters = 4
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(1))
	if err != nil {
		t.Fatalf("Build tiny transit-stub: %v", err)
	}
	if hops := pathLength(d.Net, d.Ingress[0].ID(), d.Victim.ID()); hops <= 0 {
		t.Fatal("ingress cannot reach victim in tiny transit-stub domain")
	}
}

func TestBuildMultiHomedVictim(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 16
	cfg.ExtraChords = 4
	cfg.MultiHomedVictim = true
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(5))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(d.VictimHomes) != 2 {
		t.Fatalf("victim homes = %d, want 2", len(d.VictimHomes))
	}
	if d.VictimHomes[0] != d.LastHop {
		t.Fatal("first victim home must be the last-hop router")
	}
	if d.VictimHomes[0] == d.VictimHomes[1] {
		t.Fatal("victim homes must be distinct routers")
	}
	for _, home := range d.VictimHomes {
		if d.Net.LinkBetween(d.Victim.ID(), home.ID()) == nil {
			t.Fatalf("victim has no link to home %s", home)
		}
	}
}

func TestBuildExtraVictims(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 16
	cfg.ExtraChords = 4
	cfg.ExtraVictims = 2
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(5))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(d.ExtraVictims) != 2 {
		t.Fatalf("extra victims = %d, want 2", len(d.ExtraVictims))
	}
	seen := map[netsim.IP]bool{d.Victim.PrimaryIP(): true}
	routers := map[netsim.NodeID]bool{d.LastHop.ID(): true}
	for _, v := range d.ExtraVictims {
		if seen[v.PrimaryIP()] {
			t.Fatalf("duplicate victim address %v", v.PrimaryIP())
		}
		seen[v.PrimaryIP()] = true
		if routers[v.AccessRouter()] {
			t.Fatalf("extra victim %s shares a last-hop router", v)
		}
		routers[v.AccessRouter()] = true
		if hops := pathLength(d.Net, d.Ingress[0].ID(), v.ID()); hops <= 0 {
			t.Fatalf("ingress cannot reach extra victim %s", v)
		}
	}
}

func TestBuildRejectsExtraVictimOverflow(t *testing.T) {
	// Build must enforce the address-block cap itself: direct callers do
	// not necessarily go through Config.Validate.
	cfg := DefaultConfig()
	cfg.ExtraVictims = 251
	if _, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(1)); !errors.Is(err, ErrConfig) {
		t.Fatalf("want ErrConfig, got %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := DefaultTransitStubConfig().Validate(); err != nil {
		t.Fatalf("default transit-stub config invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few routers", func(c *Config) { c.NumRouters = 1 }},
		{"unknown style", func(c *Config) { c.Style = Style(9) }},
		{"negative ingress", func(c *Config) { c.NumIngress = -1 }},
		{"too many ingress", func(c *Config) { c.NumIngress = c.NumRouters }},
		{"negative chords", func(c *Config) { c.ExtraChords = -1 }},
		{"negative transit", func(c *Config) { c.TransitRouters = -1 }},
		{"transit too large", func(c *Config) { c.Style = StyleTransitStub; c.TransitRouters = c.NumRouters }},
		{"negative clients", func(c *Config) { c.ClientsPerIngress = -1 }},
		{"hosts per ingress past MaxDegree", func(c *Config) { c.ClientsPerIngress = netsim.MaxDegree - 1 - c.ZombiesPerIngress }},
		{"zero core bandwidth", func(c *Config) { c.CoreLink.BandwidthBps = 0 }},
		{"negative access delay", func(c *Config) { c.AccessLink.Delay = -sim.Millisecond }},
		{"zero victim queue", func(c *Config) { c.VictimLink.QueueLen = 0 }},
		// Each of these used to validate and then run with transmission
		// times or arrival keys wrapped past sim.Time's range.
		{"NaN access bandwidth", func(c *Config) { c.AccessLink.BandwidthBps = math.NaN() }},
		{"infinite core bandwidth", func(c *Config) { c.CoreLink.BandwidthBps = math.Inf(1) }},
		{"1e-300 b/s access bandwidth", func(c *Config) { c.AccessLink.BandwidthBps = 1e-300 }},
		{"victim delay near the end of time", func(c *Config) { c.VictimLink.Delay = math.MaxInt64 - 10 }},
		{"full queue drains past the horizon", func(c *Config) { c.CoreLink.BandwidthBps, c.CoreLink.QueueLen = 1, 1<<20 }},
		{"negative extra victims", func(c *Config) { c.ExtraVictims = -1 }},
		{"extra victims overflow address block", func(c *Config) { c.ExtraVictims = 251 }},
		{"multi-homed too small", func(c *Config) { c.NumRouters = 2; c.MultiHomedVictim = true }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
				t.Fatalf("want ErrConfig, got %v", err)
			}
		})
	}
}

// TestBuildRefusesNodePastMaxDegree pins that a build whose random wiring
// gives a node more links than netsim.MaxDegree fails with netsim.ErrDegree,
// which Validate cannot foresee: 1200 bystanders scattered over four routers.
func TestBuildRefusesNodePastMaxDegree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters, cfg.BystanderHosts = 4, 1200
	if _, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(1)); !errors.Is(err, netsim.ErrDegree) {
		t.Fatalf("want netsim.ErrDegree, got %v", err)
	}
	cfg.ClientsPerIngress = netsim.MaxDegree - 2 - cfg.ZombiesPerIngress
	cfg.NumRouters, cfg.ExtraChords, cfg.BystanderHosts = 8, 0, 0
	if _, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(1)); err != nil {
		t.Fatalf("ingress routers with %d links each: %v", netsim.MaxDegree, err)
	}
}

func TestStyleString(t *testing.T) {
	if StyleRing.String() != "ring" || StyleTransitStub.String() != "transit-stub" || Style(7).String() != "unknown" {
		t.Fatal("Style.String mismatch")
	}
}
