package topology

import (
	"runtime"
	"slices"
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// TestArenaReuseMatchesFreshBuild takes one arena through large → small →
// large → transit-stub → small — a stress-5k-sized ring, a table2-sized one,
// the large one again with a multi-homed victim and extra victims, a
// transit-stub domain, a tiny ring — and after every build compares the
// domain with a from-scratch Build of the same configuration and seed: reused
// storage, the network's included, must never leak state between sweep
// points. The small builds are also held to the reference BFS for every pair
// of nodes; the large ones compare forwarding links toward a host of each
// kind.
func TestArenaReuseMatchesFreshBuild(t *testing.T) {
	large := DefaultConfig()
	large.NumRouters = 5000
	large.ExtraChords = 1250

	table2 := DefaultConfig()

	largeVictims := large
	largeVictims.MultiHomedVictim = true
	largeVictims.ExtraVictims = 3
	largeVictims.BystanderHosts = 40

	stub := DefaultTransitStubConfig()
	stub.NumRouters = 48
	stub.ExtraVictims = 3
	stub.MultiHomedVictim = true

	tiny := DefaultConfig()
	tiny.NumRouters = 14
	tiny.ExtraChords = 3
	tiny.BystanderHosts = 5

	arena := NewArena()
	var stale []netsim.IP // addresses of the build before
	for i, step := range []struct {
		name string
		cfg  Config
	}{{"large", large}, {"table2", table2}, {"large+victims", largeVictims}, {"transit-stub", stub}, {"tiny", tiny}} {
		seed := int64(5 + i)
		got, err := arena.Build(step.cfg, sim.NewScheduler(), sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("%s: arena build: %v", step.name, err)
		}
		want, err := Build(step.cfg, sim.NewScheduler(), sim.NewRNG(seed))
		if err != nil {
			t.Fatalf("%s: fresh build: %v", step.name, err)
		}
		requireSameDomain(t, step.name, got, want, stale)
		if step.cfg.NumRouters < 100 {
			requireReferenceNextHops(t, step.name+" on the arena", got.Net)
		}

		stale = stale[:0]
		got.Net.ForEachNode(func(_ netsim.NodeID, _ *netsim.Router, h *netsim.Host) {
			if h != nil {
				stale = append(stale, h.IPs()...)
			}
		})
	}
}

// requireSameDomain compares two domains through everything they and their
// networks expose: roles, node IDs and names, address owners (those of
// the previous build on got's arena too), every adjacency row in order with
// its links' configuration and state, attachment links, TopoVersion and
// forwarding links toward a host of each kind.
func requireSameDomain(t *testing.T, step string, got, want *Domain, stale []netsim.IP) {
	t.Helper()
	gn, wn := got.Net, want.Net
	if gn.NodeCount() != wn.NodeCount() || gn.LinkTotal() != wn.LinkTotal() || gn.TopoVersion() != wn.TopoVersion() ||
		gn.RouteColumns() != 0 || gn.FaultDropped() != 0 {
		t.Fatalf("%s: network has %d nodes, %d links, TopoVersion %d, %d columns, %d fault drops; fresh build %d, %d, %d, 0, 0",
			step, gn.NodeCount(), gn.LinkTotal(), gn.TopoVersion(), gn.RouteColumns(), gn.FaultDropped(),
			wn.NodeCount(), wn.LinkTotal(), wn.TopoVersion())
	}

	routerIDs := func(rs []*netsim.Router) []netsim.NodeID {
		ids := make([]netsim.NodeID, len(rs))
		for i, r := range rs {
			ids[i] = r.ID()
		}
		return ids
	}
	hostIDs := func(hs []*netsim.Host) []netsim.NodeID {
		ids := make([]netsim.NodeID, len(hs))
		for i, h := range hs {
			ids[i] = h.ID()
		}
		return ids
	}
	for _, role := range []struct {
		name      string
		got, want []netsim.NodeID
	}{
		{"routers", routerIDs(got.Routers), routerIDs(want.Routers)},
		{"ingress", routerIDs(got.Ingress), routerIDs(want.Ingress)},
		{"victim homes", routerIDs(got.VictimHomes), routerIDs(want.VictimHomes)},
		{"last hop", routerIDs([]*netsim.Router{got.LastHop}), routerIDs([]*netsim.Router{want.LastHop})},
		{"victim", hostIDs([]*netsim.Host{got.Victim}), hostIDs([]*netsim.Host{want.Victim})},
		{"extra victims", hostIDs(got.ExtraVictims), hostIDs(want.ExtraVictims)},
		{"clients", hostIDs(got.Clients), hostIDs(want.Clients)},
		{"zombies", hostIDs(got.Zombies), hostIDs(want.Zombies)},
		{"bystanders", hostIDs(got.Bystanders), hostIDs(want.Bystanders)},
	} {
		if !slices.Equal(role.got, role.want) {
			t.Fatalf("%s: %s are nodes %v, fresh build %v", step, role.name, role.got, role.want)
		}
	}
	for _, r := range got.Routers {
		if got.Net.Router(r.ID()) != r {
			t.Fatalf("%s: domain router %d is not the network's", step, r.ID())
		}
	}

	for id := netsim.NodeID(0); int(id) < gn.NodeCount(); id++ {
		gr, wr := gn.Router(id), wn.Router(id)
		gh, wh := gn.Host(id), wn.Host(id)
		switch {
		case (gr == nil) != (wr == nil) || (gh == nil) != (wh == nil) || (gr == nil) == (gh == nil):
			t.Fatalf("%s: node %d is router=%v host=%v, fresh build router=%v host=%v", step, id, gr != nil, gh != nil, wr != nil, wh != nil)
		case gr != nil:
			if gr.ID() != id || gr.Network() != gn || len(gr.Filters()) != 0 ||
				gr.Down() || gr.Forwarded() != 0 || gr.FilterDropped() != 0 || gr.FaultDropped() != 0 {
				t.Fatalf("%s: router %d is %v with %d filters, fresh build %v", step, id, gr, len(gr.Filters()), wr)
			}
		default:
			if gh.ID() != id || gh.Network() != gn || !slices.Equal(gh.IPs(), wh.IPs()) ||
				gh.AccessRouter() != wh.AccessRouter() || gh.Received() != 0 || gh.Sent() != 0 {
				t.Fatalf("%s: host %d is %v %v behind %d, fresh build %v %v behind %d", step, id, gh, gh.IPs(), gh.AccessRouter(), wh, wh.IPs(), wh.AccessRouter())
			}
			for _, ip := range gh.IPs() {
				if g, w := gn.Owner(ip), wn.Owner(ip); g != id || w != id {
					t.Fatalf("%s: %v of node %d belongs to node %d, fresh build %d", step, ip, id, g, w)
				}
			}
			if g, w := got.IngressOf(gh), want.IngressOf(wh); (g == nil) != (w == nil) || (g != nil && g.ID() != w.ID()) {
				t.Fatalf("%s: host %d enters through %v, fresh build %v", step, id, g, w)
			}
		}

		gnb, wnb := gn.Neighbors(id), wn.Neighbors(id)
		if !slices.Equal(gnb, wnb) {
			t.Fatalf("%s: node %d neighbours %v, fresh build %v", step, id, gnb, wnb)
		}
		for _, nb := range gnb {
			gl, wl := gn.LinkBetween(id, nb), wn.LinkBetween(id, nb)
			if gl == nil || gl.From() != id || gl.To() != nb || gl.Config() != wl.Config() ||
				gl.QueueLen() != 0 || gl.Sent() != 0 || gl.Dropped() != 0 || gl.FaultDropped() != 0 || gl.Down() {
				t.Fatalf("%s: link %d->%d is %v %+v (queued %d, sent %d, down %v), fresh build %+v", step, id, nb, gl, gl.Config(), gl.QueueLen(), gl.Sent(), gl.Down(), wl.Config())
			}
			if ga, wa := gn.AttachmentLink(id, nb), wn.AttachmentLink(id, nb); (ga == nil) != (wa == nil) || (ga != nil && ga != gl) {
				t.Fatalf("%s: attachment link %d->%d is %v, the adjacency holds %v, fresh build %v", step, id, nb, ga, gl, wa)
			}
		}
	}
	for _, ip := range stale {
		if g, w := gn.Owner(ip), wn.Owner(ip); g != w {
			t.Fatalf("%s: %v of the previous build belongs to node %d, fresh build %d", step, ip, g, w)
		}
	}

	dests := []netsim.NodeID{got.Victim.ID(), got.Clients[0].ID(), got.Bystanders[len(got.Bystanders)-1].ID(), got.Routers[0].ID()}
	for _, v := range got.ExtraVictims {
		dests = append(dests, v.ID())
	}
	for _, dest := range dests {
		for _, gr := range got.Routers {
			g, w := forwardingLink(gn, gr.ID(), dest), forwardingLink(wn, gr.ID(), dest)
			if (g == nil) != (w == nil) || (g != nil && (g.From() != gr.ID() || g.To() != w.To())) {
				t.Fatalf("%s: router %d forwards to %d on %v, fresh build on %v", step, gr.ID(), dest, g, w)
			}
		}
	}
	if g, w := gn.RouteColumns(), wn.RouteColumns(); g != w {
		t.Fatalf("%s: %d columns materialized, fresh build %d", step, g, w)
	}
}

// TestArenaBuildRouteScratchReused pins the allocation win: the second build
// through an arena must allocate substantially less than the first.
func TestArenaBuildRouteScratchReused(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24

	arena := NewArena()
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := arena.Build(cfg, sim.NewScheduler(), sim.NewRNG(1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	first := measure()
	second := measure()
	if second >= first {
		t.Fatalf("arena reuse saved nothing: first build %d mallocs, second %d", first, second)
	}
}
