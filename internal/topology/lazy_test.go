package topology

import (
	"testing"

	"mafic/internal/netsim"
	"mafic/internal/sim"
)

// refNextHops is the routing reference: a textbook breadth-first search from
// dest over Network.Neighbors in which the first node to discover a node
// becomes its next hop toward dest. It shares nothing with the network's
// route computation (no back links, no aggregation, no memo) and sees faults
// the way Neighbors reports them. Unreached nodes keep NoNode; dest maps to itself.
func refNextHops(net *netsim.Network, dest netsim.NodeID) []netsim.NodeID {
	hops := make([]netsim.NodeID, net.NodeCount())
	for i := range hops {
		hops[i] = netsim.NoNode
	}
	hops[dest] = dest
	for queue := []netsim.NodeID{dest}; len(queue) > 0; queue = queue[1:] {
		for _, nb := range net.Neighbors(queue[0]) {
			if hops[nb] == netsim.NoNode {
				hops[nb] = queue[0]
				queue = append(queue, nb)
			}
		}
	}
	return hops
}

// requireReferenceNextHops compares, for every ordered pair of distinct
// nodes, hosts and routers alike on both sides, the link at forwards on
// toward dest with LinkBetween(at, reference next hop) — nil where the
// reference has none, and a link from at to that hop where it has one, which
// pins the resolution of link ids too — and NextHop(at, dest) with the
// reference next hop. A
// crashed router forwards nothing, so its link is not asked for. NextHop
// leaves out a host destination seen from a router it attaches to: that hop
// is the access link itself and forwarding never looks it up (a single-homed
// host's slot holds its router's column, which says nothing about the
// router's own last hop).
func requireReferenceNextHops(t *testing.T, when string, net *netsim.Network) {
	t.Helper()
	n := netsim.NodeID(net.NodeCount())
	for dest := netsim.NodeID(0); dest < n; dest++ {
		want := refNextHops(net, dest)
		for at := netsim.NodeID(0); at < n; at++ {
			if at == dest {
				continue
			}
			var wantLink *netsim.Link
			if want[at] != netsim.NoNode {
				wantLink = net.LinkBetween(at, want[at])
				if wantLink == nil || wantLink.From() != at || wantLink.To() != want[at] {
					t.Fatalf("%s: LinkBetween(%d, %d) = %v", when, at, want[at], wantLink)
				}
			}
			if got := forwardingLink(net, at, dest); got != wantLink && !net.RouterDown(at) {
				t.Fatalf("%s: %d forwards toward %d on %v, reference BFS says %v", when, at, dest, got, wantLink)
			}
			if net.Host(dest) != nil && net.LinkBetween(at, dest) != nil {
				continue
			}
			if got := net.NextHop(at, dest); got != want[at] {
				t.Fatalf("%s: next hop from %d toward %d is %d, reference BFS says %d", when, at, dest, got, want[at])
			}
		}
	}
}

// forwardingLink is the link a packet at node at addressed to node dest
// leaves on, decided the way Router.route decides it: the attachment link
// first if dest is a host (only hosts own addresses), then the demand-driven
// column.
func forwardingLink(net *netsim.Network, at, dest netsim.NodeID) *netsim.Link {
	if net.Host(dest) != nil {
		if l := net.AttachmentLink(at, dest); l != nil {
			return l
		}
	}
	return net.RouteLink(at, dest)
}

// TestLazyForwardingMatchesEager checks the routing invariant exhaustively:
// the lazily materialized columns against next hops computed eagerly, for all
// pairs, by the reference BFS. On a ring with chords and on a transit-stub
// domain, each with a multi-homed victim and extra victims, every node's next
// hop and forwarding link toward every other node are the reference's —
// after the build, after links and a router are added to the built domain,
// with one direction of a loaded link down, with a core link cut, with a
// router crashed on top of that, and after both heal.
func TestLazyForwardingMatchesEager(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 32
	cfg.ExtraVictims = 2
	cfg.MultiHomedVictim = true

	for _, style := range []Style{StyleRing, StyleTransitStub} {
		cfg := cfg
		cfg.Style = style
		d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(7))
		if err != nil {
			t.Fatalf("style %v: build: %v", style, err)
		}
		net := d.Net
		check := func(when string) {
			t.Helper()
			requireReferenceNextHops(t, style.String()+" "+when, net)
		}
		check("as built")

		// A shortcut across the core and a router the build never saw.
		a, b := d.Ingress[1], d.LastHop
		if err := net.ConnectDuplex(a.ID(), b.ID(), cfg.CoreLink); err != nil {
			t.Fatal(err)
		}
		extra := net.AddRouter()
		if err := net.ConnectDuplex(extra.ID(), d.Ingress[1].ID(), cfg.CoreLink); err != nil {
			t.Fatal(err)
		}
		check("after post-build connects")

		// One direction of a link on the way to the victim goes down. The
		// BFS still reaches its upstream end over the reverse direction, so
		// the down link stays in the column, as LinkBetween answers it.
		victim := d.Victim.ID()
		var loaded *netsim.Link
		for _, r := range d.Routers {
			if l := forwardingLink(net, r.ID(), victim); l != nil && net.Router(l.To()) != nil {
				loaded = l
				break
			}
		}
		if loaded == nil {
			t.Fatalf("style %v: no router forwards toward the victim over a core link", style)
		}
		loaded.SetDown(true)
		check("with one direction of a loaded link down")
		if got := forwardingLink(net, loaded.From(), victim); got != loaded {
			t.Fatalf("style %v: with %v down, %d forwards toward the victim on %v", style, loaded, loaded.From(), got)
		}
		loaded.SetDown(false)

		// Cut the shortcut, both directions, as a cable cut is.
		net.LinkBetween(a.ID(), b.ID()).SetDown(true)
		net.LinkBetween(b.ID(), a.ID()).SetDown(true)
		check("with a core link down")

		crashed := d.VictimHomes[1]
		if err := net.FailRouter(crashed.ID()); err != nil {
			t.Fatal(err)
		}
		check("with a victim home crashed")

		net.LinkBetween(a.ID(), b.ID()).SetDown(false)
		net.LinkBetween(b.ID(), a.ID()).SetDown(false)
		if err := net.RestoreRouter(crashed.ID()); err != nil {
			t.Fatal(err)
		}
		check("healed")
	}
}

// TestLazyForwardingAfterShrinkingRebuild checks the routing invariant where
// link ids are reused. A link's id is its carve position, and a rebuild on the
// arena's reset network carves from the first position again, so a rebuild
// with fewer links than the build before leaves ids past its own links naming
// the last build's links in the retained chunks. Every column the first build
// materialized must be gone, and every forwarding link must be the reference
// BFS's — after the smaller rebuild, after post-build connects that re-carve a
// router's adjacency row at the end of the network's row storage, and with one
// direction of a loaded link down.
func TestLazyForwardingAfterShrinkingRebuild(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 48
	cfg.ExtraVictims = 2
	cfg.MultiHomedVictim = true
	arena := NewArena()
	sched, rng := sim.NewScheduler(), sim.NewRNG(11)
	d, err := arena.Build(cfg, sched, rng)
	if err != nil {
		t.Fatal(err)
	}
	requireReferenceNextHops(t, "the larger build", d.Net)
	bigLinks, bigColumns := d.Net.LinkTotal(), d.Net.RouteColumns()

	cfg.NumRouters = 24
	if d, err = arena.Build(cfg, sched, rng); err != nil {
		t.Fatal(err)
	}
	net := d.Net
	if net.LinkTotal() >= bigLinks || net.RouteColumns() != 0 || bigColumns == 0 {
		t.Fatalf("rebuild: %d links after %d, %d columns resident after %d", net.LinkTotal(), bigLinks, net.RouteColumns(), bigColumns)
	}
	requireReferenceNextHops(t, "the smaller rebuild", net)

	// Connect one router to others until its row has outgrown eight
	// entries: whatever its degree was, the row re-carves at least once.
	hub := d.Routers[5]
	for _, r := range d.Routers {
		if len(net.Neighbors(hub.ID())) > 8 {
			break
		}
		if r != hub && net.LinkBetween(hub.ID(), r.ID()) == nil {
			if err := net.ConnectDuplex(hub.ID(), r.ID(), cfg.CoreLink); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(net.Neighbors(hub.ID())); got <= 8 {
		t.Fatalf("the hub has %d neighbours, want more than 8", got)
	}
	requireReferenceNextHops(t, "after re-carving connects", net)

	victim := d.Victim.ID()
	var loaded *netsim.Link
	for _, r := range d.Routers {
		if l := forwardingLink(net, r.ID(), victim); l != nil && net.Router(l.To()) != nil {
			loaded = l
			break
		}
	}
	if loaded == nil {
		t.Fatal("no router forwards toward the victim over a core link")
	}
	loaded.SetDown(true)
	requireReferenceNextHops(t, "with one direction of a loaded link down", net)
}

// TestColumnMaterializedOncePerDestination pins the memoization contract: any
// number of lookups toward hosts behind the same router materialize exactly
// one column, and a second destination router costs exactly one more.
func TestColumnMaterializedOncePerDestination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	net := d.Net
	if net.RouteColumns() != 0 {
		t.Fatalf("fresh build already has %d columns", net.RouteColumns())
	}

	victim := d.Victim.ID()
	for _, r := range d.Routers {
		if r == d.LastHop {
			continue
		}
		if next := net.NextHop(r.ID(), victim); next == netsim.NoNode {
			t.Fatalf("router %d cannot reach the victim", r.ID())
		}
	}
	if got := net.RouteColumns(); got != 1 {
		t.Fatalf("victim lookups from every router materialized %d columns, want 1", got)
	}
	// The victim's attachment router itself resolves through the same
	// column (aliased, not re-materialized).
	net.NextHop(d.Routers[0].ID(), d.LastHop.ID())
	if got := net.RouteColumns(); got != 1 {
		t.Fatalf("attachment-router lookup materialized a second column (%d total)", got)
	}
	// A destination behind a different router costs exactly one more.
	client := d.Clients[0]
	net.NextHop(d.LastHop.ID(), client.ID())
	if got := net.RouteColumns(); got != 2 {
		t.Fatalf("second destination made column count %d, want 2", got)
	}

	entries, bytes := net.RouteStats()
	wantEntries := 2 * net.NodeCount()
	if entries != wantEntries || bytes != int64(entries) {
		t.Fatalf("RouteStats = (%d, %d), want (%d, %d)", entries, bytes, wantEntries, wantEntries)
	}
}

// TestColumnStorageReusedAcrossSweepPoints pins the arena half of the memo:
// rebuilding the same domain through one arena and touching the same
// destinations reuses the network's column storage, so a second build and its
// lookups allocate nothing.
func TestColumnStorageReusedAcrossSweepPoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24

	arena := NewArena()
	sched, rng := sim.NewScheduler(), sim.NewRNG(3)
	touch := func() {
		d, err := arena.Build(cfg, sched, rng)
		if err != nil {
			t.Fatal(err)
		}
		d.Net.NextHop(d.Routers[0].ID(), d.Victim.ID())
		d.Net.NextHop(d.LastHop.ID(), d.Clients[0].ID())
		if d.Net.RouteColumns() != 2 {
			t.Fatalf("expected 2 columns, got %d", d.Net.RouteColumns())
		}
	}
	touch()
	if allocs := testing.AllocsPerRun(3, touch); allocs != 0 {
		t.Fatalf("a rebuild through the arena and the same lookups allocated %v times, want 0", allocs)
	}
}

// TestLazyRouterRefreshesAfterPostBuildMutation verifies the network does not
// serve stale routes: mutating the graph after Build (new router, new links)
// both invalidates the memoized columns and forces the next materialization
// to see the new topology.
func TestLazyRouterRefreshesAfterPostBuildMutation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24
	cfg.ExtraChords = 0 // plain ring: path lengths are predictable
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	net := d.Net
	far := d.Routers[11] // halfway around the ring from the last hop (23)
	if next := net.NextHop(far.ID(), d.Victim.ID()); next == netsim.NoNode {
		t.Fatal("victim unreachable before mutation")
	}

	// Shortcut from the far router straight to the last hop, plus a brand
	// new router beyond the build's width.
	extra := net.AddRouter()
	link := cfg.CoreLink
	if err := net.ConnectDuplex(far.ID(), d.LastHop.ID(), link); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectDuplex(extra.ID(), far.ID(), link); err != nil {
		t.Fatal(err)
	}
	if net.RouteColumns() != 0 {
		t.Fatalf("mutation left %d stale columns", net.RouteColumns())
	}

	if next := net.NextHop(far.ID(), d.Victim.ID()); next != d.LastHop.ID() {
		t.Fatalf("far router ignores the new shortcut: next hop %d, want %d", next, d.LastHop.ID())
	}
	// The post-build router must be routable both as origin and as
	// destination (this used to index past the stale parent table).
	if next := net.NextHop(extra.ID(), d.Victim.ID()); next != far.ID() {
		t.Fatalf("new router cannot reach the victim: next hop %d, want %d", next, far.ID())
	}
	if next := net.NextHop(d.LastHop.ID(), extra.ID()); next != far.ID() {
		t.Fatalf("no route toward the new router: next hop %d, want %d", next, far.ID())
	}
}

// TestMultiHomedHostGetsDedicatedColumn verifies level-1 aggregation treats a
// dual-homed victim as its own destination rather than folding it onto either
// home, which would bias the tie-break between its two access links.
func TestMultiHomedHostGetsDedicatedColumn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRouters = 24
	cfg.MultiHomedVictim = true
	d, err := Build(cfg, sim.NewScheduler(), sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.VictimHomes) != 2 {
		t.Fatalf("victim has %d homes, want 2", len(d.VictimHomes))
	}
	net := d.Net
	// Route toward one of the homes first, then toward the victim: the
	// victim must not alias the home's column.
	net.NextHop(d.Routers[2].ID(), d.VictimHomes[0].ID())
	if net.RouteColumns() != 1 {
		t.Fatalf("home lookup made %d columns", net.RouteColumns())
	}
	net.NextHop(d.Routers[2].ID(), d.Victim.ID())
	if net.RouteColumns() != 2 {
		t.Fatalf("multi-homed victim shared a home's column (%d columns total)", net.RouteColumns())
	}
}
