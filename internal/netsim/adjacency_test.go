package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mafic/internal/sim"
)

var adjLinkCfg = LinkConfig{BandwidthBps: 1e9, Delay: sim.Millisecond, QueueLen: 16}

// buildAdjNet wires a small graph: a ring of routers with a few chords.
// Reserve is called with the given budget (which tests deliberately
// under-shoot).
func buildAdjNet(t *testing.T, routers, reserve int) (*Network, []*Router) {
	t.Helper()
	n := New(sim.NewScheduler(), sim.NewRNG(7))
	n.Reserve(reserve)
	rs := make([]*Router, routers)
	for i := range rs {
		rs[i] = n.AddRouter()
	}
	for i := range rs {
		if err := n.ConnectDuplex(rs[i].ID(), rs[(i+1)%routers].ID(), adjLinkCfg); err != nil {
			t.Fatalf("ring: %v", err)
		}
	}
	// A few chords, inserted out of ascending order so insertion has to
	// shift within rows.
	for _, c := range [][2]int{{0, routers / 2}, {1, routers - 2}, {3, routers/2 + 2}} {
		if c[0] == c[1] || n.LinkBetween(rs[c[0]].ID(), rs[c[1]].ID()) != nil {
			continue
		}
		if err := n.ConnectDuplex(rs[c[0]].ID(), rs[c[1]].ID(), adjLinkCfg); err != nil {
			t.Fatalf("chord: %v", err)
		}
	}
	return n, rs
}

// linkMirror is the adjacency reference: the links the test connected, keyed
// by (from, to). It shares nothing with the sorted rows it is compared with.
type linkMirror map[[2]NodeID]*Link

// neighbors lists from's live targets in ascending order, the slow way.
func (m linkMirror) neighbors(n *Network, from NodeID) []NodeID {
	var out []NodeID
	if n.RouterDown(from) {
		return out
	}
	for key, l := range m {
		if key[0] == from && !l.Down() && !n.RouterDown(key[1]) {
			out = append(out, key[1])
		}
	}
	slices.Sort(out)
	return out
}

// check compares the network's adjacency answers with the mirror's for every
// ordered pair of IDs (one below and one past the node range included) and
// for every node's neighbour list.
func (m linkMirror) check(t *testing.T, n *Network, when string) {
	t.Helper()
	count := NodeID(n.NodeCount())
	for a := NodeID(-1); a <= count; a++ {
		for b := NodeID(-1); b <= count; b++ {
			if got, want := n.LinkBetween(a, b), m[[2]NodeID{a, b}]; got != want {
				t.Fatalf("%s: LinkBetween(%d,%d) = %v, mirror has %v", when, a, b, got, want)
			}
		}
		if got, want := n.Neighbors(a), m.neighbors(n, a); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, mirror has %v", when, a, got, want)
		}
	}
	var visited [][2]NodeID
	n.ForEachLink(func(l *Link) {
		key := [2]NodeID{l.From(), l.To()}
		if m[key] != l {
			t.Fatalf("%s: ForEachLink yields %v, mirror has %v there", when, l, m[key])
		}
		visited = append(visited, key)
	})
	if len(visited) != len(m) || n.LinkTotal() != len(m) {
		t.Fatalf("%s: ForEachLink visited %d links, LinkTotal %d, mirror has %d", when, len(visited), n.LinkTotal(), len(m))
	}
	if !slices.IsSortedFunc(visited, func(x, y [2]NodeID) int { return slices.Compare(x[:], y[:]) }) {
		t.Fatalf("%s: ForEachLink order is not ascending (from, to)", when)
	}
}

// TestSparseDenseAdjacencyEquivalent is the structural property test behind
// the sorted adjacency rows, sparse storage held to a mirror that answers for
// every pair of nodes: on seeded random graphs — reservations that under-
// and over-shoot or are missing, nodes added after links exist, links
// connected in random order, one hub whose row outgrows sparseRowCap several
// times over — every Connect is mirrored into a map, a connect the mirror
// holds already must be refused as a duplicate, and LinkBetween, Neighbors
// and ForEachLink must agree with the mirror throughout, with links down and
// a router crashed as well.
func TestSparseDenseAdjacencyEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(sim.NewScheduler(), sim.NewRNG(seed))
		total := 6 + rng.Intn(60)
		if r := rng.Intn(3); r > 0 {
			n.Reserve(total * r / 2) // half the final size, or all of it
		}
		mirror := linkMirror{}
		var routers []NodeID
		addNodes := func(k int) {
			for ; k > 0; k-- {
				if rng.Intn(4) == 0 {
					n.AddHost(IP(0x0a000000 + n.NodeCount()))
				} else {
					routers = append(routers, n.AddRouter().ID())
				}
			}
		}
		connect := func(a, b NodeID) {
			_, dup := mirror[[2]NodeID{a, b}]
			_, dupBack := mirror[[2]NodeID{b, a}]
			if duplex := rng.Intn(2) == 0; duplex {
				err := n.ConnectDuplex(a, b, adjLinkCfg)
				if refused := a == b || dup || dupBack; refused != errors.Is(err, ErrDuplicateLink) {
					t.Fatalf("seed %d: ConnectDuplex(%d,%d) = %v, mirror says duplicate=%v", seed, a, b, err, refused)
				}
				if err == nil {
					mirror[[2]NodeID{a, b}] = n.LinkBetween(a, b)
					mirror[[2]NodeID{b, a}] = n.LinkBetween(b, a)
				}
				return
			}
			l, err := n.Connect(a, b, adjLinkCfg)
			if dup != errors.Is(err, ErrDuplicateLink) {
				t.Fatalf("seed %d: Connect(%d,%d) = %v, mirror says duplicate=%v", seed, a, b, err, dup)
			}
			if err == nil {
				mirror[[2]NodeID{a, b}] = l
			}
		}
		addNodes(total / 2)
		for k := 2 * total; k > 0; k-- {
			connect(NodeID(rng.Intn(n.NodeCount())), NodeID(rng.Intn(n.NodeCount())))
		}
		mirror.check(t, n, "half built")
		addNodes(total - total/2) // past the reservation on two seeds in three
		hub := NodeID(rng.Intn(n.NodeCount()))
		for k := 0; k < 5*sparseRowCap; k++ {
			connect(hub, NodeID(rng.Intn(n.NodeCount())))
		}
		for k := 2 * total; k > 0; k-- {
			connect(NodeID(rng.Intn(n.NodeCount())), NodeID(rng.Intn(n.NodeCount())))
		}
		mirror.check(t, n, "built")

		for _, l := range mirror {
			if rng.Intn(8) == 0 {
				l.SetDown(true)
			}
		}
		if len(routers) > 0 {
			if err := n.FailRouter(routers[rng.Intn(len(routers))]); err != nil {
				t.Fatal(err)
			}
		}
		mirror.check(t, n, "with faults")
	}
}

// TestCarvingPastReservation pins that rows for nodes added after the Reserve
// budget is exhausted are still carved from the network's one row array,
// which grows geometrically past the reservation, so over-budget wiring does
// not fall back to an allocation per row.
func TestCarvingPastReservation(t *testing.T) {
	const reserve, final = 4, 96
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	n.Reserve(reserve)
	rs := make([]*Router, 0, final)
	for i := 0; i < reserve; i++ {
		rs = append(rs, n.AddRouter())
	}
	// Carve rows before the budget is exhausted.
	for i := 0; i+1 < reserve; i++ {
		if err := n.ConnectDuplex(rs[i].ID(), rs[i+1].ID(), adjLinkCfg); err != nil {
			t.Fatalf("reserved connect: %v", err)
		}
	}
	// Exhaust the budget, then wire the over-budget routers.
	for i := reserve; i < final; i++ {
		rs = append(rs, n.AddRouter())
	}
	// Wiring past the budget is not idempotent, so AllocsPerRun (which
	// re-runs its body as a warm-up) cannot measure it; count mallocs
	// around the single pass instead.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := reserve - 1; i+1 < final; i++ {
		if err := n.ConnectDuplex(rs[i].ID(), rs[i+1].ID(), adjLinkCfg); err != nil {
			t.Fatalf("over-budget connect: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > 32 {
		t.Errorf("over-budget wiring cost %d allocations; rows are not carved from the row array", allocs)
	}
	for i := 0; i+1 < final; i++ {
		if n.LinkBetween(rs[i].ID(), rs[i+1].ID()) == nil {
			t.Fatalf("link %d->%d missing after over-budget growth", i, i+1)
		}
		if n.LinkBetween(rs[i+1].ID(), rs[i].ID()) == nil {
			t.Fatalf("link %d->%d missing after over-budget growth", i+1, i)
		}
	}
}

// TestSparseLookupZeroAlloc pins that the per-hop adjacency lookups never
// allocate: LinkBetween and a buffer-reusing AppendNeighbors both run on the
// forwarding path.
func TestSparseLookupZeroAlloc(t *testing.T) {
	n, rs := buildAdjNet(t, 24, 24)
	buf := make([]NodeID, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range rs {
			if n.LinkBetween(rs[i].ID(), rs[(i+1)%len(rs)].ID()) == nil {
				t.Fatal("ring link missing")
			}
			buf = n.AppendNeighbors(buf[:0], rs[i].ID())
			if len(buf) < 2 {
				t.Fatal("ring router has fewer than 2 neighbours")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("per-hop lookups allocated %.1f times per run, want 0", allocs)
	}
}

// TestAdjacencySizes pins the entries a 50 000-router domain holds hundreds
// of thousands of: an adjacency entry is its target and a 24-bit link id
// packed with a one-byte back position, 8 bytes; a route-column entry is one
// byte, and a node's row locator and node-table entry are 4 bytes each, on
// every GOARCH; experiment's TestStress50kBundleHeap pins the sum.
func TestAdjacencySizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"linkRef", unsafe.Sizeof(linkRef(0)), 4},
		{"rowPos", unsafe.Sizeof(rowPos(0)), 1},
		{"adjEntry", unsafe.Sizeof(adjEntry{}), 8},
		{"adjRow", unsafe.Sizeof(adjRow(0)), 4},
		{"nodeRef", unsafe.Sizeof(nodeRef(0)), 4},
	} {
		if c.got != c.want {
			t.Errorf("netsim.%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestStructSizes pins the structs a domain is made of. Packets come from the
// network's pool in chunks, and the quick 50 000-router domain has about
// 130 000 links and 50 000 routers, so a word on any of them shows in the
// benchmark's peak_rss_mb and alloc_bytes_per_job: on paper-table2 through
// the packet chunks, on scale-50k through the router and link slabs. Packet
// carries the in-flight chain that replaced the per-packet transmit-done event
// without having grown for it. A link is its narrow endpoints and a pointer
// to its run state, which reaches its configuration and network; a router is
// its narrow id, its down flag and a pointer to its record, which holds its
// network, filter chain and counters; both point at a shared zero record
// until the first write, and a quick stress-50k run writes to 291 of its
// links. Host rides along so that it, too, cannot grow back a name. The
// limits are for 64-bit words; a 32-bit build (GOARCH=386) holds Link and
// Router to 12 bytes.
func TestStructSizes(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	small := uintptr(16)
	if word == 4 {
		small = 12
	}
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"Packet", unsafe.Sizeof(Packet{}), 120},
		{"Link", unsafe.Sizeof(Link{}), small},
		{"Router", unsafe.Sizeof(Router{}), small},
		{"Host", unsafe.Sizeof(Host{}), 160},
	} {
		if c.got > c.max {
			t.Errorf("netsim.%s is %d bytes, want at most %d", c.name, c.got, c.max)
		}
	}
}

// checkBackPositions checks every row entry's back position against the
// rows themselves: zero where the target has no link back, and otherwise the
// place of that link's entry in the target's row, whose back position names
// the entry in turn.
func checkBackPositions(t *testing.T, n *Network, when string) {
	t.Helper()
	for a := NodeID(0); a < NodeID(n.NodeCount()); a++ {
		for p, e := range n.row(a) {
			to := NodeID(e.to)
			if n.LinkBetween(to, a) == nil {
				if e.back() != 0 {
					t.Fatalf("%s: %d->%d has back position %d and no reverse", when, a, to, e.back())
				}
				continue
			}
			rev := n.entryAt(to, e.back())
			if rev == nil || NodeID(rev.to) != a || rev.back() != rowPos(p+1) {
				t.Fatalf("%s: %d->%d, entry %d of its row, has back position %d naming %+v in %d's row", when, a, to, p+1, e.back(), rev, to)
			}
		}
	}
}

// TestBackPositionsFollowInserts is the property test behind the one-byte
// back positions and route-column entries: on seeded random graphs built in
// random order — so inserts land before existing entries and shift them, rows
// outgrow their capacity and are re-carved, simplex links are paired by a
// later Connect the other way, and a node links to itself — every entry's
// back position names its reverse entry, and every column entry resolves to
// LinkBetween(at, NextHop(at, dest)), for every pair of nodes.
func TestBackPositionsFollowInserts(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := New(sim.NewScheduler(), sim.NewRNG(seed))
		nodes := 12 + rng.Intn(24)
		for i := 0; i < nodes; i++ {
			if rng.Intn(5) == 0 {
				n.AddHost(IP(0x0a000000 + i))
			} else {
				n.AddRouter()
			}
		}
		// Random pairs, and a hub linked to every node (itself included),
		// so that its row re-carves twice or more, all in random order.
		hub := NodeID(rng.Intn(nodes))
		var pairs [][2]NodeID
		for k := 0; k < 2*nodes; k++ {
			pairs = append(pairs, [2]NodeID{NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))})
		}
		for b := NodeID(0); b < NodeID(nodes); b++ {
			pairs = append(pairs, [2]NodeID{hub, b})
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for k, p := range pairs {
			if rng.Intn(2) == 0 {
				_ = n.ConnectDuplex(p[0], p[1], adjLinkCfg)
			} else {
				_, _ = n.Connect(p[0], p[1], adjLinkCfg)
			}
			if k%7 == 0 {
				checkBackPositions(t, n, "building")
			}
		}
		if len(n.row(hub)) <= 2*sparseRowCap {
			t.Fatalf("seed %d: the hub has %d links, no second re-carve", seed, len(n.row(hub)))
		}
		checkBackPositions(t, n, "built")
		for dest := NodeID(0); dest < NodeID(nodes); dest++ {
			for at := NodeID(0); at < NodeID(nodes); at++ {
				if at == dest {
					continue
				}
				if got, want := n.RouteLink(at, dest), n.LinkBetween(at, n.NextHop(at, dest)); got != want {
					t.Fatalf("seed %d: %d forwards toward %d on %v, its next hop %d is over %v", seed, at, dest, got, n.NextHop(at, dest), want)
				}
			}
		}
	}
}

// TestDegreeBound pins MaxDegree: a node with MaxDegree outgoing links is
// refused one more by Connect and by ConnectDuplex from either side, with
// ErrDegree naming it, and nothing is installed; links into it are not
// bounded, and the last entry of its full row routes like any other.
func TestDegreeBound(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	hub := n.AddRouter().ID()
	spokes := make([]NodeID, MaxDegree+1)
	for i := range spokes {
		spokes[i] = n.AddRouter().ID()
	}
	for _, s := range spokes[:MaxDegree] {
		if err := n.ConnectDuplex(hub, s, adjLinkCfg); err != nil {
			t.Fatal(err)
		}
	}
	last, extra := spokes[MaxDegree-1], spokes[MaxDegree]
	version, links := n.TopoVersion(), n.LinkTotal()
	_, err := n.Connect(hub, extra, adjLinkCfg)
	for name, err := range map[string]error{
		"Connect":          err,
		"ConnectDuplex":    n.ConnectDuplex(hub, extra, adjLinkCfg),
		"ConnectDuplex in": n.ConnectDuplex(extra, hub, adjLinkCfg),
	} {
		if !errors.Is(err, ErrDegree) || !strings.Contains(err.Error(), fmt.Sprintf("node %d has %d", hub, MaxDegree)) {
			t.Errorf("%s past the bound = %v, want ErrDegree naming node %d", name, err, hub)
		}
	}
	if n.TopoVersion() != version || n.LinkTotal() != links || n.LinkBetween(extra, hub) != nil {
		t.Fatal("a refused link was installed")
	}
	if _, err := n.Connect(extra, hub, adjLinkCfg); err != nil {
		t.Fatalf("a link into the full node: %v", err)
	}
	if got, want := n.RouteLink(hub, last), n.LinkBetween(hub, last); got != want || want == nil {
		t.Errorf("the full row's last entry routes on %v, want %v", got, want)
	}
	if got, want := n.RouteLink(last, hub), n.LinkBetween(last, hub); got != want || want == nil {
		t.Errorf("the last spoke routes toward the full node on %v, want %v", got, want)
	}
	checkBackPositions(t, n, "full")
}

// TestLinkLimit pins the limits of the packed adjacency. A network holds at
// most maxLinks links, the most an entry's 24-bit link id addresses: the link
// count is seeded just below it, so the test carves three links, not
// millions, and past it Connect and ConnectDuplex refuse with ErrLinks before
// installing either direction or moving TopoVersion. A row's 24-bit offset
// needs no check of its own, because rows are carved within sparseRowCap
// entries per link: the bound holds after every insert of a hub re-carved up
// to MaxDegree and of rows carved for a single link, the most wasteful case,
// and makeRow round-trips the largest offset and length that allows.
func TestLinkLimit(t *testing.T) {
	n := New(sim.NewScheduler(), sim.NewRNG(1))
	a, b, c := n.AddRouter().ID(), n.AddRouter().ID(), n.AddRouter().ID()
	n.links = maxLinks - 2
	if _, err := n.Connect(a, b, adjLinkCfg); err != nil {
		t.Fatalf("a link below the limit: %v", err)
	}
	refused := func(when string, err error) {
		t.Helper()
		if !errors.Is(err, ErrLinks) {
			t.Errorf("%s = %v, want ErrLinks", when, err)
		}
	}
	version := n.TopoVersion()
	refused("ConnectDuplex one link below the limit", n.ConnectDuplex(b, c, adjLinkCfg))
	if n.LinkBetween(b, c) != nil || n.LinkBetween(c, b) != nil || n.links != maxLinks-1 || n.TopoVersion() != version {
		t.Fatal("a refused duplex link was half installed")
	}
	if _, err := n.Connect(b, a, adjLinkCfg); err != nil {
		t.Fatalf("the last link: %v", err)
	}
	version = n.TopoVersion()
	_, err := n.Connect(c, a, adjLinkCfg)
	refused("Connect at the limit", err)
	refused("ConnectDuplex at the limit", n.ConnectDuplex(a, c, adjLinkCfg))
	if n.LinkBetween(c, a) != nil || n.LinkBetween(a, c) != nil || n.links != maxLinks || n.TopoVersion() != version {
		t.Fatal("a refused link was installed")
	}
	checkBackPositions(t, n, "at the limit")
	if got, want := n.RouteLink(b, a), n.LinkBetween(b, a); got != want || want == nil {
		t.Errorf("the last link routes as %v, want %v", got, want)
	}

	n = New(sim.NewScheduler(), sim.NewRNG(1))
	hub := n.AddRouter().ID()
	for i := 0; i < MaxDegree; i++ {
		spoke := n.AddRouter().ID()
		for _, p := range [2][2]NodeID{{spoke, hub}, {hub, spoke}} {
			if _, err := n.Connect(p[0], p[1], adjLinkCfg); err != nil {
				t.Fatal(err)
			}
			if len(n.adj) > sparseRowCap*n.links {
				t.Fatalf("%d links carved %d entries, past %d a link", n.links, len(n.adj), sparseRowCap)
			}
		}
	}
	last := makeRow(sparseRowCap*maxLinks, MaxDegree)
	if last.off() != sparseRowCap*maxLinks || last.len() != MaxDegree {
		t.Errorf("a row at offset %d of length %d reads back offset %d, length %d", sparseRowCap*maxLinks, MaxDegree, last.off(), last.len())
	}
}
