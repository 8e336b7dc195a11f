package netsim

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
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
// of thousands of: a route-column entry and an adjacency entry's links are
// 4-byte link ids, and a node's row locator is 8 bytes, on every GOARCH;
// experiment's TestStress50kBundleHeap pins the sum.
func TestAdjacencySizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"linkRef", unsafe.Sizeof(linkRef(0)), 4},
		{"adjEntry", unsafe.Sizeof(adjEntry{}), 12},
		{"adjRow", unsafe.Sizeof(adjRow{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("netsim.%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
