package topology

import (
	"fmt"

	"mafic/internal/netsim"
)

// Arena holds the reusable storage behind Domain construction: the network
// itself (every router, host, link and pool packet, the adjacency, the route
// columns and the per-node tables — netsim.Network.Reset rewinds it) and the
// Domain, whose role slices (routers, ingress, hosts by kind) and dense
// host-to-ingress table each build truncates and refills. Parameter sweeps
// rebuild the topology at every point; building through one arena per worker
// lets those rebuilds reuse storage instead of re-growing it from nothing
// each time, and a warm rebuild allocates nothing. An arena retains the
// largest domain it has built.
//
// Ownership mirrors the netsim packet pool: a Domain built from an arena —
// its Net and everything carved from it included — remains valid only until
// the next Build call on the same arena, which recycles all of it. Builds
// that must outlive each other use separate arenas (or the package-level
// Build, which makes a fresh one). An Arena is not safe for concurrent use;
// give each goroutine its own.
type Arena struct {
	net    *netsim.Network
	domain Domain
	names  nameCache
}

// nameCache memoises the generated node names ("r17", "client3", ...) so
// rebuilds through the same arena hand out the same strings instead of
// reformatting one per node per build.
type nameCache struct {
	routers    []string
	clients    []string
	zombies    []string
	bystanders []string
	victims    []string
}

// name returns prefix+i, generating and caching any missing entries.
func name(list *[]string, prefix string, i int) string {
	for len(*list) <= i {
		*list = append(*list, fmt.Sprintf("%s%d", prefix, len(*list)))
	}
	return (*list)[i]
}

// NewArena returns an empty arena ready for Build.
func NewArena() *Arena { return &Arena{} }
