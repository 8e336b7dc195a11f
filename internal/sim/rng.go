package sim

import (
	"fmt"
	"math/rand"
)

// countingSource wraps the standard library generator and counts every draw
// so a checkpoint can record how far each stream has advanced. Int63 and
// Uint64 both advance the underlying generator by exactly one step, so the
// (seed, draws) pair alone pins the stream state.
type countingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.seed = seed
	c.draws = 0
}

// rngRegistry tracks every stream forked from one root, in creation order.
// Rebuilding a scenario deterministically recreates the same streams in the
// same order, so a checkpoint only needs each stream's seed and draw count.
// The registry also keeps the streams, and a recycled run bundle keeps its
// root from run to run: Reset cuts streams to the root and keeps its
// backing, which holds every stream an earlier run forked, so the i-th Fork
// of the next run reseeds the i-th of them in place instead of allocating a
// fresh 5 KB source. A reseeded stream is bit-identical to a
// new one: (*rand.Rand).Seed rebuilds the whole source from the seed alone,
// and countingSource.Seed zeroes its draw count.
type rngRegistry struct {
	streams []*RNG
}

// RNG wraps a seeded pseudo-random source with the distributions the traffic
// generators and the MAFIC dropper need. Each simulation owns exactly one RNG
// so that a scenario's seed fully determines its outcome.
type RNG struct {
	r   *rand.Rand
	cs  countingSource // embedded by value: one allocation per stream, not two
	reg *rngRegistry
}

// NewRNG returns a generator seeded with seed, rooting a fresh stream
// registry.
func NewRNG(seed int64) *RNG {
	return newRNGIn(&rngRegistry{}, seed)
}

func newRNGIn(reg *rngRegistry, seed int64) *RNG {
	g := &RNG{reg: reg, cs: countingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}}
	g.r = rand.New(&g.cs)
	reg.streams = append(reg.streams, g)
	return g
}

// Reset makes the root g what NewRNG(seed) returns, except that its registry
// keeps the streams it has forked for the next forks to reuse. Every stream
// an earlier fork returned is handed out again, so nothing may draw from one
// after Reset but the component its new fork goes to.
func (g *RNG) Reset(seed int64) {
	if g.reg.streams[0] != g {
		panic("sim: Reset of a forked stream")
	}
	g.r.Seed(seed)
	g.reg.streams = g.reg.streams[:1]
}

// Fork derives an independent generator from this one. Substreams keep
// component behaviour stable when unrelated components are added or removed
// from a scenario. The fork joins the parent's stream registry, reseeding the
// stream an earlier run forked at the same position if there is one.
func (g *RNG) Fork() *RNG {
	seed := g.r.Int63()
	reg := g.reg
	if n := len(reg.streams); n < cap(reg.streams) {
		if f := reg.streams[:n+1][n]; f != nil {
			f.r.Seed(seed)
			reg.streams = reg.streams[:n+1]
			return f
		}
	}
	return newRNGIn(reg, seed)
}

// StreamCount reports how many streams (the root plus every fork, forks of
// forks included) exist in this generator's registry.
func (g *RNG) StreamCount() int { return len(g.reg.streams) }

// StreamState returns the seed and draw count of stream i in creation order.
func (g *RNG) StreamState(i int) (seed int64, draws uint64) {
	cs := &g.reg.streams[i].cs
	return cs.seed, cs.draws
}

// FastForwardStream advances stream i to the checkpointed draw count after
// verifying that the rebuilt stream matches the snapshot: same seed, and not
// already past the target. Both conditions fail only when the rebuild
// diverged from the run that took the snapshot.
func (g *RNG) FastForwardStream(i int, seed int64, draws uint64) error {
	if i < 0 || i >= len(g.reg.streams) {
		return fmt.Errorf("sim: rng stream %d out of range (have %d)", i, len(g.reg.streams))
	}
	cs := &g.reg.streams[i].cs
	if cs.seed != seed {
		return fmt.Errorf("sim: rng stream %d seed mismatch: rebuilt %d, snapshot %d", i, cs.seed, seed)
	}
	if draws < cs.draws {
		return fmt.Errorf("sim: rng stream %d already at %d draws, snapshot has %d", i, cs.draws, draws)
	}
	for cs.draws < draws {
		cs.src.Uint64()
		cs.draws++
	}
	return nil
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0,n). It returns 0 when n <= 0.
func (g *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return g.r.Intn(n)
}

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Exponential returns a sample from an exponential distribution with the
// given mean. It returns 0 for non-positive means.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac]. It is
// used to desynchronise flow start times and sending intervals.
func (g *RNG) Jitter(base float64, frac float64) float64 {
	if frac <= 0 {
		return base
	}
	return base * (1 + (g.r.Float64()*2-1)*frac)
}
