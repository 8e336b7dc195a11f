// Package loglog implements the Durand–Flajolet LogLog cardinality sketch
// with stochastic averaging and max-merge, the O(log log n) counting
// primitive the paper's set-union pushback technique is built on (Section II,
// references [2] and [3]).
//
// A sketch estimates the number of distinct 64-bit items added to it. Two
// sketches built with the same parameters can be merged bucket-wise by max,
// yielding a sketch of the union of the two item sets; the paper exploits
// this to compute |Si ∪ Dj| across routers without exchanging packet lists.
package loglog

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Errors returned by the package.
var (
	// ErrBucketCount is returned when the requested bucket count is not a
	// power of two or is out of the supported range.
	ErrBucketCount = errors.New("loglog: bucket count must be a power of two in [16, 65536]")
	// ErrIncompatible is returned when merging sketches with different
	// parameters.
	ErrIncompatible = errors.New("loglog: sketches have different bucket counts")
)

// DefaultBuckets is the default number of buckets (m). With m = 1024 the
// standard error of the LogLog estimate is roughly 1.30/sqrt(m) ≈ 4%.
const DefaultBuckets = 1024

// Sketch is a LogLog cardinality estimator. The zero value is not usable;
// use New.
type Sketch struct {
	m       int  // number of buckets, power of two
	p       uint // log2(m): number of hash bits used for bucket selection
	buckets []uint8
	adds    uint64
}

// New returns a sketch with m buckets. m must be a power of two between 16
// and 65536.
func New(m int) (*Sketch, error) {
	if m < 16 || m > 65536 || m&(m-1) != 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBucketCount, m)
	}
	return &Sketch{
		m:       m,
		p:       uint(bits.TrailingZeros(uint(m))),
		buckets: make([]uint8, m),
	}, nil
}

// MustNew is New for known-good parameters; it panics on error and is meant
// for package-level defaults and tests.
func MustNew(m int) *Sketch {
	s, err := New(m)
	if err != nil {
		panic(err)
	}
	return s
}

// Buckets reports the sketch's bucket count m.
func (s *Sketch) Buckets() int { return s.m }

// Adds reports how many items (not necessarily distinct) have been added.
func (s *Sketch) Adds() uint64 { return s.adds }

// Add records one item, identified by a 64-bit hash. Items must already be
// well-mixed (the packet-identity hashes the traffic-matrix layer feeds in
// are); Add applies an additional avalanche step defensively.
func (s *Sketch) Add(item uint64) {
	s.adds++
	h := mix64(item)
	// The low p bits pick the bucket (stochastic averaging); the rank is
	// the position of the first 1 bit in the remaining bits, counted from 1.
	bucket := h & uint64(s.m-1)
	rest := h >> s.p
	rank := s.maxRank()
	if rest != 0 {
		rank = uint8(bits.TrailingZeros64(rest)) + 1
	}
	if rank > s.buckets[bucket] {
		s.buckets[bucket] = rank
	}
}

// maxRank is the largest rank Add can record: all 64 − p remaining hash bits
// zero. With p ≥ 4 it is at most 61, which keeps every bucket below 128 — the
// estimation kernel's precondition.
func (s *Sketch) maxRank() uint8 { return uint8(64 - s.p + 1) }

// Estimate returns the estimated number of distinct items added. It applies
// the Durand–Flajolet LogLog estimator with small-range linear counting to
// stay accurate for sparse sketches (see kernel.go).
func (s *Sketch) Estimate() float64 {
	// An untouched sketch has every bucket at zero; linear counting would
	// return exactly 0, so skip the bucket scan. This makes per-epoch
	// estimation cheap on large domains where most routers are idle.
	if s.adds == 0 {
		return 0
	}
	sum, zeros := sumZeros(s.buckets)
	return estimate(s.m, sum, zeros)
}

// Merge folds other into s bucket-wise by max, so that s becomes a sketch of
// the union of both item sets. It fails if the sketches are incompatible.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil || other.m != s.m {
		return ErrIncompatible
	}
	for i, b := range other.buckets {
		if b > s.buckets[i] {
			s.buckets[i] = b
		}
	}
	s.adds += other.adds
	return nil
}

// Clone returns an independent copy of the sketch.
func (s *Sketch) Clone() *Sketch {
	cp := &Sketch{m: s.m, p: s.p, adds: s.adds, buckets: make([]uint8, s.m)}
	copy(cp.buckets, s.buckets)
	return cp
}

// Reset clears the sketch for reuse in the next measurement epoch.
func (s *Sketch) Reset() {
	for i := range s.buckets {
		s.buckets[i] = 0
	}
	s.adds = 0
}

// UnionEstimate estimates |A ∪ B| without modifying either sketch and without
// allocating: the bucket-wise maximum is summed as it is formed (kernel.go),
// so no union sketch is written. The result is bit-identical to merging the
// two into a third sketch and estimating that.
func UnionEstimate(a, b *Sketch) (float64, error) {
	if a == nil || b == nil || a.m != b.m {
		return 0, ErrIncompatible
	}
	// As in Estimate: two untouched sketches have an all-zero union.
	if a.adds == 0 && b.adds == 0 {
		return 0, nil
	}
	sum, zeros := unionSumZeros(a.buckets, b.buckets)
	return estimate(a.m, sum, zeros), nil
}

// UnionEstimateInto is UnionEstimate for callers that hold a scratch sketch
// from when the union had to be built somewhere. The scratch must still be
// compatible, but it is neither read nor written.
func UnionEstimateInto(scratch, a, b *Sketch) (float64, error) {
	if scratch == nil || a == nil || scratch.m != a.m {
		return 0, ErrIncompatible
	}
	return UnionEstimate(a, b)
}

// IntersectionEstimate estimates |A ∩ B| by inclusion–exclusion,
// |A| + |B| − |A ∪ B|, clamped at zero. This is exactly the transformation
// the paper uses to turn the traffic-matrix intersection into a union
// computation (Section II).
func IntersectionEstimate(a, b *Sketch) (float64, error) {
	union, err := UnionEstimate(a, b)
	if err != nil {
		return 0, err
	}
	est := a.Estimate() + b.Estimate() - union
	if est < 0 {
		est = 0
	}
	return est, nil
}

// RelativeStandardError returns the theoretical standard error of a LogLog
// sketch with m buckets (≈1.30/sqrt(m)).
func RelativeStandardError(m int) float64 {
	if m <= 0 {
		return math.Inf(1)
	}
	return 1.30 / math.Sqrt(float64(m))
}

// alpha returns the bias-correction constant for m buckets. The asymptotic
// LogLog constant is 0.39701; for the bucket counts used here the asymptote
// is accurate to well under the sketch's own standard error.
func alpha(m int) float64 {
	switch {
	case m <= 16:
		return 0.379
	case m <= 32:
		return 0.389
	case m <= 64:
		return 0.394
	default:
		return 0.39701
	}
}

// mix64 is the SplitMix64 finaliser, used to avalanche item identifiers so
// bucket selection and rank bits are independent even for sequential IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
