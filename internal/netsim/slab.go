package netsim

import "iter"

// slab hands out objects, or short contiguous runs of them, from
// chunk-allocated arrays, so domain construction costs O(objects/chunk)
// allocations. Chunks are never reallocated, which keeps every handed-out
// pointer stable, and never freed: rewound makes the same chunks available
// again, in carve order, to the network's next build.
//
// take does not zero what it hands out; see "Reset and ownership" in the
// package documentation for why no carve site needs it to.
type slab[T any] struct {
	// chunks is every chunk ever carved, in carve order.
	chunks [][]T
	// cur is the chunk being carved from and used how much of it is taken;
	// the chunks behind cur are taken whole, the ones ahead not at all.
	cur  int
	used int
}

// take returns a run of n contiguous elements (length and capacity n): from
// the chunk being carved if it has room, else from the next retained chunk
// that has, else from a new chunk of chunkSize elements (n if that is more).
// What is left of a chunk that was too short is not handed out in this build.
func (s *slab[T]) take(n, chunkSize int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; len(c)-s.used >= n {
			run := c[s.used : s.used+n : s.used+n]
			s.used += n
			return run
		}
	}
	s.chunks = append(s.chunks, make([]T, max(n, chunkSize)))
	s.used = n
	return s.chunks[s.cur][:n:n]
}

// takeOne carves one element from a chunk of chunkSize and returns it with
// its carve position, which at resolves: a slab that only ever carves one
// element at a time, always with the same chunkSize, fills every chunk and
// skips none, so the position is a chunk index and an offset in it.
func (s *slab[T]) takeOne(chunkSize int) (*T, uint) {
	e := &s.take(1, chunkSize)[0]
	return e, uint(s.cur*chunkSize + s.used - 1)
}

// at returns the element takeOne carved at position i.
func (s *slab[T]) at(i, chunkSize uint) *T {
	return &s.chunks[i/chunkSize][i%chunkSize]
}

// taken yields the part of each chunk handed out since the slab was last
// rewound: O(what was taken), however many chunks are retained beyond it.
func (s *slab[T]) taken() iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		for i := 0; i <= s.cur && i < len(s.chunks); i++ {
			c := s.chunks[i]
			if i == s.cur {
				c = c[:s.used]
			}
			if !yield(c) {
				return
			}
		}
	}
}

// rewound returns the slab with every chunk it holds available again.
func (s slab[T]) rewound() slab[T] {
	return slab[T]{chunks: s.chunks}
}
