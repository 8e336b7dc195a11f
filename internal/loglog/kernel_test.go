package loglog

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// scalarEstimate is the byte-at-a-time loop the word-wise kernel replaced,
// kept as its reference: the bucket sum accumulated in floating point, bucket
// by bucket, over a (or over the bucket-wise max of a and b when b is set).
func scalarEstimate(a, b []uint8) (est float64, sum, zeros int) {
	fsum, m := 0.0, float64(len(a))
	for i, v := range a {
		if b != nil && b[i] > v {
			v = b[i]
		}
		fsum += float64(v)
		sum += int(v)
		if v == 0 {
			zeros++
		}
	}
	raw := alpha(len(a)) * m * math.Exp2(fsum/m)
	if zeros > 0 && raw < 2.5*m {
		return m * math.Log(m/float64(zeros)), sum, zeros
	}
	return raw, sum, zeros
}

// checkKernel requires the kernel to agree with the scalar reference on a, on
// b and on their union: equal (sum, zeros), and equal bits out of Estimate
// and UnionEstimate on sketches holding those buckets.
func checkKernel(t *testing.T, name string, a, b []uint8) {
	t.Helper()
	sa, sb := MustNew(len(a)), MustNew(len(b))
	copy(sa.buckets, a)
	copy(sb.buckets, b)
	sa.adds, sb.adds = 1, 1

	for _, side := range []struct {
		s   *Sketch
		raw []uint8
	}{{sa, a}, {sb, b}} {
		want, wantSum, wantZeros := scalarEstimate(side.raw, nil)
		if sum, zeros := sumZeros(side.raw); sum != wantSum || zeros != wantZeros {
			t.Fatalf("%s m=%d: sumZeros = (%d, %d), scalar loop (%d, %d)", name, len(a), sum, zeros, wantSum, wantZeros)
		}
		if got := side.s.Estimate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s m=%d: Estimate = %v, scalar loop %v", name, len(a), got, want)
		}
	}
	want, wantSum, wantZeros := scalarEstimate(a, b)
	if sum, zeros := unionSumZeros(a, b); sum != wantSum || zeros != wantZeros {
		t.Fatalf("%s m=%d: unionSumZeros = (%d, %d), scalar loop (%d, %d)", name, len(a), sum, zeros, wantSum, wantZeros)
	}
	for _, pair := range [][2]*Sketch{{sa, sb}, {sb, sa}} {
		got, err := UnionEstimate(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s m=%d: UnionEstimate = %v, scalar loop %v", name, len(a), got, want)
		}
	}
}

// TestKernelMatchesScalarLoop pins the word-wise kernel to the loop it
// replaced at the smallest, two middling and the largest bucket count. The
// all-max-rank case at m = 65536 is the one that wraps the packed accumulators
// if the 128-word fold is removed; the one-sided cases are the ones a byte-max
// with its ≥ turned around (a byte-min) gets wrong.
func TestKernelMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{16, 64, 1024, 65536} {
		empty := make([]uint8, m)
		maxed := bytes.Repeat([]uint8{MustNew(m).maxRank()}, m)
		checkKernel(t, "empty", empty, empty)
		checkKernel(t, "one-sided, all max rank", maxed, empty)
		checkKernel(t, "all max rank", maxed, maxed)

		added, sparse := MustNew(m), MustNew(m)
		for i := 0; i < 4*m; i++ {
			added.Add(rng.Uint64())
		}
		for i := 0; i < m/8; i++ {
			sparse.Add(rng.Uint64())
		}
		checkKernel(t, "one-sided, added", added.buckets, empty)
		checkKernel(t, "dense and sparse", added.buckets, sparse.buckets)

		// Any byte below 128 is inside the kernel's contract, whatever Add
		// can reach: uniform bytes put every comparison outcome and every
		// lane value in play.
		ra, rb := make([]uint8, m), make([]uint8, m)
		for i := range ra {
			ra[i], rb[i] = uint8(rng.Intn(128)), uint8(rng.Intn(128))
		}
		checkKernel(t, "uniform bytes below 128", ra, rb)
	}
}

// TestKernelFoldsBeforeALaneWraps pins the fold distance itself rather than
// what ranks happen to need: 65536 bytes of 127 put 254 into every sum lane
// and 1 into every count lane per word, so a fold any later than 255 words
// loses the count and one later than 258 the sum.
func TestKernelFoldsBeforeALaneWraps(t *testing.T) {
	b := bytes.Repeat([]uint8{127}, 65536)
	if sum, zeros := sumZeros(b); sum != 127*65536 || zeros != 0 {
		t.Fatalf("sumZeros = (%d, %d), want (%d, 0)", sum, zeros, 127*65536)
	}
	if sum, zeros := unionSumZeros(b, make([]uint8, 65536)); sum != 127*65536 || zeros != 0 {
		t.Fatalf("unionSumZeros = (%d, %d), want (%d, 0)", sum, zeros, 127*65536)
	}
}

func BenchmarkEstimate(b *testing.B) {
	s := MustNew(DefaultBuckets)
	for i := uint64(0); i < 5000; i++ {
		s.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF += s.Estimate()
	}
}

func BenchmarkUnionEstimate(b *testing.B) {
	x, y := MustNew(DefaultBuckets), MustNew(DefaultBuckets)
	for i := uint64(0); i < 5000; i++ {
		x.Add(i)
		y.Add(i + 2500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, _ := UnionEstimate(x, y)
		sinkF += u
	}
}

var sinkF float64
