package loglog

import (
	"encoding/binary"
	"math"
)

// This file is the word-wise estimation kernel. Estimate and the union
// estimate need only two small integers off the buckets — their sum and how
// many are zero — and read them eight buckets per 64-bit load. Every bucket
// is a rank, at most 64 − p + 1 ≤ 61 (RestoreState refuses anything larger),
// so each byte of a word is below 128 and the byte-parallel steps below are
// exact: none can borrow from or carry into a neighbouring byte. The sum is
// of integers, so its float64 form does not depend on the order of addition
// and the estimates are bit-identical to a byte-at-a-time loop, which
// kernel_test.go keeps as the reference.

const (
	byteHighs = 0x8080808080808080 // bit 7 of every byte
	byteLows  = 0x7f7f7f7f7f7f7f7f // bits 0–6 of every byte
	evenBytes = 0x00ff00ff00ff00ff // bytes 0, 2, 4, 6: four 16-bit lanes

	// foldBytes is how many buckets go through the packed accumulators
	// before they are folded into plain integers: 128 words. The bucket sum
	// is kept in four 16-bit lanes that gain two bytes (≤ 254) per word and
	// would wrap after 258 words; the non-zero count is kept in eight byte
	// lanes that gain at most 1 per word and would wrap after 255.
	foldBytes = 128 * 8
)

// pairBytes adds the odd bytes of w to the even ones: four 16-bit lanes.
func pairBytes(w uint64) uint64 { return w&evenBytes + w>>8&evenBytes }

// foldLanes adds up the four 16-bit lanes of acc.
func foldLanes(acc uint64) int {
	return int(acc&0xffff + acc>>16&0xffff + acc>>32&0xffff + acc>>48)
}

// nonZeroFlags has a 1 in every byte where w's byte, below 128, is not zero:
// adding 127 carries into a byte's bit 7 exactly when the byte is at least 1.
func nonZeroFlags(w uint64) uint64 { return (w + byteLows) & byteHighs >> 7 }

// byteMax is the byte-wise maximum of x and y, every byte below 128. With
// bit 7 set in each byte of x the subtraction stays inside its byte and
// leaves bit 7 set exactly where x's byte ≥ y's; that bit, spread over the
// byte, selects x there and y elsewhere.
func byteMax(x, y uint64) uint64 {
	ge := ((x | byteHighs) - y) & byteHighs
	keepX := ge | (ge - ge>>7)
	return y ^ (x^y)&keepX
}

// foldedSum returns the sum of at most foldBytes buckets and how many of
// them are not zero.
func foldedSum(b []uint8) (sum, nonZero int) {
	var lanes, flags uint64
	for i := 0; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		lanes += pairBytes(w)
		flags += nonZeroFlags(w)
	}
	return foldLanes(lanes), foldLanes(pairBytes(flags))
}

// foldedUnionSum is foldedSum of the bucket-wise maximum of a and b. The two
// are separate loops because foldedUnionSum(b, b) in foldedSum's place would
// charge every Estimate a second load and a byte-max for nothing.
func foldedUnionSum(a, b []uint8) (sum, nonZero int) {
	var lanes, flags uint64
	b = b[:len(a)]
	for i := 0; i+8 <= len(a); i += 8 {
		w := byteMax(binary.LittleEndian.Uint64(a[i:]), binary.LittleEndian.Uint64(b[i:]))
		lanes += pairBytes(w)
		flags += nonZeroFlags(w)
	}
	return foldLanes(lanes), foldLanes(pairBytes(flags))
}

// sumZeros returns the sum of the buckets and the number that are zero.
func sumZeros(b []uint8) (sum, zeros int) {
	zeros = len(b)
	for len(b) > 0 {
		n := min(len(b), foldBytes)
		s, nz := foldedSum(b[:n])
		sum, zeros, b = sum+s, zeros-nz, b[n:]
	}
	return sum, zeros
}

// unionSumZeros is sumZeros of the bucket-wise maximum of a and b, which must
// be equally long: the union sketch is summed as it is formed and never
// written anywhere.
func unionSumZeros(a, b []uint8) (sum, zeros int) {
	zeros = len(a)
	for b = b[:len(a)]; len(a) > 0; {
		n := min(len(a), foldBytes)
		s, nz := foldedUnionSum(a[:n], b[:n])
		sum, zeros, a, b = sum+s, zeros-nz, a[n:], b[n:]
	}
	return sum, zeros
}

// estimate applies the Durand–Flajolet LogLog estimator to a sketch of m
// buckets with the given bucket sum and zero count, with small-range linear
// counting to stay accurate for sparse sketches.
func estimate(m, sum, zeros int) float64 {
	fm := float64(m)
	raw := alpha(m) * fm * math.Exp2(float64(sum)/fm)
	// Linear counting for the sparse regime where LogLog under-estimates.
	if zeros > 0 && raw < 2.5*fm {
		return fm * math.Log(fm/float64(zeros))
	}
	return raw
}
