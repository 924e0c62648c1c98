// The shortest-digits routine below is Go's Ryū (src/strconv/ftoaryu.go,
// ryuFtoaShortest, computeBounds, mult128bitPow10 and ryuDigits32)
// specialised to the float64 values in [2^-20, 1), and carries its notice:
//
// Copyright 2021 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package serve

import (
	"encoding/binary"
	"math/bits"
)

// pow5 holds 5^q for the q ∈ [17, 23] that putUnitFloat meets. 10^q = 5^q·2^q
// and 5^23 < 2^54, so scaling a bound by 10^q is one exact 64×64 → 128-bit
// product and a shift, where strconv needs a 128-bit table entry and
// exactness checks (divisibleByPower5 is for q < 0, which never occurs here).
var pow5 = [...]uint64{
	762939453125, 3814697265625, 19073486328125, 95367431640625,
	476837158203125, 2384185791015625, 11920928955078125,
}

// pow10 holds 10^k for the digit count of a scaled bound (< 2^59) and for
// scaling it to 18 digits.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18,
}

// digitPairs is "00", "01", …, "99": the lead pair of the digits is written
// from it.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putUnitFloat writes the float64 with bit pattern fbits, which must lie in
// [2^-20, 1), into b at pos as strconv.AppendFloat(nil, v, 'f', -1, 64)
// would, and returns the index after it: "0.", the zeros after the point,
// then the shortest round-trip digits. Those are Ryū's, computed as strconv
// computes them for these inputs: the binary exponent is fixed to
// [−72, −53], so the decimal scale q is in [17, 23] and every scaled bound
// fits in 64 bits, trimmed on uint64 with no 32-bit split. b must have
// unitFloatRoom bytes of room at pos: the digits are stored at fixed
// offsets, and the bytes past the returned index are scratch.
func putUnitFloat(b []byte, pos int, fbits uint64) int {
	mant := fbits&(1<<52-1) | 1<<52
	exp := int(fbits>>52) - 1075 // v = mant·2^exp

	// computeBounds: the halfway points to the neighbouring floats, as
	// (lower, central, upper)·2^e2. A power of two has a closer lower
	// neighbour.
	ml, mc, mu, e2 := 2*mant-1, 2*mant, 2*mant+1, exp-1
	if mant == 1<<52 {
		ml, mc, mu, e2 = 4*mant-1, 4*mant, 4*mant+2, exp-2
	}
	// The smallest 10^q larger than 2^-e2 (mulByLog2Log10(-e2)+1). The
	// scaled bounds are m·5^q·2^-s with s ∈ [37, 51]: floor and remainder.
	q := (-e2*78913)>>18 + 1
	s := uint(-(e2 + q))
	p := pow5[q-17]
	mask := uint64(1)<<s - 1
	hi, lo := bits.Mul64(ml, p)
	dl, fracl := hi<<(64-s)|lo>>s, lo&mask
	hi, lo = bits.Mul64(mc, p)
	dc, fracc := hi<<(64-s)|lo>>s, lo&mask
	hi, lo = bits.Mul64(mu, p)
	du, fracu := hi<<(64-s)|lo>>s, lo&mask

	// The products are exact, so each bound is admissible only when it is a
	// whole number and the mantissa is even (round-half-even reads back).
	even := mant&1 == 0
	if fracu == 0 && !even {
		du--
	}
	if fracl != 0 || !even {
		dl++
	}
	half := uint64(1) << (s - 1)
	cup := fracc > half || (fracc == half && dc&1 == 1)
	c0 := fracc == 0

	// ryuDigits32 over the whole value: drop digits while the interval
	// [dl, du] still holds a shorter number, remembering whether what was
	// dropped from dc rounds it up.
	trimmed := 0
	cNext := uint64(0)
	for {
		l := (dl + 9) / 10
		c, cdigit := dc/10, dc%10
		u := du / 10
		if l > u {
			break
		}
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		c0 = c0 && cNext == 0
		cNext = cdigit
		dl, dc, du = l, c, u
	}
	if trimmed > 0 {
		cup = cNext > 5 || (cNext == 5 && (!c0 || dc&1 == 1))
	}
	// dc ends in no zero, even rounded up: the bounds are more than two units
	// apart, so dl ≤ dc ≤ du, and a multiple of ten in [dl, du] would have let
	// the loop trim once more. strconv's trailing-zero trim has nothing to do.
	if dc < du && cup {
		dc++
	}

	// The value is dc·10^(trimmed−q) and v < 1: "0.", then −dp ≥ 0 zeros,
	// then dc's nd ≤ 18 digits. One 8-byte store writes "0.000000" (no value
	// has more than six zeros after the point); dc scaled to exactly 18
	// digits is stored from the first digit's offset as one digit pair and
	// two groups of eight, and the body keeps its first nd.
	nd := bits.Len64(dc) * 1233 >> 12 // ⌊log10 2^len⌋: nd or nd−1
	if dc >= pow10[nd] {
		nd++
	}
	first := 2 - (nd + trimmed - q)
	out := (*[unitFloatRoom]byte)(b[pos:])
	binary.LittleEndian.PutUint64(out[:8], 0x3030303030302e30) // "0.000000"
	d18 := dc * pow10[18-nd]
	top, rest := d18/1e16, d18%1e16
	g := (*[18]byte)(out[first:])
	g[0], g[1] = digitPairs[2*top], digitPairs[2*top+1]
	binary.LittleEndian.PutUint64(g[2:], digits8(uint32(rest/1e8)))
	binary.LittleEndian.PutUint64(g[10:], digits8(uint32(rest%1e8)))
	return pos + first + nd
}

// unitFloatRoom is the room putUnitFloat writes into: at most eight bytes of
// "0." and zeros for a value in [2^-20, 1), then 18 digits.
const unitFloatRoom = 26

// digits8 returns the eight decimal digits of x < 10^8, most significant
// first, as ASCII in a little-endian word: x splits into two 4-digit halves
// in 32-bit lanes, each lane into two 2-digit quarters in 16-bit lanes, each
// of those into two digits in bytes, every split a multiply-and-shift that
// divides exactly in its lane (⌊n·5243/2^19⌋ = ⌊n/100⌋ for n < 10^4,
// ⌊n·103/2^10⌋ = ⌊n/10⌋ for n < 100) with no carry between lanes.
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	q := v * 5243 >> 19 & 0x0000007f0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f000f000f000f
	v = q | (v-q*10)<<8
	return v | 0x3030303030303030
}
