package serve

// Float text: the two conversions the grid codec runs once per grid value.
//
// Reading, scanFloat checks the JSON number grammar and gathers the decimal
// mantissa and exponent in the same pass, then converts exactly (small
// mantissa, small power of ten) or by Eisel–Lemire (Lemire, "Number parsing
// at a gigabyte per second", 2021). A token it cannot settle — more than 19
// significant digits, a power of ten off the table, a product too close to a
// rounding boundary, a result outside the normal range — it leaves to
// strconv.ParseFloat, so the decoded value is always strconv's.
//
// Writing, formatFloat finds the shortest digits that read back as the same
// float64 with Schubfach (Giulietti, "The Schubfach way to render doubles",
// 2020) and lays them out as encoding/json does: the ES6 'f' form inside
// [1e-6, 1e21), the 'e' form outside, the exponent unpadded.
//
// Both lean on one table of 128-bit powers of ten, built at init.

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// pow10tab[e-pow10Min] holds the top 128 bits of 10^e, rounded down: 10^e is
// (hi·2^64 + lo)·2^(⌊e·log₂10⌋-127), give or take the dropped bits, and hi's
// top bit is set. These are the rows of strconv's detailedPowersOfTen.
const pow10Min, pow10Max = -348, 347

var pow10tab [pow10Max - pow10Min + 1]struct{ hi, lo uint64 }

func init() {
	one, ten := big.NewInt(1), big.NewInt(10)
	for i := range pow10tab {
		e := i + pow10Min
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		switch n := uint(p.BitLen()); {
		case e < 0:
			p.Quo(new(big.Int).Lsh(one, n+127), p)
		case n > 128:
			p.Rsh(p, n-128)
		default:
			p.Lsh(p, 128-n)
		}
		var b [16]byte
		p.FillBytes(b[:])
		pow10tab[i].hi, pow10tab[i].lo = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	}
}

// float64pow10 are the powers of ten a float64 holds exactly.
var float64pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanFloat reads the JSON number that starts at d[i]. end is one past its
// last byte, negative when d[i:] does not start with a JSON number. When
// fast is false the token is a JSON number but f is not its value:
// strconv.ParseFloat decides d[i:end]. What follows the token is the
// caller's to check.
func scanFloat(d []byte, i int) (f float64, end int, fast bool) {
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	// The mantissa's digits are gathered into man with wrapping arithmetic
	// and counted; the count says afterwards whether man is all of them.
	first := i
	var man uint64
	if i < len(d) && d[i] == '0' {
		i++
	} else if man, i = scanDigits(d, i, 0); i == first {
		return 0, -1, false
	}
	nd, exp10 := i-first, 0
	if i < len(d) && d[i] == '.' {
		frac := i + 1
		if man, i = scanDigits(d, frac, man); i == frac {
			return 0, -1, false
		}
		nd += i - frac
		exp10 = frac - i
	}
	mantEnd := i
	if i < len(d) && d[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			eneg = d[i] == '-'
			i++
		}
		digits, e := i, 0
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			if e < 1e5 {
				e = e*10 + int(d[i]-'0')
			}
		}
		switch {
		case i == digits:
			return 0, -1, false
		case e >= 1e5:
			return 0, i, false // not its true value any more
		case eneg:
			e = -e
		}
		exp10 += e
	}
	if nd > 19 {
		// The zeros that lead "0.000123…" are not digits of the mantissa.
		for j := first; j < mantEnd && (d[j] == '0' || d[j] == '.'); j++ {
			if d[j] == '0' {
				nd--
			}
		}
		if nd > 19 {
			return 0, i, false
		}
	}
	switch {
	case man == 0:
	case man>>53 == 0 && -22 <= exp10 && exp10 <= 22:
		// Both operands are exact, so the one rounding is the right one.
		if f = float64(man); exp10 < 0 {
			f /= float64pow10[-exp10]
		} else {
			f *= float64pow10[exp10]
		}
	default:
		var ok bool
		if f, ok = eiselLemire(man, exp10); !ok {
			return 0, i, false
		}
	}
	if neg {
		f = -f
	}
	return f, i, true
}

// scanDigits folds the run of ASCII digits at d[i:] into man, wrapping on
// overflow, and returns the index after the run.
func scanDigits(d []byte, i int, man uint64) (uint64, int) {
	for len(d)-i >= 8 {
		// Eight at a time: no byte outside '0'–'9' (one below or above sets
		// a top bit), then three multiplies pair up digits, pairs and quads.
		v := binary.LittleEndian.Uint64(d[i:])
		if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
			break
		}
		v -= 0x3030303030303030
		v = v*10 + v>>8
		v = ((v&0x000000FF000000FF)*0x000F424000000064 + (v>>16&0x000000FF000000FF)*0x0000271000000001) >> 32
		man = man*1e8 + v
		i += 8
	}
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		man = man*10 + uint64(d[i]-'0')
	}
	return man, i
}

// eiselLemire converts man·10^exp10, man != 0, to the nearest float64, or
// declines: the 128-bit product of man and the table's 10^exp10 usually
// leaves no doubt about the 54th bit and what follows it.
func eiselLemire(man uint64, exp10 int) (float64, bool) {
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}
	pow := &pow10tab[exp10-pow10Min]
	lz := bits.LeadingZeros64(man)
	man <<= lz
	// 217706/65536 ≈ log₂10; 1023 is the float64 exponent bias.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)
	hi, lo := bits.Mul64(man, pow.hi)
	if hi&0x1FF == 0x1FF && lo+man < man {
		// The bits the table's low word would add could carry into the
		// rounding: take them in, and give up if they still could.
		yhi, ylo := bits.Mul64(man, pow.lo)
		mhi, mlo := hi, lo+yhi
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+man < man {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	msb := hi >> 63
	m := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false // looks half-way between two floats: truncation may be hiding which side
	}
	m = (m + m&1) >> 1
	if m>>53 != 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false // subnormal or overflow
	}
	return math.Float64frombits(exp2<<52 | m&(1<<52-1)), true
}

// shortest returns the decimal d·10^k of fewest digits that reads back as the
// positive finite float64 with the given bits, the closest such when several
// are as short (Schubfach; the names follow the paper). d may end in zeros.
func shortest(b uint64) (d uint64, k int) {
	c, q := b&(1<<52-1), int(b>>52)-1075
	if q == -1075 {
		q = -1074 // subnormal
	} else if c |= 1 << 52; -52 <= q && q <= 0 && c&(1<<-q-1) == 0 {
		return c >> -q, 0 // an integer below 2^53
	}
	// The rounding interval of c·2^q in quarters of a unit: a power of two's
	// lower neighbour is half as far away.
	lowerCloser := c == 1<<52 && q > -1074
	cbl, cb, cbr := 4*c-2, 4*c, 4*c+2
	k = q * 1262611 >> 22 // ⌊log₁₀ 2^q⌋
	if lowerCloser {
		cbl++
		k = (q*1262611 - 524031) >> 22 // ⌊log₁₀ ¾·2^q⌋
	}
	// g ≥ 10^-k·2^r to 128 bits, rounded up; h in 1…4 lines the products up.
	pow := pow10tab[-k-pow10Min]
	if k > 0 || k < -55 {
		if pow.lo++; pow.lo == 0 {
			pow.hi++
		}
	}
	h := uint(q + (-k*1741647)>>19 + 1)
	vbl, vb, vbr := roundToOdd(pow.hi, pow.lo, cbl<<h), roundToOdd(pow.hi, pow.lo, cb<<h), roundToOdd(pow.hi, pow.lo, cbr<<h)
	// An even c owns the ends of its interval (round half to even).
	lower, upper := vbl+c&1, vbr-c&1
	s := vb / 4
	if s >= 10 {
		// One digit fewer, if exactly one multiple of ten lies inside.
		sp := s / 10
		up, wp := lower <= 40*sp, 40*sp+40 <= upper
		if up != wp {
			if wp {
				sp++
			}
			return sp, k + 1
		}
	}
	u, w := lower <= 4*s, 4*s+4 <= upper
	if u != w {
		if w {
			s++
		}
		return s, k
	}
	// Both or neither: the closer of s and s+1, ties to even.
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns ⌊g·cp/2^128⌋ for g = ghi·2^64+glo, with the lowest bit
// set when the division left a remainder.
func roundToOdd(ghi, glo, cp uint64) uint64 {
	xhi, _ := bits.Mul64(glo, cp)
	yhi, ylo := bits.Mul64(ghi, cp)
	ylo, carry := bits.Add64(ylo, xhi, 0)
	yhi += carry
	if ylo > 1 {
		yhi |= 1
	}
	return yhi
}

// uint64pow10[n] is 10^n.
var uint64pow10 = [...]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

const digitPairs = "00010203040506070809101112131415161718192021222324" +
	"25262728293031323334353637383940414243444546474849" +
	"50515253545556575859606162636465666768697071727374" +
	"75767778798081828384858687888990919293949596979899"

// putDigits writes the decimal digits of v so that they end at dst[end-1].
func putDigits(dst []byte, end int, v uint64) {
	for v >= 1e7 {
		// Eight digits or more: the low eight in one store.
		q := v / 1e8
		binary.LittleEndian.PutUint64(dst[end-8:end], eightDigits(uint32(v-q*1e8)))
		if end, v = end-8, q; v == 0 {
			return
		}
	}
	x := uint32(v)
	for ; x >= 100; x, end = x/100, end-2 {
		put2(dst[end-2:end], x%100)
	}
	if x >= 10 {
		dst[end-2] = digitPairs[2*x]
	}
	dst[end-1] = digitPairs[2*x+1]
}

// eightDigits returns the eight ASCII digits of x < 10⁸, zero-padded, as a
// little-endian word: the first digit in the low byte. x is split into
// 4-digit halves in 32-bit lanes, each half into 2-digit quarters in 16-bit
// lanes, each quarter into digits in bytes; a lane's quotient is a
// multiply-shift (x·5243 >> 19 is x/100 below 43699, x·103 >> 10 is x/10
// below 179), and no lane's product reaches the next lane's quotient bits.
func eightDigits(x uint32) uint64 {
	hi := x / 10000
	v := uint64(hi) | uint64(x-hi*10000)<<32
	q := (v * 5243 >> 19) & 0x0000007F_0000007F
	v = q | (v-q*100)<<16
	q = (v * 103 >> 10) & 0x000F_000F_000F_000F
	v = q | (v-q*10)<<8
	return v + 0x30303030_30303030
}

// put2 writes the two digits of x < 100.
func put2(dst []byte, x uint32) {
	dst[1], dst[0] = digitPairs[2*x+1], digitPairs[2*x]
}

// formatFloat writes finite f as encoding/json does into dst, which must
// have room for floatTextMax bytes, and returns the length written.
func formatFloat(dst []byte, f float64) int {
	b := math.Float64bits(f)
	dst[0] = '-' // overwritten unless the sign bit puts n past it (no branch: signs are a coin toss)
	n := int(b >> 63)
	if b &^= 1 << 63; b == 0 {
		dst[n] = '0'
		return n + 1
	}
	d, k := shortest(b)
	for d%10 == 0 {
		d /= 10
		k++
	}
	nd := bits.Len64(d) * 1233 >> 12 // ⌊log₁₀ d⌋, or one less
	if d >= uint64pow10[nd] {
		nd++
	}
	switch point := nd + k; { // digits ahead of the decimal point
	case point < -5 || point > 21:
		// d.ddde±x: the digits go one place right of where they belong, and
		// the first then steps over the point.
		putDigits(dst, n+1+nd, d)
		dst[n] = dst[n+1]
		if n++; nd > 1 {
			dst[n] = '.'
			n += nd
		}
		// The exponent is not padded (e-7); a positive one has two digits anyway.
		dst[n], dst[n+1] = 'e', '+'
		e := point - 1
		if e < 0 {
			dst[n+1], e = '-', -e
		}
		ne := 1
		if e >= 100 {
			ne = 3
		} else if e >= 10 {
			ne = 2
		}
		putDigits(dst, n+2+ne, uint64(e))
		return n + 2 + ne
	case point <= 0:
		dst[n], dst[n+1] = '0', '.'
		n += 2
		for ; point < 0; point++ {
			dst[n] = '0'
			n++
		}
		putDigits(dst, n+nd, d)
		return n + nd
	case point >= nd:
		putDigits(dst, n+nd, d)
		for n += nd; k > 0; k-- {
			dst[n] = '0'
			n++
		}
		return n
	default:
		// As for 'e', with point digits stepping over.
		putDigits(dst, n+1+nd, d)
		copy(dst[n:n+point], dst[n+1:n+1+point])
		dst[n+point] = '.'
		return n + 1 + nd
	}
}
