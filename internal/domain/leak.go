package domain

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/units"
)

// leakEntry memoizes one leakage evaluation point. Leakage depends only on
// (PleakRef, v, tj), and its callers keep returning to the same few points:
// CStateScenario's C0MIN loads evaluate every compute domain at its minimum
// frequency and the battery-life temperature on each call, cost.Size
// re-derives the same design-point virus powers for every PDN kind at a
// TDP, and BuildScenario (pmu.Allocate's frequency walk) revisits the same
// DVFS points per domain. So the LeakPow·math.Exp product is worth
// memoizing the same way loadline.GuardbandScale is: a hit still costs
// less than LeakPow.
type leakEntry struct {
	pref units.Watt
	v    units.Volt
	tj   float64
	p    units.Watt
}

// leakCache is a 4-way set-associative, lock-free memo for Leakage, the
// same structure as loadline's guardband memo: each slot is an atomic
// pointer to an immutable entry, a hit is a hash, a pointer load and three
// float compares. rawLeakage is a pure function, so a cached hit returns
// the exact float bits the direct computation produced regardless of which
// goroutine filled the slot.
const (
	leakWays  = 4
	leakSets  = 1 << 10
	leakSlots = leakSets * leakWays
)

var leakCache [leakSlots]atomic.Pointer[leakEntry]

// leakSet mixes the three operand bit patterns into a set index
// (splitmix64-style multiply-xorshift).
func leakSet(pref units.Watt, v units.Volt, tj float64) uint64 {
	h := math.Float64bits(pref)
	h = (h ^ math.Float64bits(v)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h = (h ^ math.Float64bits(tj)*0x94d049bb133111eb) * 0xff51afd7ed558ccd
	h ^= h >> 33
	return (h % leakSets) * leakWays
}

// leakExpFrac is the fractional exponent math.Pow splits LeakVoltageExp
// into: 2.8 = 3 + leakExpFrac. The conversion rounds 2.8 to float64 first,
// so the constant is float64(2.8) − 3 exactly, −0.20000000000000018, the
// value Pow's Modf and decrement produce at run time.
const leakExpFrac = float64(LeakVoltageExp) - 3

// LeakPow returns x^LeakVoltageExp with exactly the bits of
// math.Pow(x, LeakVoltageExp), in about half the time (BenchmarkLeakPow).
// It is the voltage term of every leakage-scaling formula: Eq. 2's
// guardband, the domain leakage model and the §3.3 power-frequency curve.
//
// Why it is exact: for y = 2.8, Go's portable math.Pow splits the exponent
// into yi = 3 and yf = frac(2.8) − 1 = leakExpFrac, and computes
// a1 = Exp(yf·Log(x)). It multiplies a1 by the Frexp mantissa m of x, then
// by round(m·m) renormalized by exact doublings, and scales the product
// by a power of two with Ldexp. Scaling by a power of two is exact, and
// rounding commutes with it while every intermediate value is a normal
// number. For x in [2^-300, 2^300] every intermediate value, in Pow and
// here, and the result lie within [2^-900, 2^900], so the result equals
// Exp(yf·Log(x)) · x · (x·x), evaluated in that order, through the same
// math.Exp and math.Log calls Pow makes; LeakPow skips Pow's special
// cases, Modf, Frexp, Ldexp and loop. The expression has no additions, so
// no architecture can fuse it into a multiply-add.
//
// Outside that range, and for NaN or negative x, LeakPow calls math.Pow.
// On s390x math.Pow is written in assembly, so there LeakPow always calls
// it; runtime.GOARCH is a constant, so the comparison folds away
// elsewhere.
func LeakPow(x float64) float64 {
	if runtime.GOARCH == "s390x" || !(x >= 0x1p-300 && x <= 0x1p300) {
		return math.Pow(x, LeakVoltageExp)
	}
	return math.Exp(leakExpFrac*math.Log(x)) * x * (x * x)
}

// rawLeakage is the uncached leakage model shared by the memoized and the
// direct call paths; both therefore produce identical bits.
func rawLeakage(pref units.Watt, v units.Volt, tj float64) units.Watt {
	return pref * LeakPow(v/LeakVRef) * math.Exp(LeakTempCoeff*(tj-LeakTRef))
}

// leakage returns rawLeakage(pref, v, tj) through the memo.
func leakage(pref units.Watt, v units.Volt, tj float64) units.Watt {
	set := leakSet(pref, v, tj)
	insert := &leakCache[set]
	haveEmpty := false
	for w := uint64(0); w < leakWays; w++ {
		slot := &leakCache[set+w]
		e := slot.Load()
		if e == nil {
			if !haveEmpty {
				haveEmpty = true
				insert = slot
			}
			continue
		}
		if e.pref == pref && e.v == v && e.tj == tj {
			return e.p
		}
	}
	p := rawLeakage(pref, v, tj)
	insert.Store(&leakEntry{pref: pref, v: v, tj: tj, p: p})
	return p
}
