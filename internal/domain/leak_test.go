package domain

import (
	"math"
	"math/rand"
	"testing"
)

// TestLeakageMemoBitwise pins the memo contract: the memoized Leakage path
// returns the exact float64 bits of the direct math.Pow·math.Exp model,
// including on repeated (cached) queries, across distinct PleakRef values
// that share voltage/temperature points (the set-collision case).
func TestLeakageMemoBitwise(t *testing.T) {
	prefs := []float64{0.3, 0.9, 1.7, 2.4}
	volts := []float64{0.55, 0.6, 0.75, 0.9, 1.0, 1.1}
	temps := []float64{40, 60, 80, 100}
	for pass := 0; pass < 2; pass++ { // second pass hits the memo
		for _, pref := range prefs {
			for _, v := range volts {
				for _, tj := range temps {
					want := rawLeakage(pref, v, tj)
					got := leakage(pref, v, tj)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("pass %d: leakage(%g, %g, %g) = %x, raw %x",
							pass, pref, v, tj,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestLeakageMemoMatchesModel pins the public method against the closed
// form, including the v<=0 early return that bypasses the memo.
func TestLeakageMemoMatchesModel(t *testing.T) {
	d := New(Params{
		Kind: Core0, FMin: 0.8e9, FMax: 4e9, FStep: 0.1e9,
		Curve: VFCurve{A: 0.5, B: 0.15, VMin: 0.55, VMax: 1.2},
		Cdyn:  1e-9, PleakRef: 1.3,
	})
	if got := d.Leakage(0, 80); got != 0 {
		t.Fatalf("Leakage(0, 80) = %g, want 0", got)
	}
	if got := d.Leakage(-1, 80); got != 0 {
		t.Fatalf("Leakage(-1, 80) = %g, want 0", got)
	}
	for _, v := range []float64{0.6, 0.85, 1.0, 1.15} {
		for _, tj := range []float64{25, 80, 105} {
			want := 1.3 * math.Pow(v/LeakVRef, LeakVoltageExp) *
				math.Exp(LeakTempCoeff*(tj-LeakTRef))
			got := d.Leakage(v, tj)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Leakage(%g, %g) = %x, want %x",
					v, tj, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// samePow reports whether got and want are the same float64, bit for bit,
// counting any two NaNs as the same.
func samePow(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestLeakPowMatchesMathPow pins LeakPow to math.Pow(x, LeakVoltageExp)
// bit for bit: over an edge table at and around the fast path's bounds,
// a dense sweep of the operating range, raw random bit patterns, and
// random magnitudes across the whole fast-path range.
func TestLeakPowMatchesMathPow(t *testing.T) {
	// LeakPow's argument rests on math.Pow splitting the exponent into
	// yi = 3 and yf = leakExpFrac.
	yi, yf := math.Modf(LeakVoltageExp)
	if !(yf > 0.5) || yi+1 != 3 || math.Float64bits(yf-1) != math.Float64bits(leakExpFrac) {
		t.Fatalf("math.Pow splits %v into %v + %v, LeakPow assumes 3 + %v", LeakVoltageExp, yi, yf, leakExpFrac)
	}
	check := func(x float64) {
		if got, want := LeakPow(x), math.Pow(x, LeakVoltageExp); !samePow(got, want) {
			t.Helper()
			t.Fatalf("LeakPow(%v) = %v (%#x), math.Pow %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.5, 1, 2,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		-math.SmallestNonzeroFloat64, -0.5, -1, -2, -math.MaxFloat64,
	}
	for _, b := range []float64{0x1p-300, 0x1p300} {
		edges = append(edges, math.Nextafter(b, 0), b, math.Nextafter(b, math.Inf(1)))
	}
	for _, x := range edges {
		check(x)
	}
	const n = 1 << 20
	for i := 0; i <= n; i++ {
		check(0.25 + 3.75*float64(i)/n)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < n; i++ {
		check(math.Ldexp(1+rng.Float64(), rng.Intn(601)-301))
	}
}

// FuzzLeakPow checks LeakPow against math.Pow(x, LeakVoltageExp) bit for
// bit on any input.
func FuzzLeakPow(f *testing.F) {
	for _, x := range []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-300, 0.5, 0.9, 1, 1.1, 2, 0x1p300,
		math.MaxFloat64, math.Inf(1), math.NaN(), -1,
	} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if got, want := LeakPow(x), math.Pow(x, LeakVoltageExp); !samePow(got, want) {
			t.Errorf("LeakPow(%v) = %#x, math.Pow %#x", x, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// BenchmarkLeakPow times LeakPow against the math.Pow call it replaces, on
// voltage ratios of the models' operating range.
func BenchmarkLeakPow(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.5 + float64(i)/1024
	}
	for _, bc := range []struct {
		name string
		pow  func(float64) float64
	}{
		{"LeakPow", LeakPow},
		{"math.Pow", func(x float64) float64 { return math.Pow(x, LeakVoltageExp) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += bc.pow(xs[i%len(xs)])
			}
			if sum == 0 {
				b.Fatal("no work")
			}
		})
	}
}
