package domain

import (
	"math"
	"testing"

	"repro/internal/units"
)

func testPlatform() *Platform { return NewClientPlatform() }

func TestVFCurve(t *testing.T) {
	c := VFCurve{A: 0.42, B: 0.17, VMin: 0.55, VMax: 1.10}
	if got := c.VoltageAt(units.GigaHertz(4)); math.Abs(got-1.10) > 1e-9 {
		t.Errorf("V(4GHz) = %g, want 1.10", got)
	}
	if got := c.VoltageAt(units.GigaHertz(0.5)); got != 0.55 {
		t.Errorf("V(0.5GHz) = %g, want clamped 0.55", got)
	}
	if got := c.VoltageAt(units.GigaHertz(2)); math.Abs(got-0.76) > 1e-9 {
		t.Errorf("V(2GHz) = %g, want 0.76", got)
	}
}

func TestClampFreq(t *testing.T) {
	d := testPlatform().Domain(Core0)
	if got := d.ClampFreq(units.GigaHertz(10)); got != units.GigaHertz(4) {
		t.Errorf("clamp above max: %g", got)
	}
	if got := d.ClampFreq(units.GigaHertz(0.1)); got != units.GigaHertz(0.8) {
		t.Errorf("clamp below min: %g", got)
	}
	// Snaps down to the 100 MHz grid.
	if got := d.ClampFreq(units.GigaHertz(1.279)); math.Abs(got-units.GigaHertz(1.2)) > 1 {
		t.Errorf("grid snap: %g", got)
	}
	if got := d.ClampFreq(units.GigaHertz(1.3)); math.Abs(got-units.GigaHertz(1.3)) > 1 {
		t.Errorf("exact grid point moved: %g", got)
	}
}

func TestPowerMonotone(t *testing.T) {
	d := testPlatform().Domain(Core0)
	// Power rises with frequency at fixed AR/Tj, and with AR at fixed f.
	prev := 0.0
	for f := 0.8e9; f <= 4.0e9; f += 0.4e9 {
		p := d.Power(f, 0.6, 80)
		if p <= prev {
			t.Fatalf("power not increasing at %g Hz: %g <= %g", f, p, prev)
		}
		prev = p
	}
	if !(d.Power(2e9, 0.8, 80) > d.Power(2e9, 0.4, 80)) {
		t.Error("power should rise with AR")
	}
	if !(d.Power(2e9, 0.6, 100) > d.Power(2e9, 0.6, 60)) {
		t.Error("power should rise with temperature (leakage)")
	}
}

func TestCoresVirusCalibration(t *testing.T) {
	// Both cores at fmax/power-virus/100C dissipate ~30W (Table 2's upper
	// bound for the cores' nominal power range).
	p := testPlatform()
	total := 2 * p.Domain(Core0).Power(units.GigaHertz(4), 1, 100)
	if total < 27 || total > 33 {
		t.Errorf("cores virus power = %.1fW, want ~30W", total)
	}
	// GFX virus at fmax ~29.4W.
	gfx := p.Domain(GFX).Power(units.GigaHertz(1.2), 1, 100)
	if gfx < 26 || gfx > 33 {
		t.Errorf("GFX virus power = %.1fW, want ~29.4W", gfx)
	}
	// LLC at fmax ~4W.
	llc := p.Domain(LLC).Power(units.GigaHertz(4), 1, 100)
	if llc < 3.4 || llc > 4.6 {
		t.Errorf("LLC virus power = %.1fW, want ~4W", llc)
	}
}

func TestLeakFractionCalibration(t *testing.T) {
	// §3.1: ~22% leakage fraction for cores at a typical operating point,
	// ~45% for graphics.
	p := testPlatform()
	fl := p.Domain(Core0).LeakFraction(units.GigaHertz(2.5), 0.6, 90)
	if fl < 0.15 || fl > 0.30 {
		t.Errorf("core leak fraction = %.2f, want ~0.22", fl)
	}
	flg := p.Domain(GFX).LeakFraction(units.GigaHertz(1.2), 1, 100)
	if flg < 0.35 || flg > 0.55 {
		t.Errorf("GFX leak fraction = %.2f, want ~0.45", flg)
	}
}

func TestLeakageScaling(t *testing.T) {
	d := testPlatform().Domain(Core0)
	// Voltage exponent: leak(1.1)/leak(1.0) = 1.1^2.8.
	ratio := d.Leakage(1.1, 80) / d.Leakage(1.0, 80)
	if math.Abs(ratio-math.Pow(1.1, 2.8)) > 1e-9 {
		t.Errorf("voltage scaling ratio = %g", ratio)
	}
	// Temperature: doubles roughly every 28C (e^{0.025*28} ~ 2.01).
	ratio = d.Leakage(1.0, 108) / d.Leakage(1.0, 80)
	if ratio < 1.9 || ratio > 2.2 {
		t.Errorf("temperature doubling ratio = %g", ratio)
	}
	if d.Leakage(0, 80) != 0 {
		t.Error("zero voltage must have zero leakage")
	}
}

func TestUncoreStateTotals(t *testing.T) {
	// §5 video playback example: platform nominal ~2.5W in C0MIN, 1.2W in
	// C2, 0.13W in C8. SA+IO alone pin the C2/C8 values.
	p := testPlatform()
	if got := p.UncorePower(SA, C2) + p.UncorePower(IO, C2); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("C2 SA+IO = %g, want 1.2", got)
	}
	if got := p.UncorePower(SA, C8) + p.UncorePower(IO, C8); math.Abs(got-0.13) > 1e-9 {
		t.Errorf("C8 SA+IO = %g, want 0.13", got)
	}
	// Deeper states draw less.
	prev := math.Inf(1)
	for _, c := range []CState{C2, C3, C6, C7, C8} {
		got := p.UncorePower(SA, c) + p.UncorePower(IO, c)
		if got >= prev {
			t.Errorf("%v power %g not below previous %g", c, got, prev)
		}
		prev = got
	}
}

func TestCStateProperties(t *testing.T) {
	if !C0.ComputeActive() || !C0MIN.ComputeActive() {
		t.Error("C0/C0MIN must be compute-active")
	}
	for _, c := range IdleCStates() {
		if c.ComputeActive() {
			t.Errorf("%v should be idle", c)
		}
	}
	if C0MIN.String() != "C0MIN" || C8.String() != "C8" {
		t.Error("CState.String mismatch")
	}
}

func TestJunctionTemp(t *testing.T) {
	if JunctionTemp(4, false) != 80 {
		t.Error("4W should run at 80C")
	}
	if JunctionTemp(50, false) != 100 {
		t.Error("50W should run at 100C")
	}
	if JunctionTemp(50, true) != 50 {
		t.Error("battery life runs at 50C")
	}
}

func TestMaxComputeVoltage(t *testing.T) {
	p := testPlatform()
	freqs := map[Kind]units.Hertz{
		Core0: units.GigaHertz(1.0),
		GFX:   units.GigaHertz(1.2),
		SA:    units.GigaHertz(1.0), // ignored: not compute
	}
	want := p.Domain(GFX).VoltageAt(units.GigaHertz(1.2))
	if got := p.MaxComputeVoltage(freqs); got != want {
		t.Errorf("MaxComputeVoltage = %g, want %g (GFX)", got, want)
	}
}

func TestAccessorPanics(t *testing.T) {
	p := testPlatform()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Domain(SA)", func() { p.Domain(SA) })
	mustPanic("UncorePower(Core0)", func() { p.UncorePower(Core0, C0) })
	mustPanic("UncoreVoltage(GFX)", func() { p.UncoreVoltage(GFX) })
}

func TestKindHelpers(t *testing.T) {
	if len(Kinds()) != 6 || len(ComputeKinds()) != 4 || len(UncoreKinds()) != 2 {
		t.Error("kind list sizes")
	}
	if !Core0.IsCompute() || SA.IsCompute() {
		t.Error("IsCompute misclassifies")
	}
	if Core0.String() != "Core0" || IO.String() != "IO" {
		t.Error("Kind.String mismatch")
	}
}

func TestParseCState(t *testing.T) {
	for _, c := range CStates() {
		got, err := ParseCState(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCState(%q) = %v, %v", c.String(), got, err)
		}
	}
	if got, err := ParseCState("c0min"); err != nil || got != C0MIN {
		t.Errorf("ParseCState is not case-insensitive: %v, %v", got, err)
	}
	if _, err := ParseCState("C99"); err == nil {
		t.Error("ParseCState accepted an unknown state")
	}
}
