// Package domain models the processor domains of the client SoC studied in
// the FlexWatts paper (Table 1): two CPU cores sharing a clock domain, the
// last-level cache (LLC), the graphics engines (GFX), the system agent (SA),
// and the IO domain.
//
// Each compute domain carries a voltage-frequency curve and a power model
//
//	P(f, AR, Tj) = AR · Cdyn · V(f)² · f  +  Pleak0 · (V/Vref)^δ · e^{k·(Tj−Tref)}
//
// where AR is the paper's application ratio (the workload's switching rate
// relative to the power-virus workload, §2.4), δ ≈ 2.8 is the validated
// leakage-voltage exponent (§3.1), and the exponential term captures the
// leakage-temperature dependence used by the paper's thermal-conditioning
// methodology (§4.2). The SA and IO domains run at fixed frequency and are
// modeled by per-power-state nominal power tables, matching the paper's
// observation that their power is low and narrow across TDPs (Fig 2(b)).
package domain

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Kind identifies a processor domain.
type Kind int

// The six processor domains of Table 1 / Fig 1. Kind values are dense in
// [0, NumKinds), so [NumKinds]T arrays indexed by Kind are the canonical
// per-domain storage (pdn.Scenario.Loads, refmodel's tone banks).
const (
	Core0 Kind = iota
	Core1
	LLC
	GFX
	SA
	IO
	// NumKinds counts the domains; it is not itself a valid Kind.
	NumKinds
)

// Kinds lists all domains in canonical order.
func Kinds() []Kind { return []Kind{Core0, Core1, LLC, GFX, SA, IO} }

// ComputeKinds lists the wide-power-range domains that FlexWatts serves with
// its hybrid VR (cores, LLC, graphics).
func ComputeKinds() []Kind { return []Kind{Core0, Core1, LLC, GFX} }

// UncoreKinds lists the narrow-power-range domains (SA, IO) that FlexWatts
// serves with dedicated off-chip VRs.
func UncoreKinds() []Kind { return []Kind{SA, IO} }

// String returns the paper's name for the domain.
func (k Kind) String() string {
	switch k {
	case Core0:
		return "Core0"
	case Core1:
		return "Core1"
	case LLC:
		return "LLC"
	case GFX:
		return "GFX"
	case SA:
		return "SA"
	case IO:
		return "IO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsCompute reports whether the domain belongs to the compute group.
func (k Kind) IsCompute() bool {
	return k == Core0 || k == Core1 || k == LLC || k == GFX
}

// Leakage model constants validated in §3.1 on an i7-6600U: leakage scales
// with supply voltage to the power δ ≈ 2.8, and exponentially with junction
// temperature (doubling roughly every 28 °C).
const (
	LeakVoltageExp = 2.8
	LeakTempCoeff  = 0.025 // 1/°C
	LeakVRef       = 1.0   // V
	LeakTRef       = 80.0  // °C
)

// VFCurve is a linear voltage-frequency relation V(f) = A + B·f_GHz clamped
// to [VMin, VMax]; modern client parts are close to linear over their
// operating range.
type VFCurve struct {
	A, B       float64 // volts, volts per GHz
	VMin, VMax units.Volt
}

// VoltageAt returns the supply voltage required for frequency f.
func (c VFCurve) VoltageAt(f units.Hertz) units.Volt {
	v := c.A + c.B*(f/units.Giga)
	return units.Clamp(v, c.VMin, c.VMax)
}

// Params describes a compute domain's static power-model parameters.
type Params struct {
	Kind Kind
	// FMin/FMax bound the clock (Table 1: cores 0.8–4 GHz, GFX 0.1–1.2 GHz).
	FMin, FMax units.Hertz
	// FStep is the DVFS granularity (§3.3: 100 MHz cores, 50 MHz GFX).
	FStep units.Hertz
	// Curve is the voltage-frequency curve.
	Curve VFCurve
	// Cdyn is the effective switched capacitance of the power-virus
	// workload (AR = 1), in farads: Pdyn = Cdyn · V² · f.
	Cdyn float64
	// PleakRef is the leakage power at LeakVRef volts and LeakTRef °C.
	PleakRef units.Watt
}

// Domain is an instantiated compute domain.
type Domain struct {
	p Params
}

// New constructs a compute domain and validates its parameters.
func New(p Params) *Domain {
	units.CheckPositive("FMin", p.FMin)
	units.CheckPositive("FMax", p.FMax)
	if p.FMax < p.FMin {
		panic("domain: FMax < FMin")
	}
	units.CheckPositive("FStep", p.FStep)
	units.CheckPositive("Cdyn", p.Cdyn)
	units.CheckNonNegative("PleakRef", p.PleakRef)
	return &Domain{p: p}
}

// Kind returns the domain identity.
func (d *Domain) Kind() Kind { return d.p.Kind }

// Params returns a copy of the static parameters.
func (d *Domain) Params() Params { return d.p }

// ClampFreq limits f to the domain's range and snaps it down to the DVFS
// step grid.
func (d *Domain) ClampFreq(f units.Hertz) units.Hertz {
	f = units.Clamp(f, d.p.FMin, d.p.FMax)
	steps := math.Floor((f-d.p.FMin)/d.p.FStep + 1e-9)
	return d.p.FMin + steps*d.p.FStep
}

// VoltageAt returns the supply voltage for frequency f.
func (d *Domain) VoltageAt(f units.Hertz) units.Volt { return d.p.Curve.VoltageAt(f) }

// Leakage returns the leakage power at supply voltage v and junction
// temperature tj (°C). The computation is memoized (see leak.go): the
// evaluation point depends only on (PleakRef, v, tj), and sweep drivers
// revisit the same operating voltages across thousands of grid points.
func (d *Domain) Leakage(v units.Volt, tj float64) units.Watt {
	if v <= 0 {
		return 0
	}
	return leakage(d.p.PleakRef, v, tj)
}

// DynVirus returns the dynamic power of the power-virus workload (AR = 1)
// at frequency f.
func (d *Domain) DynVirus(f units.Hertz) units.Watt {
	v := d.VoltageAt(f)
	return d.p.Cdyn * v * v * f
}

// Power returns the domain's nominal power at frequency f, application
// ratio ar and junction temperature tj: the AR-scaled virus dynamic power
// plus leakage. This is the PNOM input to the PDN models (Fig 1).
func (d *Domain) Power(f units.Hertz, ar, tj float64) units.Watt {
	units.CheckFraction("ar", ar)
	return ar*d.DynVirus(f) + d.Leakage(d.VoltageAt(f), tj)
}

// LeakFraction returns FL = Pleak / PNOM at the operating point, the
// quantity Table 2 reports as 20–45 % depending on domain.
func (d *Domain) LeakFraction(f units.Hertz, ar, tj float64) float64 {
	p := d.Power(f, ar, tj)
	if p == 0 {
		return 0
	}
	return d.Leakage(d.VoltageAt(f), tj) / p
}
