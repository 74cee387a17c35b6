// Package vr models the voltage regulators that compose the power delivery
// networks studied in the FlexWatts paper (§2.2): switching VRs (buck
// converters, used both on the motherboard and integrated on die as IVRs)
// and low-dropout (LDO) linear regulators. Power-gate physics lives with
// the guardband arithmetic in internal/loadline.
//
// The paper drives its ETEE models with measured efficiency curves
// η(Vin, Vout, Iout, power-state) (Fig 3, Table 2). Real hardware is not
// available to this reproduction, so this package generates the curves from
// a physically-grounded parametric loss model:
//
//	Ploss = Pctl(PS) + Psw(Vin, PS) + Kovl·Vin·Iout + Vdt·(1−D)·Iout
//	      + Kdrv·Iout + Rds(phases)·Iout²
//
// The controller and switching terms dominate at light load (efficiency
// droop on the left of Fig 3), the switch-overlap term Kovl·Vin·Iout and the
// dead-time/freewheel term Vdt·(1−D)·Iout (D = Vout/Vin duty cycle) penalize
// large single-stage conversion ratios — the physical reason the IVR PDN's
// two-stage topology wins at high power — and the I²R conduction term
// dominates at heavy load, with phase shedding flattening the top. The
// parameters for each concrete regulator are calibrated so the resulting
// curves land in the ranges the paper reports: off-chip 72–93 %, IVR
// 81–88 %, LDO ≈ (Vout/Vin)·99.1 %.
//
// The buck loss model has one implementation, BuckOp (compile.go): a
// Buck compiled for one (Vin, power state) pair. Buck.Efficiency compiles
// the operating point's pair and evaluates it; the PDN kernels compile
// each regulator's states once per model and reuse them.
package vr

import (
	"fmt"

	"repro/internal/units"
)

// PowerState identifies a voltage-regulator power state (not a processor
// C-state). PS0 is the full-performance state; higher states trade peak
// capability for lower fixed losses at light load. The V_IN VR in the paper
// supports PS0, PS1, PS3 and PS4 (§4.2).
type PowerState int

// Voltage-regulator power states.
const (
	PS0 PowerState = iota // full performance, all phases available
	PS1                   // light-load: fewer phases, diode emulation
	PS2                   // unused by the modeled parts; kept for numbering
	PS3                   // deep light-load: minimum switching activity
	PS4                   // standby: regulation duty-cycled
)

// String returns the conventional name, e.g. "PS0".
func (ps PowerState) String() string { return fmt.Sprintf("PS%d", int(ps)) }

// Valid reports whether ps is one of the modeled states.
func (ps PowerState) Valid() bool { return ps >= PS0 && ps <= PS4 }

// OperatingPoint is a single electrical operating point of a regulator.
type OperatingPoint struct {
	Vin   units.Volt // input voltage
	Vout  units.Volt // regulated output voltage
	Iout  units.Amp  // load current drawn from the output
	State PowerState // regulator power state
}

// Regulator is the common interface of every VR model. Efficiency returns
// the power-conversion efficiency η = Pout/Pin at the operating point.
type Regulator interface {
	// Name identifies the regulator instance (e.g. "V_IN", "IVR_Core0").
	Name() string
	// Efficiency returns η in (0, 1] for the operating point.
	Efficiency(op OperatingPoint) float64
}

// BuckParams parameterizes the switching-VR loss model. All power terms are
// in watts at the reference conditions noted per field.
type BuckParams struct {
	// PControl is the fixed controller/housekeeping loss in PS0.
	PControl units.Watt
	// PControlLight is the fixed loss in light-load states (PS1+); real
	// parts duty-cycle their control loop, so this is much smaller.
	PControlLight units.Watt
	// KSwitch scales the switching loss term Psw = KSwitch · Vin². It
	// captures gate-charge and V·I overlap losses, which grow with input
	// voltage. Light-load states reduce the effective switching frequency;
	// the model divides this term by LightSwitchDiv in PS1+.
	KSwitch float64
	// LightSwitchDiv divides the switching loss in light-load states.
	LightSwitchDiv float64
	// KOverlap scales the switch V·I overlap loss Povl = KOverlap·Vin·Iout.
	// It grows with both input voltage and load current, which is what makes
	// a single large step-down stage (7.2 V in, tens of amperes out) pay
	// more than two cascaded stages that each see either high voltage or
	// high current, but not both.
	KOverlap float64
	// VDeadTime is the effective freewheel/dead-time voltage: the loss is
	// Pdt = VDeadTime·(1−D)·Iout with duty cycle D = Vout/Vin, penalizing
	// low-duty (large conversion ratio) operation.
	VDeadTime units.Volt
	// KDriver scales the per-ampere driver/diode loss: Pdrv = KDriver·Iout.
	KDriver float64
	// RSeries is the per-phase series resistance (bridge + inductor DCR)
	// responsible for conduction loss Rds_eff · Iout².
	RSeries units.Ohm
	// PhaseCurrent is the per-phase current at which another phase is
	// activated; phase shedding divides the effective series resistance.
	PhaseCurrent units.Amp
	// MaxPhases bounds the number of phases.
	MaxPhases int
	// Iccmax is the electrical design limit of the part.
	Iccmax units.Amp
	// EtaFloor bounds efficiency from below; physical converters never
	// report arbitrarily small efficiency in their datasheet operating
	// region, and the floor keeps the model numerically safe at nA loads.
	EtaFloor float64
}

// validate panics on nonsensical parameters; BuckParams are static
// configuration, so errors here are programming errors.
func (p BuckParams) validate() {
	units.CheckNonNegative("PControl", p.PControl)
	units.CheckNonNegative("PControlLight", p.PControlLight)
	units.CheckNonNegative("KSwitch", p.KSwitch)
	units.CheckNonNegative("KOverlap", p.KOverlap)
	units.CheckNonNegative("VDeadTime", p.VDeadTime)
	units.CheckNonNegative("KDriver", p.KDriver)
	units.CheckNonNegative("RSeries", p.RSeries)
	units.CheckPositive("PhaseCurrent", p.PhaseCurrent)
	if p.MaxPhases < 1 {
		panic("vr: MaxPhases must be >= 1")
	}
	units.CheckPositive("Iccmax", p.Iccmax)
	if p.LightSwitchDiv < 1 {
		panic("vr: LightSwitchDiv must be >= 1")
	}
	units.CheckFraction("EtaFloor", p.EtaFloor)
}

// Buck is a step-down switching voltage regulator (SVR). The same model
// serves motherboard VRs and integrated VRs (IVRs); they differ only in
// parameters (IVRs have smaller fixed losses but higher series resistance
// from air-core inductors and on-die routing).
type Buck struct {
	name   string
	params BuckParams
}

// NewBuck constructs a switching VR with the given parameters.
func NewBuck(name string, p BuckParams) *Buck {
	p.validate()
	return &Buck{name: name, params: p}
}

// Name implements Regulator.
func (b *Buck) Name() string { return b.name }

// Params returns the loss-model parameters (a copy).
func (b *Buck) Params() BuckParams { return b.params }

// Efficiency implements Regulator. It returns Pout/(Pout+Ploss) bounded
// below by EtaFloor, evaluating the loss model compiled for the operating
// point's input voltage and power state.
func (b *Buck) Efficiency(op OperatingPoint) float64 {
	o := b.Compile(op.Vin, op.State)
	return o.Efficiency(op.Vout, op.Iout)
}

// LDOParams parameterizes the low-dropout linear regulator model.
type LDOParams struct {
	// CurrentEfficiency is Iout/Iin, typically ≈ 0.991 for modern LDOs
	// (paper Table 2: (Vout/Vin)·99.1 %).
	CurrentEfficiency float64
	// BypassEfficiency applies in bypass mode, where the input is shorted
	// to the output through the power switch; only its tiny series drop is
	// paid. Typically ≈ 0.999.
	BypassEfficiency float64
	// DropoutVoltage is the minimum Vin-Vout headroom in regulation mode.
	DropoutVoltage units.Volt
	// Iccmax is the electrical design limit.
	Iccmax units.Amp
}

func (p LDOParams) validate() {
	units.CheckFraction("CurrentEfficiency", p.CurrentEfficiency)
	units.CheckFraction("BypassEfficiency", p.BypassEfficiency)
	units.CheckNonNegative("DropoutVoltage", p.DropoutVoltage)
	units.CheckPositive("Iccmax", p.Iccmax)
}

// LDO is a low-dropout linear regulator. Its efficiency is the voltage
// ratio times the current efficiency (paper §2.2/§3.1, Eq. 10). An LDO can
// also operate in bypass mode (input connected straight to output) and as a
// power gate when its domain idles.
type LDO struct {
	name   string
	params LDOParams
}

// NewLDO constructs an LDO VR.
func NewLDO(name string, p LDOParams) *LDO {
	p.validate()
	return &LDO{name: name, params: p}
}

// Name implements Regulator.
func (l *LDO) Name() string { return l.name }

// Params returns the model parameters (a copy).
func (l *LDO) Params() LDOParams { return l.params }

// Efficiency implements Regulator: η = (Vout/Vin)·Ie in regulation mode.
// When Vout is within the dropout voltage of Vin the regulator behaves as in
// bypass and returns BypassEfficiency (the paper's AMD-style LDO PDN runs
// the highest-voltage domain in bypass, §2.3).
func (l *LDO) Efficiency(op OperatingPoint) float64 {
	if op.Vin <= 0 || op.Vout <= 0 {
		return l.params.BypassEfficiency
	}
	if op.Vout >= op.Vin-l.params.DropoutVoltage {
		return l.params.BypassEfficiency
	}
	return op.Vout / op.Vin * l.params.CurrentEfficiency
}
