package vr

import (
	"math"

	"repro/internal/units"
)

// This file implements the buck loss model: a Buck compiled for one (Vin,
// power state) pair. The per-pair terms — the controller loss, the
// Vin²-scaled switching loss and the KOverlap·Vin prefix of the overlap
// loss — are computed once by Compile, and BuckOp.Efficiency evaluates the
// rest per (Vout, Iout). Buck.Efficiency compiles its operating point's
// pair on every call; the PDN models compile each regulator's states once,
// when the model is built, and reuse them for every point.
//
// compile_test.go keeps a frozen copy of the loss model as the reference
// (referenceEfficiency) and pins BuckOp against it bit for bit across
// states, voltages and currents.

// BuckOp is a Buck's loss model compiled for one (Vin, PowerState) pair.
// The zero value is not meaningful; obtain one from Buck.Compile.
type BuckOp struct {
	fixed    units.Watt // controller loss at this state
	sw       units.Watt // switching loss at this Vin and state
	kovlVin  float64    // KOverlap·Vin (overlap-loss prefix)
	vin      units.Volt
	vdt      units.Volt
	kdrv     float64
	rser     units.Ohm
	phaseCur units.Amp
	maxPh    int
	etaFloor float64
	light    bool // state >= PS1: single phase forced
}

// Compile hoists the (vin, ps)-dependent terms of the loss model.
func (b *Buck) Compile(vin units.Volt, ps PowerState) BuckOp {
	p := b.params
	var fixed, sw units.Watt
	if ps >= PS1 {
		fixed = p.PControlLight
		sw = p.KSwitch * vin * vin / p.LightSwitchDiv
		// Deeper states duty-cycle the regulator further.
		if ps >= PS3 {
			sw /= 4
			fixed /= 2
		}
	} else {
		fixed = p.PControl
		sw = p.KSwitch * vin * vin
	}
	return BuckOp{
		fixed:    fixed,
		sw:       sw,
		kovlVin:  p.KOverlap * vin,
		vin:      vin,
		vdt:      p.VDeadTime,
		kdrv:     p.KDriver,
		rser:     p.RSeries,
		phaseCur: p.PhaseCurrent,
		maxPh:    p.MaxPhases,
		etaFloor: p.EtaFloor,
		light:    ps >= PS1,
	}
}

// loss returns the total conversion loss at (vout, iout): the phase count
// n sheds to keep per-phase current at or below PhaseCurrent, capped at
// MaxPhases (light-load states force one phase), and a buck past
// maxBuckDuty pays the headroom penalty.
func (o *BuckOp) loss(vout units.Volt, iout units.Amp) units.Watt {
	n := 1
	if !o.light {
		n = int(math.Ceil(iout / o.phaseCur))
		if n < 1 {
			n = 1
		}
		if n > o.maxPh {
			n = o.maxPh
		}
	}
	rEff := o.rser / float64(n)
	ovl := o.kovlVin * iout
	duty := 0.0
	if o.vin > 0 {
		duty = units.Clamp(vout/o.vin, 0, 1)
	}
	dt := o.vdt * (1 - duty) * iout
	drv := o.kdrv * iout
	cond := rEff * iout * iout
	// Headroom penalty: a buck cannot regulate with the output close to
	// the input (§2.2: SVRs "require a large difference in the
	// input/output voltage levels"). Past ~85% duty the minimum off-time
	// forces cycle skipping and the conversion degrades sharply.
	var head units.Watt
	if duty > maxBuckDuty {
		head = headroomLossK * vout * iout * (duty - maxBuckDuty) / (1 - maxBuckDuty)
	}
	return o.fixed + o.sw + ovl + dt + drv + cond + head
}

// Buck headroom constants: regulation degrades beyond 85% duty cycle, with
// the penalty reaching headroomLossK of the output power at 100% duty.
const (
	maxBuckDuty   = 0.85
	headroomLossK = 0.25
)

// Efficiency returns Pout/(Pout+Ploss) at (vout, iout) for the compiled
// (Vin, State), bounded below by EtaFloor; a non-positive iout returns
// EtaFloor.
func (o *BuckOp) Efficiency(vout units.Volt, iout units.Amp) float64 {
	if iout <= 0 {
		return o.etaFloor
	}
	pout := vout * iout
	eta := pout / (pout + o.loss(vout, iout))
	if eta < o.etaFloor {
		eta = o.etaFloor
	}
	return eta
}

// BuckStates holds one compiled operating point per modeled power state
// (PS0–PS4) at a fixed Vin, so grid kernels can select by the per-point
// VR state without recompiling.
type BuckStates struct {
	ops [PS4 + 1]BuckOp
}

// CompileStates compiles the buck at vin for every power state.
func (b *Buck) CompileStates(vin units.Volt) BuckStates {
	var s BuckStates
	for ps := PS0; ps <= PS4; ps++ {
		s.ops[ps] = b.Compile(vin, ps)
	}
	return s
}

// Efficiency evaluates the compiled operating point for ps.
func (s *BuckStates) Efficiency(ps PowerState, vout units.Volt, iout units.Amp) float64 {
	return s.ops[ps].Efficiency(vout, iout)
}
