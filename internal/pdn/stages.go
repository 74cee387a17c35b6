package pdn

import (
	"repro/internal/domain"
	"repro/internal/loadline"
	"repro/internal/units"
	"repro/internal/vr"
)

// This file implements the reusable power-flow stages from which the PDN
// models (the IVR, MBVR and split-rail models, the last also serving
// FlexWatts' two modes) are assembled. Each stage follows the corresponding
// equations of paper §3.1.

// stageOut is the result of an on-chip conversion stage for a group of
// domains feeding a shared input rail.
type stageOut struct {
	// PIn is the power drawn from the shared rail (PIN in Fig 1).
	PIn units.Watt
	// AR is the group's effective application ratio (PIN / PINpeak).
	AR float64
	// Breakdown accumulates guardband and on-chip VR losses.
	Breakdown Breakdown
}

// ivrStage applies Eq. 2 and Eq. 6 to each active load: tolerance-band
// guardband followed by the domain's integrated VR loss, with all IVRs fed
// from the vin rail. It is used for all six domains in the IVR PDN and for
// the compute domains in I+MBVR and FlexWatts' IVR-Mode.
func ivrStage(loads []Load, ivr *vr.Buck, tob units.Volt, vin units.Volt, c domain.CState) stageOut {
	var out stageOut
	var ppeak units.Watt
	for _, l := range loads {
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, tob, l.FL)
		out.Breakdown.Guardband += pgb - l.PNom
		iout := pgb / l.VNom
		eta := ivr.Efficiency(vr.OperatingPoint{
			Vin: vin, Vout: l.VNom, Iout: iout, State: VRStateFor(c, iout),
		})
		pd := pgb / eta // Eq. 6
		out.Breakdown.OnChipVR += pd - pgb
		out.PIn += pd
		ppeak += pd / l.AR
	}
	if ppeak > 0 {
		out.AR = out.PIn / ppeak
	} else {
		out.AR = 1
	}
	return out
}

// ldoStage applies Eq. 2 and Eq. 10/11 to the compute domains: the shared
// input rail is set to the maximum domain voltage, the highest-voltage
// domain's LDO runs in bypass, and the others regulate down (paying the
// voltage-ratio efficiency). Used by the LDO PDN and FlexWatts' LDO-Mode.
// It returns the chosen rail voltage alongside the stage result.
func ldoStage(loads []Load, ldo *vr.LDO, tob units.Volt) (units.Volt, stageOut) {
	var out stageOut
	var vin units.Volt
	for _, l := range loads {
		if l.Active() && l.VNom > vin {
			vin = l.VNom
		}
	}
	if vin == 0 {
		out.AR = 1
		return 0, out
	}
	// The rail itself needs the tolerance-band margin once; domains then
	// regulate (or bypass) from the raised rail.
	vin += tob
	var ppeak units.Watt
	for _, l := range loads {
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, tob, l.FL)
		out.Breakdown.Guardband += pgb - l.PNom
		eta := ldo.Efficiency(vr.OperatingPoint{Vin: vin, Vout: l.VNom + tob})
		pd := pgb / eta // Eq. 11
		out.Breakdown.OnChipVR += pd - pgb
		out.PIn += pd
		ppeak += pd / l.AR
	}
	out.AR = out.PIn / ppeak
	return vin, out
}

// railOut is the result of carrying a rail's power across its load-line and
// through its off-chip VR to the PSU.
type railOut struct {
	// PIn is the power drawn from the PSU.
	PIn units.Watt
	// Breakdown holds the load-line conduction loss and off-chip VR loss.
	Breakdown Breakdown
	// Rail describes the electrical demand on the off-chip VR.
	Rail RailDraw
}

// vinRail carries a shared on-chip rail (output of ivrStage or ldoStage)
// across the input load-line (Eq. 7/8) and the first-stage VR (Eq. 9/12
// first term). computeShare says what fraction of the conduction loss to
// attribute to the compute path in the Fig 5 breakdown (1 when the rail
// feeds only compute domains).
func vinRail(b *vr.Buck, st stageOut, vin units.Volt, rll units.Ohm, psu units.Volt, c domain.CState, computeShare float64) railOut {
	var out railOut
	if st.PIn == 0 {
		out.Rail = RailDraw{Name: b.Name(), VOut: vin}
		return out
	}
	ll := loadline.Compensate(st.PIn, vin, st.AR, rll)
	out.Breakdown.CondCompute = ll.Loss * computeShare
	out.Breakdown.CondUncore = ll.Loss * (1 - computeShare)
	pin, loss := offChipInput(b, psu, ll.V, ll.P, c)
	out.Breakdown.OffChipVR = loss
	out.PIn = pin
	out.Rail = RailDraw{
		Name:    b.Name(),
		VOut:    ll.V,
		Current: ll.I,
		Peak:    st.PIn / st.AR / vin,
	}
	return out
}

// boardRail serves a group of domains directly from a one-stage motherboard
// VR (the MBVR pattern, Eq. 2–5): per-domain tolerance guardband, scaling to
// the shared rail voltage (domains needing less than the rail voltage still
// receive it), power-gate drop compensation, group load-line, and the
// off-chip VR. compute selects which Fig 5 conduction-loss bucket the
// load-line loss lands in.
func boardRail(b *vr.Buck, loads []Load, tob units.Volt, rpg, rll units.Ohm, psu units.Volt, c domain.CState, compute bool) railOut {
	var out railOut
	var railV units.Volt
	for _, l := range loads {
		if l.Active() && l.VNom > railV {
			railV = l.VNom
		}
	}
	if railV == 0 {
		out.Rail = RailDraw{Name: b.Name()}
		return out
	}
	var sum units.Watt
	var ppeak units.Watt
	for _, l := range loads {
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, tob, l.FL)
		// Rail sharing: a domain whose nominal voltage is below the rail
		// voltage runs over-volted; Eq. 2 gives the power inflation.
		if l.VNom < railV {
			scaled := loadline.ApplyGuardband(pgb, l.VNom+tob, railV-l.VNom, l.FL)
			pgb = scaled
		}
		out.Breakdown.Guardband += pgb - l.PNom
		ppg := loadline.ApplyPowerGate(pgb, railV+tob, l.AR, l.FL, rpg)
		out.Breakdown.PowerGate += ppg - pgb
		sum += ppg
		ppeak += ppg / l.AR
	}
	ar := sum / ppeak
	ll := loadline.Compensate(sum, railV+tob, ar, rll)
	if compute {
		out.Breakdown.CondCompute = ll.Loss
	} else {
		out.Breakdown.CondUncore = ll.Loss
	}
	pin, loss := offChipInput(b, psu, ll.V, ll.P, c)
	out.Breakdown.OffChipVR = loss
	out.PIn = pin
	out.Rail = RailDraw{
		Name:    b.Name(),
		VOut:    ll.V,
		Current: ll.I,
		Peak:    sum / ar / (railV + tob),
	}
	return out
}
