package pdn

import (
	"fmt"
	"math"

	"repro/internal/domain"
	"repro/internal/loadline"
	"repro/internal/units"
	"repro/internal/vr"
)

// This file keeps a frozen scalar implementation of the PDN power flow as
// the reference for the grid kernels: the stage functions of paper §3.1
// (ivrStage, ldoStage, vinRail, boardRail, offChipInput), one Evaluate
// body per model type (oracleEvaluate) and the scenario checks
// (oracleValidate). The kernels must return these bits exactly — every
// Result field, every error text — on every point, which the oracle tests
// and FuzzEvaluateOracle pin. Change the physics here only together with
// the kernels, deliberately.

// oracleValidate checks scenario invariants shared by all models.
func oracleValidate(s *Scenario) error {
	if s.PSU <= 0 {
		return fmt.Errorf("pdn: PSU voltage must be positive, got %g", s.PSU)
	}
	if !(s.PSU <= math.MaxFloat64) {
		return fmt.Errorf("pdn: PSU voltage must be finite, got %g", s.PSU)
	}
	active := false
	for k := range s.Loads {
		l := s.Loads[k]
		if l.PNom < 0 {
			return fmt.Errorf("pdn: %v has negative power %g", domain.Kind(k), l.PNom)
		}
		if !(l.PNom <= math.MaxFloat64) {
			return fmt.Errorf("pdn: %v has non-finite power %g", domain.Kind(k), l.PNom)
		}
		if !l.Active() {
			continue
		}
		active = true
		if l.VNom <= 0 {
			return fmt.Errorf("pdn: %v active with non-positive voltage %g", domain.Kind(k), l.VNom)
		}
		if !(l.VNom <= math.MaxFloat64) {
			return fmt.Errorf("pdn: %v active with non-finite voltage %g", domain.Kind(k), l.VNom)
		}
		if !(l.AR > 0 && l.AR <= 1) {
			return fmt.Errorf("pdn: %v has AR %g outside (0,1]", domain.Kind(k), l.AR)
		}
		if !(l.FL >= 0 && l.FL <= 1) {
			return fmt.Errorf("pdn: %v has FL %g outside [0,1]", domain.Kind(k), l.FL)
		}
	}
	if !active {
		return ErrNoLoad
	}
	return nil
}

// oracleEvaluate computes the scalar power flow of m on s.
func oracleEvaluate(m Model, s Scenario) (Result, error) {
	switch m := m.(type) {
	case *IVRModel:
		return oracleIVR(m, s)
	case *MBVRModel:
		return oracleMBVR(m, s)
	case *SplitRailModel:
		return oracleSplitRail(m, s)
	}
	panic(fmt.Sprintf("pdn: no oracle for %T", m))
}

// oracleIVR follows Eq. 2, 6, 7, 8, 9.
func oracleIVR(m *IVRModel, s Scenario) (Result, error) {
	if err := oracleValidate(&s); err != nil {
		return Result{}, err
	}
	p := m.params
	var computeP, total units.Watt
	for k := range s.Loads {
		total += s.Loads[k].PNom
		if domain.Kind(k).IsCompute() {
			computeP += s.Loads[k].PNom
		}
	}
	st := ivrStage(s.Loads[:], vr.NewIVR("IVR", p.IVRIccmax), p.TOBIVR, p.VINLevel, s.CState)
	share := 1.0
	if total > 0 {
		share = computeP / total
	}
	rail := vinRail(m.vin.buck, st, p.VINLevel, p.IVRInLL, s.PSU, s.CState, share)
	bd := st.Breakdown
	bd.addFrom(&rail.Breakdown)
	var rails RailSet
	rails.Append(rail.Rail)
	return finish(IVR, total, rail.PIn, bd, rails, p.IVRInLL), nil
}

// oracleMBVR follows Eq. 2–5 per rail.
func oracleMBVR(m *MBVRModel, s Scenario) (Result, error) {
	if err := oracleValidate(&s); err != nil {
		return Result{}, err
	}
	p := m.params
	var pin units.Watt
	var bd Breakdown
	var rails RailSet
	coresOut := boardRail(m.cores.buck, []Load{s.Loads[domain.Core0], s.Loads[domain.Core1]}, p.TOBMBVR, p.RPG, p.CoresLL, s.PSU, s.CState, true)
	gfxOut := boardRail(m.gfx.buck, []Load{s.Loads[domain.GFX], s.Loads[domain.LLC]}, p.TOBMBVR, p.RPG, p.GfxLL, s.PSU, s.CState, true)
	saOut := boardRail(m.sa.buck, []Load{s.Loads[domain.SA]}, p.TOBMBVR, p.RPG, p.SALL, s.PSU, s.CState, false)
	ioOut := boardRail(m.io.buck, []Load{s.Loads[domain.IO]}, p.TOBMBVR, p.RPG, p.IOLL, s.PSU, s.CState, false)
	for _, out := range []railOut{coresOut, gfxOut, saOut, ioOut} {
		pin += out.PIn
		bd.addFrom(&out.Breakdown)
		rails.Append(out.Rail)
	}
	return finish(MBVR, s.TotalNominal(), pin, bd, rails, p.CoresLL), nil
}

// oracleSplitRail follows Eq. 2, 6 (IVR stage) or 10/11 (LDO stage), 7, 8
// and 9/12 on the V_IN path and Eq. 2–5 on the SA/IO rails.
func oracleSplitRail(m *SplitRailModel, s Scenario) (Result, error) {
	if err := oracleValidate(&s); err != nil {
		return Result{}, err
	}
	p := &m.params
	compute := s.Loads[domain.Core0 : domain.GFX+1]
	var vinLevel units.Volt
	var st stageOut
	if m.ldo == nil {
		vinLevel = p.VINLevel
		st = ivrStage(compute, vr.NewIVR("IVR", p.IVRIccmax), p.TOBIVR, vinLevel, s.CState)
	} else {
		vinLevel, st = ldoStage(compute, m.ldo, p.TOBLDO)
	}

	var pin units.Watt
	var bd Breakdown
	var rails RailSet
	if st.PIn > 0 {
		rail := vinRail(m.vin.buck, st, vinLevel, m.vinLL, s.PSU, s.CState, 1)
		pin += rail.PIn
		bd.addFrom(&st.Breakdown)
		bd.addFrom(&rail.Breakdown)
		rails.Append(rail.Rail)
	}
	saOut := boardRail(m.sa.buck, s.Loads[domain.SA:domain.SA+1], m.boardTOB, p.RPG, p.SALL, s.PSU, s.CState, false)
	ioOut := boardRail(m.io.buck, s.Loads[domain.IO:domain.IO+1], m.boardTOB, p.RPG, p.IOLL, s.PSU, s.CState, false)
	pin += saOut.PIn + ioOut.PIn
	bd.addFrom(&saOut.Breakdown)
	bd.addFrom(&ioOut.Breakdown)
	rails.Append(saOut.Rail)
	rails.Append(ioOut.Rail)
	return finish(m.kind, s.TotalNominal(), pin, bd, rails, m.vinLL), nil
}

// finish assembles a Result from accumulated parts, computing ETEE and the
// total chip input current.
func finish(kind Kind, pnom units.Watt, pin units.Watt, bd Breakdown, rails RailSet, railR units.Ohm) Result {
	var iin units.Amp
	for i := 0; i < rails.n; i++ {
		iin += rails.rails[i].Current
	}
	return Result{
		PDN:              kind,
		PNomTotal:        pnom,
		PIn:              pin,
		ETEE:             pnom / pin,
		Breakdown:        bd,
		ChipInputCurrent: iin,
		ComputeRailR:     railR,
		Rails:            rails,
	}
}

// offChipInput runs an off-chip buck VR stage: given power p delivered at
// rail voltage vout, it returns the input power drawn from the PSU and the
// conversion loss, selecting the VR power state per the package state.
func offChipInput(b *vr.Buck, psu, vout units.Volt, p units.Watt, c domain.CState) (pin, loss units.Watt) {
	if p == 0 {
		return 0, 0
	}
	iout := p / vout
	state := VRStateFor(c, iout)
	eta := b.Efficiency(vr.OperatingPoint{Vin: psu, Vout: vout, Iout: iout, State: state})
	pin = p / eta
	return pin, pin - p
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

// sameBits reports whether two results carry identical bits in every
// field: floats compare by math.Float64bits, so NaN payloads and signed
// zeros count.
func sameBits(a, b Result) bool {
	if a.PDN != b.PDN || a.Rails.n != b.Rails.n {
		return false
	}
	fa, fb := resultFloats(&a), resultFloats(&b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	for i := range a.Rails.rails {
		if a.Rails.rails[i].Name != b.Rails.rails[i].Name {
			return false
		}
	}
	return true
}

// resultFloats lists every float field of r, rails included.
func resultFloats(r *Result) []float64 {
	b := &r.Breakdown
	f := []float64{
		r.PNomTotal, r.PIn, r.ETEE, r.ChipInputCurrent, r.ComputeRailR,
		b.Guardband, b.PowerGate, b.OnChipVR, b.OffChipVR, b.CondCompute, b.CondUncore,
	}
	for _, rd := range r.Rails.rails {
		f = append(f, rd.VOut, rd.Current, rd.Peak)
	}
	return f
}
