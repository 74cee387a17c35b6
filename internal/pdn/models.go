package pdn

import (
	"errors"
	"fmt"

	"repro/internal/domain"
	"repro/internal/units"
	"repro/internal/vr"
)

// ErrNoLoad is returned when a scenario has no active domain at all.
var ErrNoLoad = errors.New("pdn: scenario has no active load")

// Validate checks scenario invariants shared by all models. It takes a
// pointer because it sits on the per-evaluation hot path and Scenario is a
// ~200-byte value; the scenario is not modified.
func Validate(s *Scenario) error {
	if s.PSU <= 0 {
		return fmt.Errorf("pdn: PSU voltage must be positive, got %g", s.PSU)
	}
	active := false
	for k := range s.Loads {
		l := s.Loads[k]
		if l.PNom < 0 {
			return fmt.Errorf("pdn: %v has negative power %g", domain.Kind(k), l.PNom)
		}
		if !l.Active() {
			continue
		}
		active = true
		if l.VNom <= 0 {
			return fmt.Errorf("pdn: %v active with non-positive voltage %g", domain.Kind(k), l.VNom)
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

// finish assembles a Result from accumulated parts, computing ETEE and the
// total chip input current. pnom is the scenario's total nominal power
// (Scenario.TotalNominal), which every model already has in hand.
func finish(kind Kind, pnom units.Watt, pin units.Watt, bd Breakdown, rails RailSet, railR units.Ohm) Result {
	r := Result{Breakdown: bd, Rails: rails}
	finishResult(&r, kind, pnom, pin, railR)
	return r
}

// finishResult completes a Result whose Breakdown and Rails are already in
// place: the scalar models through finish, and the grid kernels, which
// accumulate each point's Breakdown and Rails directly inside their
// caller's result block (a Result is ~260 bytes, mostly the rail set, and
// building one on the stack only to copy it out is a measurable fraction
// of a batch point's budget). Both paths run this arithmetic, so they
// produce identical bits.
func finishResult(dst *Result, kind Kind, pnom units.Watt, pin units.Watt, railR units.Ohm) {
	var iin units.Amp
	for i := 0; i < dst.Rails.n; i++ {
		iin += dst.Rails.rails[i].Current
	}
	dst.PDN = kind
	dst.PNomTotal = pnom
	dst.PIn = pin
	dst.ETEE = pnom / pin
	dst.ChipInputCurrent = iin
	dst.ComputeRailR = railR
}

// IVRModel is the integrated-VR PDN (Fig 1(a)): one off-chip V_IN VR at
// 1.8 V feeding six on-die IVRs, one per domain.
type IVRModel struct {
	params Params
	ivr    *vr.Buck
	vin    *vr.Buck
}

// NewIVRModel constructs the IVR PDN with the given parameters.
func NewIVRModel(p Params) *IVRModel {
	return &IVRModel{
		params: p,
		ivr:    vr.NewIVR("IVR", p.IVRIccmax),
		vin:    vr.NewVinVR(p.VINIccmax),
	}
}

// Kind implements Model.
func (m *IVRModel) Kind() Kind { return IVR }

// Evaluate implements Model, following Eq. 2, 6, 7, 8, 9.
func (m *IVRModel) Evaluate(s Scenario) (Result, error) {
	if err := Validate(&s); err != nil {
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
	st := ivrStage(s.Loads[:], m.ivr, p.TOBIVR, p.VINLevel, s.CState)
	share := 1.0
	if total > 0 {
		share = computeP / total
	}
	rail := vinRail(m.vin, st, p.VINLevel, p.IVRInLL, s.PSU, s.CState, share)
	bd := st.Breakdown
	bd.Add(rail.Breakdown)
	var rails RailSet
	rails.Append(rail.Rail)
	return finish(IVR, total, rail.PIn, bd, rails, p.IVRInLL), nil
}

// MBVRModel is the motherboard-VR PDN (Fig 1(b)): four one-stage board VRs
// (V_Cores for Core0/Core1, V_GFX for GFX and the LLC, V_SA, V_IO) and six
// on-chip power gates. The LLC shares the graphics rail: for CPU workloads
// its voltage matches the cores anyway (§7.1), while for graphics workloads
// it runs at graphics-class voltage, so pairing it with V_GFX avoids
// over-volting the (low-voltage) cores.
type MBVRModel struct {
	params Params
	cores  *vr.Buck
	gfx    *vr.Buck
	sa     *vr.Buck
	io     *vr.Buck
}

// NewMBVRModel constructs the MBVR PDN.
func NewMBVRModel(p Params) *MBVRModel {
	return &MBVRModel{
		params: p,
		cores:  vr.NewBoardVR("V_Cores", p.CoresIccmax),
		gfx:    vr.NewBoardVR("V_GFX", p.GfxIccmax),
		sa:     vr.NewSmallRailVR("V_SA", p.SAIccmax),
		io:     vr.NewSmallRailVR("V_IO", p.IOIccmax),
	}
}

// Kind implements Model.
func (m *MBVRModel) Kind() Kind { return MBVR }

// Evaluate implements Model, following Eq. 2–5 per rail.
func (m *MBVRModel) Evaluate(s Scenario) (Result, error) {
	if err := Validate(&s); err != nil {
		return Result{}, err
	}
	p := m.params
	var pin units.Watt
	var bd Breakdown
	var rails RailSet
	coresOut := boardRail(m.cores, []Load{s.Loads[domain.Core0], s.Loads[domain.Core1]}, p.TOBMBVR, p.RPG, p.CoresLL, s.PSU, s.CState, true)
	gfxOut := boardRail(m.gfx, []Load{s.Loads[domain.GFX], s.Loads[domain.LLC]}, p.TOBMBVR, p.RPG, p.GfxLL, s.PSU, s.CState, true)
	saOut := boardRail(m.sa, []Load{s.Loads[domain.SA]}, p.TOBMBVR, p.RPG, p.SALL, s.PSU, s.CState, false)
	ioOut := boardRail(m.io, []Load{s.Loads[domain.IO]}, p.TOBMBVR, p.RPG, p.IOLL, s.PSU, s.CState, false)
	for _, out := range []railOut{coresOut, gfxOut, saOut, ioOut} {
		pin += out.PIn
		bd.Add(out.Breakdown)
		rails.Append(out.Rail)
	}
	return finish(MBVR, s.TotalNominal(), pin, bd, rails, p.CoresLL), nil
}

// SplitRailModel is the split-rail PDN: the compute domains (cores, LLC,
// GFX) sit behind on-chip regulators fed from one shared V_IN rail, while
// SA and IO ride dedicated one-stage board VRs with power gates. One
// topology serves four PDNs, which differ only in the on-chip stage, the
// V_IN load-line, the SA/IO tolerance band and the reported kind:
//
//   - LDO (Fig 1(c), AMD Zen style): LDOs regulating down from a V_IN rail
//     at the maximum compute voltage (NewLDOModel);
//   - I+MBVR (§7, Skylake-X style): IVRs on the 1.8 V V_IN rail, as in the
//     IVR PDN, with SA/IO at the MBVR tolerance band (NewIMBVRModel);
//   - FlexWatts' IVR-Mode and LDO-Mode (§6): the same two flows with the
//     V_IN load-line scaled by the hybrid's sharing penalty and SA/IO at
//     the LDO tolerance band (NewFlexWattsModes).
type SplitRailModel struct {
	params Params
	kind   Kind
	ivr    *vr.Buck // the on-chip stage when non-nil; otherwise ldo
	ldo    *vr.LDO
	vin    *vr.Buck
	sa     *vr.Buck
	io     *vr.Buck
	// vinLL is the V_IN load-line, also reported as ComputeRailR.
	vinLL units.Ohm
	// boardTOB is the SA/IO rails' tolerance band.
	boardTOB units.Volt
}

// newSplitRail constructs a split-rail PDN with an IVR stage (withIVR) or
// an LDO stage.
func newSplitRail(p Params, kind Kind, withIVR bool, vinLL units.Ohm, boardTOB units.Volt) *SplitRailModel {
	m := &SplitRailModel{
		params:   p,
		kind:     kind,
		vin:      vr.NewVinVR(p.VINIccmax),
		sa:       vr.NewSmallRailVR("V_SA", p.SAIccmax),
		io:       vr.NewSmallRailVR("V_IO", p.IOIccmax),
		vinLL:    vinLL,
		boardTOB: boardTOB,
	}
	if withIVR {
		m.ivr = vr.NewIVR("IVR", p.IVRIccmax)
	} else {
		m.ldo = vr.NewPlatformLDO("LDO", p.IVRIccmax)
	}
	return m
}

// NewLDOModel constructs the LDO PDN.
func NewLDOModel(p Params) *SplitRailModel {
	return newSplitRail(p, LDO, false, p.LDOInLL, p.TOBLDO)
}

// NewIMBVRModel constructs the I+MBVR PDN.
func NewIMBVRModel(p Params) *SplitRailModel {
	return newSplitRail(p, IMBVR, true, p.IVRInLL, p.TOBMBVR)
}

// NewFlexWattsModes constructs the power flow of FlexWatts' two hybrid
// modes, both reported as FlexWatts. The hybrid VRs share the IVR's power
// switch, decoupling capacitors, routing and V_IN VR between the modes, so
// each mode's V_IN load-line is its static counterpart's times
// Params.FlexSharePenalty; SA and IO always sit on the LDO PDN's board
// rails. The mode policy (predictor, switch flow) lives in internal/core.
func NewFlexWattsModes(p Params) (ivrMode, ldoMode *SplitRailModel) {
	return newSplitRail(p, FlexWatts, true, p.IVRInLL*p.FlexSharePenalty, p.TOBLDO),
		newSplitRail(p, FlexWatts, false, p.LDOInLL*p.FlexSharePenalty, p.TOBLDO)
}

// Kind implements Model.
func (m *SplitRailModel) Kind() Kind { return m.kind }

// Evaluate implements Model, following Eq. 2, 6 (IVR stage) or 10/11 (LDO
// stage), 7, 8 and 9/12 on the V_IN path and Eq. 2–5 on the SA/IO rails.
func (m *SplitRailModel) Evaluate(s Scenario) (Result, error) {
	if err := Validate(&s); err != nil {
		return Result{}, err
	}
	p := &m.params
	compute := s.Loads[domain.Core0 : domain.GFX+1]
	var vinLevel units.Volt
	var st stageOut
	if m.ivr != nil {
		vinLevel = p.VINLevel
		st = ivrStage(compute, m.ivr, p.TOBIVR, vinLevel, s.CState)
	} else {
		vinLevel, st = ldoStage(compute, m.ldo, p.TOBLDO)
	}

	var pin units.Watt
	var bd Breakdown
	var rails RailSet
	if st.PIn > 0 {
		rail := vinRail(m.vin, st, vinLevel, m.vinLL, s.PSU, s.CState, 1)
		pin += rail.PIn
		bd.Add(st.Breakdown)
		bd.Add(rail.Breakdown)
		rails.Append(rail.Rail)
	}
	saOut := boardRail(m.sa, s.Loads[domain.SA:domain.SA+1], m.boardTOB, p.RPG, p.SALL, s.PSU, s.CState, false)
	ioOut := boardRail(m.io, s.Loads[domain.IO:domain.IO+1], m.boardTOB, p.RPG, p.IOLL, s.PSU, s.CState, false)
	pin += saOut.PIn + ioOut.PIn
	bd.Add(saOut.Breakdown)
	bd.Add(ioOut.Breakdown)
	rails.Append(saOut.Rail)
	rails.Append(ioOut.Rail)
	return finish(m.kind, s.TotalNominal(), pin, bd, rails, m.vinLL), nil
}

// New constructs a baseline model of the given kind (not FlexWatts, whose
// two modes come from NewFlexWattsModes and whose mode policy lives in
// internal/core).
func New(k Kind, p Params) (Model, error) {
	switch k {
	case IVR:
		return NewIVRModel(p), nil
	case MBVR:
		return NewMBVRModel(p), nil
	case LDO:
		return NewLDOModel(p), nil
	case IMBVR:
		return NewIMBVRModel(p), nil
	default:
		return nil, fmt.Errorf("pdn: no baseline model for %v", k)
	}
}
