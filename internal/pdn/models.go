package pdn

import (
	"errors"
	"fmt"

	"repro/internal/units"
	"repro/internal/vr"
)

// ErrNoLoad is returned when a scenario has no active domain at all.
var ErrNoLoad = errors.New("pdn: scenario has no active load")

// Validate checks scenario invariants shared by all models: a positive,
// finite PSU voltage and, per domain, a non-negative finite power and, when
// active, a positive finite voltage, AR in (0,1] and FL in [0,1]. It runs
// the kernels' own validator on a one-point grid, so it reports exactly the
// error Evaluate and EvaluateGrid would. It takes a pointer because Scenario
// is a ~200-byte value; the scenario is not modified.
func Validate(s *Scenario) error {
	var pg pointGrid
	pg.load(s)
	g := pg.grid()
	var pt gridPointRun
	return pt.validate(&g, 0, 0)
}

// finishResult completes a result whose Breakdown, Rails, PNomTotal and PIn
// the kernel has accumulated in place: it computes ETEE and the total chip
// input current and labels the result.
func finishResult(dst *Result, kind Kind, railR units.Ohm) {
	var iin units.Amp
	for i := 0; i < dst.Rails.n; i++ {
		iin += dst.Rails.rails[i].Current
	}
	dst.PDN = kind
	dst.ETEE = dst.PNomTotal / dst.PIn
	dst.ChipInputCurrent = iin
	dst.ComputeRailR = railR
}

// IVRModel is the integrated-VR PDN (Fig 1(a)): one off-chip V_IN VR at
// 1.8 V feeding six on-die IVRs, one per domain.
type IVRModel struct {
	params Params
	ivr    vr.BuckStates // the on-die IVRs, compiled at VINLevel
	vin    offChipVR
}

// NewIVRModel constructs the IVR PDN with the given parameters.
func NewIVRModel(p Params) *IVRModel {
	return &IVRModel{
		params: p,
		ivr:    vr.NewIVR("IVR", p.IVRIccmax).CompileStates(p.VINLevel),
		vin:    newOffChipVR(vr.NewVinVR(p.VINIccmax), p.PSU),
	}
}

// Kind implements Model.
func (m *IVRModel) Kind() Kind { return IVR }

// ivrKernel is the IVR model's runner state for one Evaluate or EvaluateGrid
// call.
type ivrKernel struct {
	m     *IVRModel
	pt    gridPointRun
	stage ivrStageRun
}

// init sets up a zero kernel for m. Kernels are built in place: a
// returned copy would cost a per-call copy of the runner state.
func (k *ivrKernel) init(m *IVRModel) {
	k.m = m
	k.stage.init(&m.ivr, gridAllKinds, m.params.TOBIVR)
}

// Evaluate implements Model, following Eq. 2, 6, 7, 8, 9.
func (m *IVRModel) Evaluate(s Scenario) (Result, error) {
	var pg pointGrid
	pg.load(&s)
	g := pg.grid()
	var k ivrKernel
	k.init(m)
	if _, err := k.block(&g, 0, pg.mask[:], pg.out[:]); err != nil {
		return Result{}, err
	}
	return pg.out[0], nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()], exactly as
// Evaluate would per point. It stops at the first invalid point, returning
// Evaluate's error for it wrapped with the point index; results for
// preceding points remain valid.
func (m *IVRModel) EvaluateGrid(g *Grid, out []Result) error {
	if err := startGrid(g, out); err != nil {
		return err
	}
	var k ivrKernel
	k.init(m)
	var masks [gridMaskBlock]uint16
	for base := 0; base < g.Len(); base += gridMaskBlock {
		if i, err := k.block(g, base, g.blockMasks(base, &masks), out); err != nil {
			return GridPointError(i, err)
		}
	}
	return nil
}

// block validates and evaluates the len(masks) points of g from base into
// out, whose slots must be zero, taking each point's change mask from
// masks; the runners keep their memos from one block to the next. It stops
// at the first invalid point and returns its index and error; the points
// before it have complete results. This is the IVR power flow: the six
// domains' IVR stage on the V_IN rail, whose conduction loss splits between
// the compute and uncore paths by their share of nominal power.
func (k *ivrKernel) block(g *Grid, base int, masks []uint16, out []Result) (int, error) {
	p := &k.m.params
	var st stageOut
	for j, mk := range masks {
		i := base + j
		if err := k.pt.validate(g, i, mk); err != nil {
			return i, err
		}
		k.stage.evalInto(&st, g, i, mk)
		share := 1.0
		if total := k.pt.total; total > 0 {
			share = k.pt.computeP / total
		}
		res := &out[i]
		res.Breakdown = st.Breakdown
		res.PNomTotal = k.pt.total
		res.PIn = k.m.vin.vinRail(&st, p.VINLevel, p.IVRInLL, g.psu[i], g.cstate[i], share, &res.Breakdown, &res.Rails)
		finishResult(res, IVR, p.IVRInLL)
	}
	return 0, nil
}

// MBVRModel is the motherboard-VR PDN (Fig 1(b)): four one-stage board VRs
// (V_Cores for Core0/Core1, V_GFX for GFX and the LLC, V_SA, V_IO) and six
// on-chip power gates. The LLC shares the graphics rail: for CPU workloads
// its voltage matches the cores anyway (§7.1), while for graphics workloads
// it runs at graphics-class voltage, so pairing it with V_GFX avoids
// over-volting the (low-voltage) cores.
type MBVRModel struct {
	params             Params
	cores, gfx, sa, io offChipVR
}

// NewMBVRModel constructs the MBVR PDN.
func NewMBVRModel(p Params) *MBVRModel {
	return &MBVRModel{
		params: p,
		cores:  newOffChipVR(vr.NewBoardVR("V_Cores", p.CoresIccmax), p.PSU),
		gfx:    newOffChipVR(vr.NewBoardVR("V_GFX", p.GfxIccmax), p.PSU),
		sa:     newOffChipVR(vr.NewSmallRailVR("V_SA", p.SAIccmax), p.PSU),
		io:     newOffChipVR(vr.NewSmallRailVR("V_IO", p.IOIccmax), p.PSU),
	}
}

// Kind implements Model.
func (m *MBVRModel) Kind() Kind { return MBVR }

// mbvrKernel is the MBVR model's runner state for one Evaluate or
// EvaluateGrid call.
type mbvrKernel struct {
	m                  *MBVRModel
	pt                 gridPointRun
	cores, gfx, sa, io boardRailRun
}

// init sets up a zero kernel for m.
func (k *mbvrKernel) init(m *MBVRModel) {
	p := &m.params
	k.m = m
	k.cores.init(&m.cores, gridCoresKinds, p.TOBMBVR, p.RPG, p.CoresLL, true)
	k.gfx.init(&m.gfx, gridGfxKinds, p.TOBMBVR, p.RPG, p.GfxLL, true)
	k.sa.init(&m.sa, gridSAKinds, p.TOBMBVR, p.RPG, p.SALL, false)
	k.io.init(&m.io, gridIOKinds, p.TOBMBVR, p.RPG, p.IOLL, false)
}

// Evaluate implements Model, following Eq. 2–5 per rail.
func (m *MBVRModel) Evaluate(s Scenario) (Result, error) {
	var pg pointGrid
	pg.load(&s)
	g := pg.grid()
	var k mbvrKernel
	k.init(m)
	if _, err := k.block(&g, 0, pg.mask[:], pg.out[:]); err != nil {
		return Result{}, err
	}
	return pg.out[0], nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()], exactly as
// Evaluate would per point; see IVRModel.EvaluateGrid for the error
// contract.
func (m *MBVRModel) EvaluateGrid(g *Grid, out []Result) error {
	if err := startGrid(g, out); err != nil {
		return err
	}
	var k mbvrKernel
	k.init(m)
	var masks [gridMaskBlock]uint16
	for base := 0; base < g.Len(); base += gridMaskBlock {
		if i, err := k.block(g, base, g.blockMasks(base, &masks), out); err != nil {
			return GridPointError(i, err)
		}
	}
	return nil
}

// block is the MBVR power flow (see ivrKernel.block for the contract),
// swept rail-major — one evalBlock pass per rail with that rail's state
// held hot — instead of cycling all four runners through every point. Per
// point the PIn additions, breakdown additions and rail appends still
// happen in rail order (cores, gfx, sa, io), so the accumulation sequence,
// and therefore the bits, are the point-major order's.
func (k *mbvrKernel) block(g *Grid, base int, masks []uint16, out []Result) (int, error) {
	// Validate the block up front: rail-major evaluation finishes every
	// point of a block before moving on, so an invalid point truncates the
	// block, and the points before it still get complete results.
	n, bad := len(masks), 0
	var err error
	for j, mk := range masks {
		if err = k.pt.validate(g, base+j, mk); err != nil {
			n, bad = j, base+j
			break
		}
		out[base+j].PNomTotal = k.pt.total
	}
	k.cores.evalBlock(g, base, masks[:n], out)
	k.gfx.evalBlock(g, base, masks[:n], out)
	k.sa.evalBlock(g, base, masks[:n], out)
	k.io.evalBlock(g, base, masks[:n], out)
	for i := base; i < base+n; i++ {
		finishResult(&out[i], MBVR, k.m.params.CoresLL)
	}
	return bad, err
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
	params      Params
	kind        Kind
	ldo         *vr.LDO       // the on-chip stage when non-nil; otherwise IVRs
	ivr         vr.BuckStates // the IVRs compiled at VINLevel, when ldo is nil
	vin, sa, io offChipVR
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
		vin:      newOffChipVR(vr.NewVinVR(p.VINIccmax), p.PSU),
		sa:       newOffChipVR(vr.NewSmallRailVR("V_SA", p.SAIccmax), p.PSU),
		io:       newOffChipVR(vr.NewSmallRailVR("V_IO", p.IOIccmax), p.PSU),
		vinLL:    vinLL,
		boardTOB: boardTOB,
	}
	if withIVR {
		m.ivr = vr.NewIVR("IVR", p.IVRIccmax).CompileStates(p.VINLevel)
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

// splitRailKernel is the split-rail model's runner state for one Evaluate
// or EvaluateGrid call; one of ivrSt and ldoSt is in use.
type splitRailKernel struct {
	m      *SplitRailModel
	pt     gridPointRun
	ivrSt  ivrStageRun
	ldoSt  ldoStageRun
	sa, io boardRailRun
}

// init sets up a zero kernel for m.
func (k *splitRailKernel) init(m *SplitRailModel) {
	p := &m.params
	k.m = m
	k.sa.init(&m.sa, gridSAKinds, m.boardTOB, p.RPG, p.SALL, false)
	k.io.init(&m.io, gridIOKinds, m.boardTOB, p.RPG, p.IOLL, false)
	if m.ldo == nil {
		k.ivrSt.init(&m.ivr, gridComputeKinds, p.TOBIVR)
	} else {
		k.ldoSt.init(m.ldo, gridComputeKinds, p.TOBLDO)
	}
}

// Evaluate implements Model, following Eq. 2, 6 (IVR stage) or 10/11 (LDO
// stage), 7, 8 and 9/12 on the V_IN path and Eq. 2–5 on the SA/IO rails.
func (m *SplitRailModel) Evaluate(s Scenario) (Result, error) {
	var pg pointGrid
	pg.load(&s)
	g := pg.grid()
	var k splitRailKernel
	k.init(m)
	if _, err := k.block(&g, 0, pg.mask[:], pg.out[:]); err != nil {
		return Result{}, err
	}
	return pg.out[0], nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()], exactly as
// Evaluate would per point; see IVRModel.EvaluateGrid for the error
// contract.
func (m *SplitRailModel) EvaluateGrid(g *Grid, out []Result) error {
	if err := startGrid(g, out); err != nil {
		return err
	}
	var k splitRailKernel
	k.init(m)
	var masks [gridMaskBlock]uint16
	for base := 0; base < g.Len(); base += gridMaskBlock {
		if i, err := k.block(g, base, g.blockMasks(base, &masks), out); err != nil {
			return GridPointError(i, err)
		}
	}
	return nil
}

// block is the split-rail power flow (see ivrKernel.block for the
// contract). All three rails run point-major: on
// sweep-shaped grids the SA/IO rails are mostly whole-rail memo hits, and
// sweeping them rail-major as the MBVR kernel does only re-reads the result
// block (measured slower for every split-rail PDN).
func (k *splitRailKernel) block(g *Grid, base int, masks []uint16, out []Result) (int, error) {
	m := k.m
	var st stageOut
	for j, mk := range masks {
		i := base + j
		if err := k.pt.validate(g, i, mk); err != nil {
			return i, err
		}
		vinLevel := m.params.VINLevel
		if m.ldo == nil {
			k.ivrSt.evalInto(&st, g, i, mk)
		} else {
			vinLevel = k.ldoSt.evalInto(&st, g, i, mk)
		}
		res := &out[i]
		var pin units.Watt
		if st.PIn > 0 {
			res.Breakdown.addFrom(&st.Breakdown)
			pin += m.vin.vinRail(&st, vinLevel, m.vinLL, g.psu[i], g.cstate[i], 1, &res.Breakdown, &res.Rails)
		}
		saP := k.sa.evalInto(g, i, mk, &res.Breakdown, &res.Rails)
		ioP := k.io.evalInto(g, i, mk, &res.Breakdown, &res.Rails)
		pin += saP + ioP
		res.PNomTotal = k.pt.total
		res.PIn = pin
		finishResult(res, m.kind, m.vinLL)
	}
	return 0, nil
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
