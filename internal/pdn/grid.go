package pdn

import (
	"fmt"
	"math"

	"repro/internal/domain"
	"repro/internal/loadline"
	"repro/internal/units"
	"repro/internal/vr"
)

// This file implements the PDN models' one power flow: a struct-of-arrays
// scenario Grid and the runners each model's kernel block is assembled
// from (the IVR and LDO stages, the V_IN rail and the one-stage board
// rails), each following the equations of paper §3.1. Evaluate runs a
// model's block on a one-point grid whose columns live on the caller's
// stack; EvaluateGrid runs it over gridMaskBlock-point blocks; Validate
// runs the block's validator on one point. oracle_test.go keeps a frozen
// scalar implementation of the same flow as the reference, and the tests
// pin every kernel to it bit for bit, errors included.
//
// Three invariant classes are hoisted out of the per-point work:
//
//   - compiled VR operating points (vr.BuckStates): the per-(Vin, power
//     state) terms of the buck loss model, compiled when a model is built
//     — on-chip IVRs at their fixed input rail, board VRs at Params.PSU (a
//     point at another PSU compiles only the state it selects);
//   - stage-output memos: the guardband+VR work of the IVR and LDO stages
//     depends on (PNom, VNom, FL) per domain — the application ratio AR
//     enters only the peak-power accumulator — so across grid runs where
//     only AR varies (load-generator batches, AR sweeps) the stage replays
//     stored per-domain outputs and recomputes just the peak sum;
//   - whole-rail memos: a board rail whose loads, package state and PSU
//     repeat (the SA/IO rails, whose power is constant across TDP grids)
//     returns its stored output wholesale.
//
// A memo hit replays bits a full computation produced from bit-identical
// inputs, so it returns exactly what the full path would. The runners read
// grid columns in place — no per-point Scenario is ever materialized on
// the hot path (assembling one is a ~200-byte gather that costs as much as
// the arithmetic it feeds). The memos are depth-1 (previous point) and live
// in per-call stack state, so evaluation is safe for concurrent use and
// allocates nothing.

// Grid is a batch of evaluation scenarios in struct-of-arrays layout:
// one parallel slice per load field per domain, plus per-point package
// state and PSU voltage. Column i across all slices is exactly the
// Scenario returned by At(i); Append/Set/At convert between the two
// representations. The zero Grid is empty and ready to Append into.
type Grid struct {
	n      int
	pnom   [domain.NumKinds][]units.Watt
	vnom   [domain.NumKinds][]units.Volt
	fl     [domain.NumKinds][]float64
	ar     [domain.NumKinds][]float64
	cstate []domain.CState
	psu    []units.Volt
}

// NewGrid returns an empty grid with capacity for n points.
func NewGrid(n int) *Grid {
	g := &Grid{}
	for k := range g.pnom {
		g.pnom[k] = make([]units.Watt, 0, n)
		g.vnom[k] = make([]units.Volt, 0, n)
		g.fl[k] = make([]float64, 0, n)
		g.ar[k] = make([]float64, 0, n)
	}
	g.cstate = make([]domain.CState, 0, n)
	g.psu = make([]units.Volt, 0, n)
	return g
}

// GridOf builds a grid from a slice of scenarios.
func GridOf(scenarios []Scenario) *Grid {
	g := NewGrid(len(scenarios))
	for _, s := range scenarios {
		g.Append(s)
	}
	return g
}

// Len returns the number of points.
func (g *Grid) Len() int { return g.n }

// Append adds a scenario as the next point.
func (g *Grid) Append(s Scenario) {
	for k := range s.Loads {
		g.pnom[k] = append(g.pnom[k], s.Loads[k].PNom)
		g.vnom[k] = append(g.vnom[k], s.Loads[k].VNom)
		g.fl[k] = append(g.fl[k], s.Loads[k].FL)
		g.ar[k] = append(g.ar[k], s.Loads[k].AR)
	}
	g.cstate = append(g.cstate, s.CState)
	g.psu = append(g.psu, s.PSU)
	g.n++
}

// Set overwrites point i.
func (g *Grid) Set(i int, s Scenario) {
	for k := range s.Loads {
		g.pnom[k][i] = s.Loads[k].PNom
		g.vnom[k][i] = s.Loads[k].VNom
		g.fl[k][i] = s.Loads[k].FL
		g.ar[k][i] = s.Loads[k].AR
	}
	g.cstate[i] = s.CState
	g.psu[i] = s.PSU
}

// At gathers point i back into a Scenario.
func (g *Grid) At(i int) Scenario {
	var s Scenario
	for k := range s.Loads {
		s.Loads[k] = Load{
			PNom: g.pnom[k][i],
			VNom: g.vnom[k][i],
			FL:   g.fl[k][i],
			AR:   g.ar[k][i],
		}
	}
	s.CState = g.cstate[i]
	s.PSU = g.psu[i]
	return s
}

// Change masks: the kernel loops detect point-to-point repetition with one
// column-major prepass per block instead of scattered per-runner key
// compares. ChangeMasks writes, for each point, a bitmask of which fields
// equal the previous point's: bits 0..NumKinds-1 flag "this domain's
// AR-free load fields (PNom, VNom, FL) are unchanged", bits
// NumKinds..2*NumKinds-1 flag "this domain's AR is unchanged", and the two
// top bits flag the package state and PSU voltage. A runner then tests a
// single precomputed mask against its needs — equality chains transitively
// point to point, so "unchanged since my last full compute" is one AND+CMP.
// Equality is float ==, exactly the predicate the depth-1 memos always
// used: NaN compares unequal (forcing the full path), and ±0 drift is
// unobservable because a load with zero power is inert in every hoisted
// quantity.
const (
	gridMaskARShift = uint(domain.NumKinds)
	gridMaskCState  = uint16(1) << (2 * domain.NumKinds)
	gridMaskPSU     = uint16(1) << (2*domain.NumKinds + 1)
	gridMaskAllFree = uint16(1)<<domain.NumKinds - 1
	gridMaskAllAR   = gridMaskAllFree << gridMaskARShift
)

// gridMaskBlock is the number of points a kernel prepasses at a time; the
// mask buffer is a stack array of this size, keeping EvaluateGrid
// allocation-free for grids of any length.
const gridMaskBlock = 1024

// ChangeMasks fills masks[j] with the change bits of point lo+j relative to
// point lo+j-1 (masks[0] is zero when lo is 0: the first point has no
// predecessor and always takes the full path). The scan is column-major —
// one sequential sweep per field column — which is what makes the prepass
// cheaper than the per-point scattered compares it replaces.
func (g *Grid) ChangeMasks(lo int, masks []uint16) {
	for j := range masks {
		masks[j] = 0
	}
	start := 0
	if lo == 0 {
		start = 1
	}
	for k := 0; k < int(domain.NumKinds); k++ {
		pn, vn, fl, ar := g.pnom[k], g.vnom[k], g.fl[k], g.ar[k]
		fbit := uint16(1) << k
		abit := uint16(1) << (gridMaskARShift + uint(k))
		for j := start; j < len(masks); j++ {
			i := lo + j
			m := masks[j]
			if pn[i] == pn[i-1] && vn[i] == vn[i-1] && fl[i] == fl[i-1] {
				m |= fbit
			}
			if ar[i] == ar[i-1] {
				m |= abit
			}
			masks[j] = m
		}
	}
	cs, ps := g.cstate, g.psu
	for j := start; j < len(masks); j++ {
		i := lo + j
		if cs[i] == cs[i-1] {
			masks[j] |= gridMaskCState
		}
		if ps[i] == ps[i-1] {
			masks[j] |= gridMaskPSU
		}
	}
}

// gridPointRun memoizes the per-point validation and nominal-power sums of
// a kernel block. validate is the package's one scenario validator (Validate
// runs it on a one-point grid), reading the columns in place. The checks
// and sums depend only on the AR-free load fields plus the per-load AR
// range test, so across grid points where only AR varies (the mask says
// every AR-free column repeats) the runner re-checks just the changed ARs
// and replays the stored totals. The hit path is sound because every
// skipped predicate ran on bit-identical inputs when the memo was stored:
// same bits, same verdict, and the first failure the full check would
// report — all non-AR checks passing — is necessarily the first failing
// changed AR in domain order, which the hit path reports identically. Not
// safe for concurrent use.
type gridPointRun struct {
	valid bool
	// total is ΣPNOM of the last successfully validated point, in
	// Scenario.TotalNominal's accumulation order; computeP is its
	// compute-domain subtotal, in the IVR model's accumulation order.
	total    units.Watt
	computeP units.Watt
}

// validate checks point i, taking its change mask from ChangeMasks; on
// success it memoizes the point's total and compute subtotal.
func (r *gridPointRun) validate(g *Grid, i int, m uint16) error {
	if psu := g.psu[i]; psu <= 0 {
		return fmt.Errorf("pdn: PSU voltage must be positive, got %g", psu)
	} else if !(psu <= math.MaxFloat64) {
		return fmt.Errorf("pdn: PSU voltage must be finite, got %g", psu)
	}
	if r.valid && m&gridMaskAllFree == gridMaskAllFree {
		if m&gridMaskAllAR == gridMaskAllAR {
			return nil
		}
		for k := domain.Kind(0); k < domain.NumKinds; k++ {
			if m&(1<<(gridMaskARShift+uint(k))) != 0 {
				continue
			}
			if !(g.pnom[k][i] > 0) {
				continue
			}
			if ar := g.ar[k][i]; !(ar > 0 && ar <= 1) {
				return fmt.Errorf("pdn: %v has AR %g outside (0,1]", k, ar)
			}
		}
		return nil
	}
	r.valid = false
	active := false
	var total, computeP units.Watt
	for k := domain.Kind(0); k < domain.NumKinds; k++ {
		pnom := g.pnom[k][i]
		if pnom < 0 {
			return fmt.Errorf("pdn: %v has negative power %g", k, pnom)
		}
		if !(pnom <= math.MaxFloat64) {
			return fmt.Errorf("pdn: %v has non-finite power %g", k, pnom)
		}
		total += pnom
		if k.IsCompute() {
			computeP += pnom
		}
		if !(pnom > 0) {
			continue
		}
		active = true
		if vnom := g.vnom[k][i]; vnom <= 0 {
			return fmt.Errorf("pdn: %v active with non-positive voltage %g", k, vnom)
		} else if !(vnom <= math.MaxFloat64) {
			return fmt.Errorf("pdn: %v active with non-finite voltage %g", k, vnom)
		}
		if ar := g.ar[k][i]; !(ar > 0 && ar <= 1) {
			return fmt.Errorf("pdn: %v has AR %g outside (0,1]", k, ar)
		}
		if fl := g.fl[k][i]; !(fl >= 0 && fl <= 1) {
			return fmt.Errorf("pdn: %v has FL %g outside [0,1]", k, fl)
		}
	}
	if !active {
		return ErrNoLoad
	}
	r.total, r.computeP = total, computeP
	r.valid = true
	return nil
}

// Reset truncates the grid to zero points, keeping capacity, so a pooled
// or scratch grid refills without allocating.
func (g *Grid) Reset() {
	for k := range g.pnom {
		g.pnom[k] = g.pnom[k][:0]
		g.vnom[k] = g.vnom[k][:0]
		g.fl[k] = g.fl[k][:0]
		g.ar[k] = g.ar[k][:0]
	}
	g.cstate = g.cstate[:0]
	g.psu = g.psu[:0]
	g.n = 0
}

// View returns a sub-grid over points [lo, hi) sharing the receiver's
// storage — the chunking primitive for parallel sweep workers. Mutating a
// view's points mutates the parent.
func (g *Grid) View(lo, hi int) Grid {
	var v Grid
	v.n = hi - lo
	for k := range g.pnom {
		v.pnom[k] = g.pnom[k][lo:hi]
		v.vnom[k] = g.vnom[k][lo:hi]
		v.fl[k] = g.fl[k][lo:hi]
		v.ar[k] = g.ar[k][lo:hi]
	}
	v.cstate = g.cstate[lo:hi]
	v.psu = g.psu[lo:hi]
	return v
}

// pointGrid is the stack state of one Evaluate call: a one-point grid's
// columns, its change mask (zero: the point has no predecessor) and its
// result slot.
type pointGrid struct {
	pnom   [domain.NumKinds][1]units.Watt
	vnom   [domain.NumKinds][1]units.Volt
	fl     [domain.NumKinds][1]float64
	ar     [domain.NumKinds][1]float64
	cstate [1]domain.CState
	psu    [1]units.Volt
	mask   [1]uint16
	out    [1]Result
}

// load copies s into p's columns.
func (p *pointGrid) load(s *Scenario) {
	for k := range s.Loads {
		l := &s.Loads[k]
		p.pnom[k][0], p.vnom[k][0], p.fl[k][0], p.ar[k][0] = l.PNom, l.VNom, l.FL, l.AR
	}
	p.cstate[0], p.psu[0] = s.CState, s.PSU
}

// grid returns a one-point grid over p's columns.
func (p *pointGrid) grid() Grid {
	g := Grid{n: 1, cstate: p.cstate[:], psu: p.psu[:]}
	for k := range p.pnom {
		g.pnom[k], g.vnom[k], g.fl[k], g.ar[k] = p.pnom[k][:], p.vnom[k][:], p.fl[k][:], p.ar[k][:]
	}
	return g
}

// startGrid checks and zeroes an EvaluateGrid call's result block. The
// runners then accumulate each point's Breakdown, Rails, PNomTotal and PIn
// directly inside out[i] — one streaming memclr up front replaces a
// per-point stack build plus ~220-byte copy — and unused rail slots stay
// zero.
func startGrid(g *Grid, out []Result) error {
	if err := CheckGridOut(g, out); err != nil {
		return err
	}
	clear(out[:g.Len()])
	return nil
}

// blockMasks fills buf with the change masks of the gridMaskBlock-point
// block starting at base, truncated to the grid's end, and returns them.
func (g *Grid) blockMasks(base int, buf *[gridMaskBlock]uint16) []uint16 {
	masks := buf[:min(g.n-base, gridMaskBlock)]
	g.ChangeMasks(base, masks)
	return masks
}

// kindSet is the load set a stage or rail runner serves, in iteration
// order, with its change-mask bits: free flags the set's AR-free load
// fields, ar its application ratios.
type kindSet struct {
	kinds    []domain.Kind
	free, ar uint16
}

func newKindSet(kinds ...domain.Kind) kindSet {
	ks := kindSet{kinds: kinds}
	for _, k := range kinds {
		ks.free |= 1 << k
		ks.ar |= 1 << (gridMaskARShift + uint(k))
	}
	return ks
}

// The runners' load sets. Package-level so constructing a runner
// allocates nothing.
var (
	gridAllKinds     = newKindSet(domain.Core0, domain.Core1, domain.LLC, domain.GFX, domain.SA, domain.IO)
	gridComputeKinds = newKindSet(domain.Core0, domain.Core1, domain.LLC, domain.GFX)
	gridCoresKinds   = newKindSet(domain.Core0, domain.Core1)
	gridGfxKinds     = newKindSet(domain.GFX, domain.LLC)
	gridSAKinds      = newKindSet(domain.SA)
	gridIOKinds      = newKindSet(domain.IO)
)

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

// ivrStageRun applies Eq. 2 and Eq. 6 to each active load of its set:
// tolerance-band guardband followed by the domain's integrated VR loss,
// with all IVRs fed from the V_IN rail whose states the model compiled. It
// serves all six domains in the IVR PDN and the compute domains in I+MBVR
// and FlexWatts' IVR-Mode, with a previous-point stage memo keyed by the
// change masks. Not safe for concurrent use.
type ivrStageRun struct {
	states *vr.BuckStates
	tob    units.Volt
	kinds  []domain.Kind
	need   uint16 // AR-free bits of kinds + package state

	valid bool
	nact  int
	act   [domain.NumKinds]domain.Kind // active kinds of the memoized point, in eval order
	pd    [domain.NumKinds]units.Watt
	out   stageOut // PIn + Breakdown of the memoized point; AR unset
}

// init sets up a zero runner for the given load set over the IVRs compiled
// at the V_IN rail.
func (r *ivrStageRun) init(states *vr.BuckStates, ks kindSet, tob units.Volt) {
	r.states, r.tob, r.kinds, r.need = states, tob, ks.kinds, ks.free|gridMaskCState
}

// evalInto writes the stage output for point i of the grid into *dst; m
// is point i's change mask. The out-parameter form spares the kernel loop
// a stageOut copy per point.
func (r *ivrStageRun) evalInto(dst *stageOut, g *Grid, i int, m uint16) {
	if r.valid && m&r.need == r.need {
		// Only AR changed: the stored per-domain outputs are bit-identical,
		// so replay them and recompute the peak sum with the current ARs in
		// the full path's accumulation order.
		*dst = r.out
		var ppeak units.Watt
		for _, k := range r.act[:r.nact] {
			ppeak += r.pd[k] / g.ar[k][i]
		}
		if ppeak > 0 {
			dst.AR = dst.PIn / ppeak
		} else {
			dst.AR = 1
		}
		return
	}
	var out stageOut
	var ppeak units.Watt
	cstate := g.cstate[i]
	r.nact = 0
	for _, k := range r.kinds {
		pnom, vnom, fl := g.pnom[k][i], g.vnom[k][i], g.fl[k][i]
		if !(pnom > 0) {
			continue
		}
		pgb := loadline.ApplyGuardband(pnom, vnom, r.tob, fl)
		out.Breakdown.Guardband += pgb - pnom
		iout := pgb / vnom
		eta := r.states.Efficiency(VRStateFor(cstate, iout), vnom, iout)
		pd := pgb / eta // Eq. 6
		out.Breakdown.OnChipVR += pd - pgb
		out.PIn += pd
		ppeak += pd / g.ar[k][i]
		r.pd[k] = pd
		r.act[r.nact] = k
		r.nact++
	}
	r.valid = true
	r.out = out
	if ppeak > 0 {
		out.AR = out.PIn / ppeak
	} else {
		out.AR = 1
	}
	*dst = out
}

// ldoStageRun applies Eq. 2 and Eq. 10/11 to the compute domains: the
// shared input rail is set to the maximum domain voltage, the
// highest-voltage domain's LDO runs in bypass, and the others regulate down
// (paying the voltage-ratio efficiency). It serves the LDO PDN and
// FlexWatts' LDO-Mode, with a previous-point stage memo keyed by the change
// masks (the LDO efficiency is state-free, so the memo needs the AR-free
// load bits alone). Not safe for concurrent use.
type ldoStageRun struct {
	ldo   *vr.LDO
	tob   units.Volt
	kinds []domain.Kind
	need  uint16

	valid bool
	nact  int
	act   [domain.NumKinds]domain.Kind
	pd    [domain.NumKinds]units.Watt
	vin   units.Volt
	out   stageOut
}

// init sets up a zero runner for the given compute load set.
func (r *ldoStageRun) init(ldo *vr.LDO, ks kindSet, tob units.Volt) {
	r.ldo, r.tob, r.kinds, r.need = ldo, tob, ks.kinds, ks.free
}

// evalInto writes the stage output for point i of the grid into *dst and
// returns the rail voltage it chose; m is point i's change mask.
func (r *ldoStageRun) evalInto(dst *stageOut, g *Grid, i int, m uint16) units.Volt {
	if r.valid && m&r.need == r.need {
		*dst = r.out
		if r.vin == 0 {
			dst.AR = 1
			return 0
		}
		var ppeak units.Watt
		for _, k := range r.act[:r.nact] {
			ppeak += r.pd[k] / g.ar[k][i]
		}
		dst.AR = dst.PIn / ppeak
		return r.vin
	}
	var vin units.Volt
	for _, k := range r.kinds {
		if g.pnom[k][i] > 0 && g.vnom[k][i] > vin {
			vin = g.vnom[k][i]
		}
	}
	r.valid = true
	r.nact = 0
	if vin == 0 {
		r.vin = 0
		r.out = stageOut{}
		*dst = stageOut{}
		dst.AR = 1
		return 0
	}
	// The rail itself needs the tolerance-band margin once; domains then
	// regulate (or bypass) from the raised rail.
	vin += r.tob
	var out stageOut
	var ppeak units.Watt
	for _, k := range r.kinds {
		pnom, vnom, fl := g.pnom[k][i], g.vnom[k][i], g.fl[k][i]
		if !(pnom > 0) {
			continue
		}
		pgb := loadline.ApplyGuardband(pnom, vnom, r.tob, fl)
		out.Breakdown.Guardband += pgb - pnom
		eta := r.ldo.Efficiency(vr.OperatingPoint{Vin: vin, Vout: vnom + r.tob})
		pd := pgb / eta // Eq. 11
		out.Breakdown.OnChipVR += pd - pgb
		out.PIn += pd
		ppeak += pd / g.ar[k][i]
		r.pd[k] = pd
		r.act[r.nact] = k
		r.nact++
	}
	r.vin = vin
	r.out = out
	out.AR = out.PIn / ppeak
	*dst = out
	return vin
}

// offChipVR is a motherboard buck VR with its power states compiled at
// Params.PSU when the model is built.
type offChipVR struct {
	buck   *vr.Buck
	psu    units.Volt
	states vr.BuckStates
}

func newOffChipVR(b *vr.Buck, psu units.Volt) offChipVR {
	return offChipVR{buck: b, psu: psu, states: b.CompileStates(psu)}
}

// input runs the VR stage: given power p delivered at rail voltage vout,
// it returns the power drawn from a psu-volt supply and the conversion
// loss, selecting the VR power state per the package state. A psu other
// than the compiled one compiles just the selected state.
func (v *offChipVR) input(psu, vout units.Volt, p units.Watt, c domain.CState) (pin, loss units.Watt) {
	if p == 0 {
		return 0, 0
	}
	iout := p / vout
	ps := VRStateFor(c, iout)
	var eta float64
	if psu == v.psu {
		eta = v.states.Efficiency(ps, vout, iout)
	} else {
		op := v.buck.Compile(psu, ps)
		eta = op.Efficiency(vout, iout)
	}
	pin = p / eta
	return pin, pin - p
}

// vinRail carries a shared on-chip rail st (a stage output at voltage vin)
// across the input load-line (Eq. 7/8) and the first-stage VR (Eq. 9/12
// first term), accumulating its losses and rail draw into the caller's
// breakdown and rail set and returning its PSU draw. computeShare is the
// fraction of the conduction loss the Fig 5 breakdown attributes to the
// compute path (1 when the rail feeds only compute domains).
func (v *offChipVR) vinRail(st *stageOut, vin units.Volt, rll units.Ohm, psu units.Volt, c domain.CState, computeShare float64, bd *Breakdown, rails *RailSet) units.Watt {
	if st.PIn == 0 {
		rails.Append(RailDraw{Name: v.buck.Name(), VOut: vin})
		return 0
	}
	ll := loadline.Compensate(st.PIn, vin, st.AR, rll)
	bd.CondCompute += ll.Loss * computeShare
	bd.CondUncore += ll.Loss * (1 - computeShare)
	pin, loss := v.input(psu, ll.V, ll.P, c)
	bd.OffChipVR += loss
	rails.Append(RailDraw{
		Name:    v.buck.Name(),
		VOut:    ll.V,
		Current: ll.I,
		Peak:    st.PIn / st.AR / vin,
	})
	return pin
}

// boardRailRun serves a group of domains directly from a one-stage
// motherboard VR (the MBVR pattern, Eq. 2–5): per-domain tolerance
// guardband, scaling to the shared rail voltage (domains needing less than
// the rail voltage still receive it), power-gate drop compensation, group
// load-line, and the off-chip VR; compute selects which Fig 5
// conduction-loss bucket the load-line loss lands in. It keeps two memo
// tiers keyed on the change masks: a whole-rail memo — when the rail's
// loads (AR included), the package state and the PSU all repeat (the SA/IO
// rails across a TDP or AR sweep) the stored output is returned wholesale
// on a single mask test — and a free-field memo that keeps the rail
// voltage and per-load guardbanded powers (functions of PNom/VNom/FL only)
// across AR-innermost sweeps, where every point invalidates the whole-rail
// tier but not the guardband work. Not safe for concurrent use.
type boardRailRun struct {
	reg      *offChipVR
	kinds    []domain.Kind
	tob      units.Volt
	rpg      units.Ohm
	rll      units.Ohm
	compute  bool
	need     uint16
	freeNeed uint16

	// Free-field memo (see evalPoint): the rail voltage, the active load
	// set in domain order, and per-load guardbanded power / guardband
	// delta / FL — everything the per-load loop derives before AR enters.
	fvalid bool
	railV  units.Volt
	nact   int
	actK   [domain.NumKinds]domain.Kind
	pgb    [domain.NumKinds]units.Watt
	gbd    [domain.NumKinds]units.Watt
	flv    [domain.NumKinds]float64

	valid bool
	out   railOut
}

// init sets up a zero runner for one motherboard rail.
func (r *boardRailRun) init(reg *offChipVR, ks kindSet, tob units.Volt, rpg, rll units.Ohm, compute bool) {
	r.reg, r.kinds, r.tob, r.rpg, r.rll, r.compute = reg, ks.kinds, tob, rpg, rll, compute
	r.need, r.freeNeed = ks.free|ks.ar|gridMaskCState|gridMaskPSU, ks.free
}

// evalPoint computes the rail's full output for point i into r.out. When
// the mask says every load's AR-free columns repeat, the free-field memo
// replays the rail voltage and per-load guardbanded powers instead of
// recomputing them — those are pure functions of the unchanged
// PNom/VNom/FL bits, so the replayed values are the bits the calls would
// produce. Within a point, consecutive active loads with identical
// guardbanded power, FL and AR share one power-gate solve for the same
// reason: identical argument bits into the same pure function.
func (r *boardRailRun) evalPoint(g *Grid, i int, m uint16) {
	if !r.fvalid || m&r.freeNeed != r.freeNeed {
		r.fvalid = false
		var railV units.Volt
		for _, k := range r.kinds {
			if g.pnom[k][i] > 0 && g.vnom[k][i] > railV {
				railV = g.vnom[k][i]
			}
		}
		r.railV = railV
		r.nact = 0
		if railV > 0 {
			for _, k := range r.kinds {
				pnom, vnom, fl := g.pnom[k][i], g.vnom[k][i], g.fl[k][i]
				if !(pnom > 0) {
					continue
				}
				pgb := loadline.ApplyGuardband(pnom, vnom, r.tob, fl)
				// Rail sharing: a domain whose nominal voltage is below
				// the rail voltage runs over-volted; Eq. 2 gives the
				// power inflation.
				if vnom < railV {
					pgb = loadline.ApplyGuardband(pgb, vnom+r.tob, railV-vnom, fl)
				}
				t := r.nact
				r.actK[t] = k
				r.pgb[t] = pgb
				r.gbd[t] = pgb - pnom
				r.flv[t] = fl
				r.nact++
			}
		}
		r.fvalid = true
	}
	var out railOut
	if r.railV == 0 {
		out.Rail = RailDraw{Name: r.reg.buck.Name()}
		r.valid = true
		r.out = out
		return
	}
	railVT := r.railV + r.tob
	var sum units.Watt
	var ppeak units.Watt
	var prevAR float64
	var prevPPG units.Watt
	for t := 0; t < r.nact; t++ {
		ar := g.ar[r.actK[t]][i]
		pgb := r.pgb[t]
		var ppg units.Watt
		if t > 0 && pgb == r.pgb[t-1] && r.flv[t] == r.flv[t-1] && ar == prevAR {
			ppg = prevPPG
		} else {
			ppg = loadline.ApplyPowerGate(pgb, railVT, ar, r.flv[t], r.rpg)
		}
		out.Breakdown.Guardband += r.gbd[t]
		out.Breakdown.PowerGate += ppg - pgb
		sum += ppg
		ppeak += ppg / ar
		prevAR, prevPPG = ar, ppg
	}
	ar := sum / ppeak
	ll := loadline.Compensate(sum, railVT, ar, r.rll)
	if r.compute {
		out.Breakdown.CondCompute = ll.Loss
	} else {
		out.Breakdown.CondUncore = ll.Loss
	}
	pin, loss := r.reg.input(g.psu[i], ll.V, ll.P, g.cstate[i])
	out.Breakdown.OffChipVR = loss
	out.PIn = pin
	out.Rail = RailDraw{
		Name:    r.reg.buck.Name(),
		VOut:    ll.V,
		Current: ll.I,
		Peak:    sum / ar / railVT,
	}
	r.valid = true
	r.out = out
}

// evalInto accumulates the rail's output for point i of the grid into the
// caller's breakdown and rail set, returning the rail's PSU draw; m is
// point i's change mask.
func (r *boardRailRun) evalInto(g *Grid, i int, m uint16, bd *Breakdown, rails *RailSet) units.Watt {
	if !r.valid || m&r.need != r.need {
		r.evalPoint(g, i, m)
	}
	bd.addFrom(&r.out.Breakdown)
	rails.Append(r.out.Rail)
	return r.out.PIn
}

// evalBlock sweeps the rail over the len(masks) points from base,
// rail-major: each point's breakdown, rail draw and PSU draw accumulate into
// its result slot, with the rail's state held hot across consecutive
// points.
func (r *boardRailRun) evalBlock(g *Grid, base int, masks []uint16, out []Result) {
	for j, mk := range masks {
		if !r.valid || mk&r.need != r.need {
			r.evalPoint(g, base+j, mk)
		}
		res := &out[base+j]
		res.Breakdown.addFrom(&r.out.Breakdown)
		res.Rails.Append(r.out.Rail)
		res.PIn += r.out.PIn
	}
}

// CheckGridOut validates a caller-provided result block against a grid;
// every EvaluateGrid kernel, and the sweep engine's grid entry points, call
// it before evaluating.
func CheckGridOut(g *Grid, out []Result) error {
	if len(out) < g.Len() {
		return fmt.Errorf("pdn: result block has %d slots for %d grid points", len(out), g.Len())
	}
	return nil
}

// GridPointError wraps a per-point validation error with its index; the
// wrapped error is exactly what Evaluate returns for the point, so
// errors.Is/As see through the grid framing.
func GridPointError(i int, err error) error {
	return fmt.Errorf("pdn: grid point %d: %w", i, err)
}
