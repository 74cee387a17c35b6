// Package core implements FlexWatts, the paper's contribution (§6): a
// power- and workload-aware hybrid adaptive PDN.
//
// FlexWatts rests on three ideas:
//
//  1. The wide-power-range compute domains (cores, LLC, GFX) sit behind
//     hybrid VRs that share the IVR's high-side power switch, decoupling
//     capacitors, routing, and the off-chip V_IN VR between an IVR-Mode
//     (two-stage, V_IN at 1.8 V) and an LDO-Mode (V_IN at the maximum
//     compute voltage, on-chip LDOs regulating down or bypassing).
//  2. The narrow-power-range SA and IO domains get dedicated off-chip VRs,
//     as in the LDO PDN.
//  3. A runtime prediction algorithm (Algorithm 1, predictor.go) selects
//     the mode with the higher predicted ETEE from firmware curve tables,
//     and a voltage-noise-free switching flow (switchflow.go) carries out
//     the transition through package C6.
//
// The resource sharing costs a slightly higher input load-line in both
// modes (Params.FlexSharePenalty), which is why FlexWatts trails the best
// static PDN by under 1 % while beating the worst by 20 %+.
//
// Ideas 1 and 2 make each mode a split-rail PDN: IVR-Mode is the I+MBVR
// topology and LDO-Mode the LDO PDN, each on the penalized V_IN load-line.
// Their power flow, per point and batch, lives in internal/pdn
// (pdn.NewFlexWattsModes); this package holds the mode policy only: Model
// dispatches to the selected mode, and the predictor, the switching flow,
// AutoModel and the voltage-noise model decide and carry out the switch.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pdn"
)

// Mode is the hybrid PDN's operating mode (§6).
type Mode int

// The two modes of the hybrid VR.
const (
	// IVRMode runs the compute domains' hybrid VRs as integrated switching
	// regulators from a 1.8 V input rail — efficient at high power.
	IVRMode Mode = iota
	// LDOMode runs them as LDOs (or bypass switches) from an input rail at
	// the maximum compute voltage — efficient at low power.
	LDOMode
)

// Modes lists both modes.
func Modes() []Mode { return []Mode{IVRMode, LDOMode} }

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case IVRMode:
		return "IVR-Mode"
	case LDOMode:
		return "LDO-Mode"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Model is the FlexWatts PDN. It implements pdn.Model; Evaluate uses the
// currently configured mode, while EvaluateMode evaluates a specific one
// (used by the predictor's offline table generation and by oracle
// baselines). The zero mode is IVRMode. Each mode's power flow is a
// pdn.SplitRailModel from pdn.NewFlexWattsModes; Model only picks one.
type Model struct {
	ivrMode *pdn.SplitRailModel
	ldoMode *pdn.SplitRailModel
	// mode is atomic because sweep workers share one Model: AutoModel
	// records the mode it evaluates, and concurrent evaluations must not
	// race on the field (each evaluation passes its mode explicitly).
	mode atomic.Int32
}

// NewModel constructs a FlexWatts PDN with the given PDNspot parameters.
func NewModel(p pdn.Params) *Model {
	m := &Model{}
	m.ivrMode, m.ldoMode = pdn.NewFlexWattsModes(p)
	return m
}

// Kind implements pdn.Model.
func (m *Model) Kind() pdn.Kind { return pdn.FlexWatts }

// Mode returns the currently configured hybrid mode.
func (m *Model) Mode() Mode { return Mode(m.mode.Load()) }

// SetMode configures the hybrid mode. The electrical transition itself is
// modeled by SwitchFlow; SetMode only changes which mode Evaluate uses.
func (m *Model) SetMode(mode Mode) { m.mode.Store(int32(mode)) }

// modeModel returns the power flow of the given mode, or nil for an
// unknown mode.
func (m *Model) modeModel(mode Mode) *pdn.SplitRailModel {
	switch mode {
	case IVRMode:
		return m.ivrMode
	case LDOMode:
		return m.ldoMode
	}
	return nil
}

// Evaluate implements pdn.Model using the current mode.
func (m *Model) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	return m.EvaluateMode(s, m.Mode())
}

// EvaluateMode computes the end-to-end power flow with the hybrid VRs in
// the given mode. A scenario error takes precedence over an unknown mode.
func (m *Model) EvaluateMode(s pdn.Scenario, mode Mode) (pdn.Result, error) {
	mm := m.modeModel(mode)
	if mm == nil {
		if err := pdn.Validate(&s); err != nil {
			return pdn.Result{}, err
		}
		return pdn.Result{}, fmt.Errorf("core: unknown mode %v", mode)
	}
	return mm.Evaluate(s)
}

// EvaluateGrid evaluates every grid point into out[:g.Len()] using the
// currently configured mode, bitwise identical to per-point Evaluate.
func (m *Model) EvaluateGrid(g *pdn.Grid, out []pdn.Result) error {
	return m.EvaluateGridMode(g, out, m.Mode())
}

// EvaluateGridMode evaluates every grid point in the given mode, bitwise
// identical to per-point EvaluateMode, with pdn.SplitRailModel.EvaluateGrid's
// error contract. A short result block takes precedence over an unknown
// mode.
func (m *Model) EvaluateGridMode(g *pdn.Grid, out []pdn.Result, mode Mode) error {
	mm := m.modeModel(mode)
	if mm == nil {
		if err := pdn.CheckGridOut(g, out); err != nil {
			return err
		}
		return fmt.Errorf("core: unknown mode %v", mode)
	}
	return mm.EvaluateGrid(g, out)
}

// BestMode evaluates both modes on the scenario and returns the one with
// the higher ETEE together with both results. This is the oracle selection
// used to bound the predictor's quality in the ablation benches.
func (m *Model) BestMode(s pdn.Scenario) (Mode, pdn.Result, pdn.Result, error) {
	ri, err := m.EvaluateMode(s, IVRMode)
	if err != nil {
		return IVRMode, pdn.Result{}, pdn.Result{}, err
	}
	rl, err := m.EvaluateMode(s, LDOMode)
	if err != nil {
		return IVRMode, pdn.Result{}, pdn.Result{}, err
	}
	if ri.ETEE >= rl.ETEE {
		return IVRMode, ri, rl, nil
	}
	return LDOMode, ri, rl, nil
}
