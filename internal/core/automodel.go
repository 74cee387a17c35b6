package core

import (
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
	"repro/internal/workload"
)

// AutoModel is FlexWatts with Algorithm 1 in the loop: every evaluation
// estimates the predictor inputs from the scenario the way the PMU does at
// runtime (§6, "Runtime Estimation of the Algorithm Inputs") and evaluates
// the hybrid PDN in the predicted mode. It implements pdn.Model, so the
// experiment drivers treat it exactly like the static baselines.
type AutoModel struct {
	M *Model
	P *Predictor
	// TDP is the platform's configured thermal design power, which the PMU
	// knows at runtime (cTDP is software-visible, §6).
	TDP units.Watt
}

// NewAutoModel wires a FlexWatts model to its predictor at a TDP.
func NewAutoModel(m *Model, p *Predictor, tdp units.Watt) *AutoModel {
	return &AutoModel{M: m, P: p, TDP: tdp}
}

// Kind implements pdn.Model.
func (a *AutoModel) Kind() pdn.Kind { return pdn.FlexWatts }

// Evaluate implements pdn.Model: predict the mode, then evaluate it.
func (a *AutoModel) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	in := InputsFromScenario(s, a.TDP)
	return a.M.EvaluateMode(s, a.P.Predict(in))
}

// InputsFromScenario estimates Algorithm 1's inputs from a scenario the way
// the PMU does (§6): the workload type comes from which domains are
// powered (graphics active → graphics workload; both cores → multi-threaded),
// and the AR proxy is the power-weighted application ratio of the active
// compute domains, standing in for the calibrated activity-sensor sum.
func InputsFromScenario(s pdn.Scenario, tdp units.Watt) Inputs {
	in := Inputs{TDP: tdp, CState: s.CState, Type: workload.SingleThread, AR: 0.5}
	if !s.CState.ComputeActive() {
		return in
	}
	if s.LoadFor(domain.GFX).Active() {
		in.Type = workload.Graphics
	} else if s.LoadFor(domain.Core1).Active() {
		in.Type = workload.MultiThread
	}
	var p, ppeak units.Watt
	for _, k := range domain.ComputeKinds() {
		l := s.LoadFor(k)
		if !l.Active() {
			continue
		}
		p += l.PNom
		ppeak += l.PNom / l.AR
	}
	if ppeak > 0 {
		in.AR = p / ppeak
	}
	return in
}
