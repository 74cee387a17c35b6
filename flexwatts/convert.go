package flexwatts

// This file is the single home of the conversion shims between the public
// vocabulary and the repro/internal/* model types. Nothing else in the
// public packages may name an internal type; the public-surface guard test
// at the repository root enforces that the exported API stays
// self-contained.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/optimize"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// internalKind maps a public PDN kind to the internal enum.
func internalKind(k Kind) (pdn.Kind, error) {
	switch k {
	case FlexWatts:
		return pdn.FlexWatts, nil
	case IVR:
		return pdn.IVR, nil
	case MBVR:
		return pdn.MBVR, nil
	case LDO:
		return pdn.LDO, nil
	case IMBVR:
		return pdn.IMBVR, nil
	default:
		return 0, fmt.Errorf("%w: unknown PDN kind %v", ErrInvalidPoint, k)
	}
}

// kindFromInternal maps the internal PDN enum back to the public one.
func kindFromInternal(k pdn.Kind) Kind {
	switch k {
	case pdn.IVR:
		return IVR
	case pdn.MBVR:
		return MBVR
	case pdn.LDO:
		return LDO
	case pdn.IMBVR:
		return IMBVR
	default:
		return FlexWatts
	}
}

// internalWorkloadType maps a public workload class to the internal enum.
// WorkloadUnset and unnamed values would map to MultiThread, so callers
// screen them out first (Point.Validate, internalTrace, internalWorkload,
// mustWorkloadType).
func internalWorkloadType(t WorkloadType) workload.Type {
	switch t {
	case SingleThread:
		return workload.SingleThread
	case Graphics:
		return workload.Graphics
	case BatteryLife:
		return workload.BatteryLife
	default:
		return workload.MultiThread
	}
}

// mustWorkloadType converts t for the helpers that return no error: they
// panic rather than let internalWorkloadType turn an unset or unnamed
// class into Multi-Thread. fn names the helper in the message.
func mustWorkloadType(fn string, t WorkloadType) workload.Type {
	if t < SingleThread || t > BatteryLife {
		panic(fmt.Sprintf("flexwatts: %s: WorkloadType(%d) is not a named workload class", fn, int(t)))
	}
	return internalWorkloadType(t)
}

// workloadTypeFromInternal maps the internal workload enum to the public
// one.
func workloadTypeFromInternal(t workload.Type) WorkloadType {
	switch t {
	case workload.SingleThread:
		return SingleThread
	case workload.Graphics:
		return Graphics
	case workload.BatteryLife:
		return BatteryLife
	default:
		return MultiThread
	}
}

// internalCState maps a public package state to the internal enum. The two
// enums share ordering, but the mapping is explicit so neither side can
// drift silently. Unnamed states would map to C0: callers screen them out.
func internalCState(c CState) domain.CState {
	switch c {
	case C0MIN:
		return domain.C0MIN
	case C2:
		return domain.C2
	case C3:
		return domain.C3
	case C6:
		return domain.C6
	case C7:
		return domain.C7
	case C8:
		return domain.C8
	default:
		return domain.C0
	}
}

// cstateFromInternal maps the internal package-state enum to the public
// one.
func cstateFromInternal(c domain.CState) CState {
	switch c {
	case domain.C0MIN:
		return C0MIN
	case domain.C2:
		return C2
	case domain.C3:
		return C3
	case domain.C6:
		return C6
	case domain.C7:
		return C7
	case domain.C8:
		return C8
	default:
		return C0
	}
}

// internalMode maps a public hybrid mode to the internal enum; ModeNone
// has no internal counterpart.
func internalMode(m Mode) (core.Mode, error) {
	switch m {
	case IVRMode:
		return core.IVRMode, nil
	case LDOMode:
		return core.LDOMode, nil
	default:
		return 0, fmt.Errorf("flexwatts: mode %v is not a hybrid mode", m)
	}
}

// modeFromInternal maps the internal hybrid mode to the public one.
func modeFromInternal(m core.Mode) Mode {
	if m == core.LDOMode {
		return LDOMode
	}
	return IVRMode
}

// breakdownFromInternal converts a loss breakdown.
func breakdownFromInternal(b pdn.Breakdown) Breakdown {
	return Breakdown{
		Guardband:   Watt(b.Guardband),
		PowerGate:   Watt(b.PowerGate),
		OnChipVR:    Watt(b.OnChipVR),
		OffChipVR:   Watt(b.OffChipVR),
		CondCompute: Watt(b.CondCompute),
		CondUncore:  Watt(b.CondUncore),
	}
}

// resultFromInternal converts an internal evaluation result. The mode is
// ModeNone unless the caller evaluated the hybrid.
func resultFromInternal(r pdn.Result, mode Mode) Result {
	return Result{
		PDN:              kindFromInternal(r.PDN),
		Mode:             mode,
		PNomTotal:        Watt(r.PNomTotal),
		PIn:              Watt(r.PIn),
		ETEE:             r.ETEE,
		ChipInputCurrent: r.ChipInputCurrent,
		Breakdown:        breakdownFromInternal(r.Breakdown),
	}
}

// defaultInternalParams exposes the Table 2 calibration to params.go
// without it importing internal packages directly.
func defaultInternalParams() pdn.Params { return pdn.DefaultParams() }

// internalParams converts the public parameter set to the internal one.
// The two structs are field-for-field identical, so this is a plain struct
// conversion: adding a field to one without the other fails to compile —
// exactly the drift protection we want.
func internalParams(p Params) pdn.Params { return pdn.Params(p) }

// paramsFromInternal converts the internal parameter set to the public
// one.
func paramsFromInternal(p pdn.Params) Params { return Params(p) }

// internalWorkload converts a public benchmark description. A benchmark
// without a named workload class is rejected with ErrInvalidPoint.
func internalWorkload(w Workload) (workload.Workload, error) {
	if w.Type < SingleThread || w.Type > BatteryLife {
		return workload.Workload{}, fmt.Errorf("%w: workload %q has no named workload type (%q)", ErrInvalidPoint, w.Name, w.Type)
	}
	return workload.Workload{
		Name:        w.Name,
		Type:        internalWorkloadType(w.Type),
		AR:          w.AR,
		Scalability: w.Scalability,
	}, nil
}

// workloadFromInternal converts an internal benchmark description.
func workloadFromInternal(w workload.Workload) Workload {
	return Workload{
		Name:        w.Name,
		Type:        workloadTypeFromInternal(w.Type),
		AR:          w.AR,
		Scalability: w.Scalability,
	}
}

// internalBatteryWorkloads exposes the §7.1 battery-life scenarios to
// battery.go without it importing internal packages directly.
func internalBatteryWorkloads() []workload.BatteryWorkload { return workload.BatteryLifeWorkloads() }

// internalBatteryWorkload converts a public battery-life scenario.
func internalBatteryWorkload(w BatteryWorkload) workload.BatteryWorkload {
	out := workload.BatteryWorkload{
		Name:      w.Name,
		Residency: make(map[domain.CState]float64, len(w.Residency)),
	}
	for c, res := range w.Residency {
		out.Residency[internalCState(c)] = res
	}
	return out
}

// batteryWorkloadFromInternal converts an internal battery-life scenario.
func batteryWorkloadFromInternal(w workload.BatteryWorkload) BatteryWorkload {
	out := BatteryWorkload{
		Name:      w.Name,
		Residency: make(map[CState]float64, len(w.Residency)),
	}
	for c, res := range w.Residency {
		out.Residency[cstateFromInternal(c)] = res
	}
	return out
}

// internalOptimizeSpec converts a public optimizer spec; the engine
// revalidates, but kind conversion can already fail here.
func internalOptimizeSpec(s OptimizeSpec) (optimize.Spec, error) {
	out := optimize.Spec{
		TDP:             float64(s.TDP),
		LoadlineScales:  s.LoadlineScales,
		GuardbandScales: s.GuardbandScales,
		VRScales:        s.VRScales,
		Seed:            s.Seed,
		Budget:          s.Budget,
		Chains:          s.Chains,
		MaxCost:         s.MaxCost,
		MaxArea:         s.MaxArea,
		MaxBatteryPower: float64(s.MaxBatteryPower),
		MinPerformance:  s.MinPerformance,
	}
	if s.PDNs != nil {
		out.Kinds = make([]pdn.Kind, len(s.PDNs))
		for i, k := range s.PDNs {
			ik, err := internalKind(k)
			if err != nil {
				return optimize.Spec{}, fmt.Errorf("%w: unknown PDN kind %v", ErrInvalidSpec, k)
			}
			out.Kinds[i] = ik
		}
	}
	if s.Objectives != nil {
		out.Objectives = make([]optimize.Objective, len(s.Objectives))
		for i, o := range s.Objectives {
			io, err := internalObjective(o)
			if err != nil {
				return optimize.Spec{}, err
			}
			out.Objectives[i] = io
		}
	}
	st, err := internalStrategy(s.Strategy)
	if err != nil {
		return optimize.Spec{}, err
	}
	out.Strategy = st
	return out, nil
}

// internalObjective maps a public objective to the internal enum.
func internalObjective(o Objective) (optimize.Objective, error) {
	switch o {
	case ObjectiveCost:
		return optimize.Cost, nil
	case ObjectiveArea:
		return optimize.Area, nil
	case ObjectiveBattery:
		return optimize.BatteryPower, nil
	case ObjectivePerformance:
		return optimize.Performance, nil
	default:
		return 0, fmt.Errorf("%w: unknown objective %v", ErrInvalidSpec, o)
	}
}

// internalStrategy maps a public search strategy to the internal enum.
func internalStrategy(s SearchStrategy) (optimize.Strategy, error) {
	switch s {
	case StrategyAuto:
		return optimize.Auto, nil
	case StrategyExhaustive:
		return optimize.Exhaustive, nil
	case StrategyAnneal:
		return optimize.Anneal, nil
	default:
		return 0, fmt.Errorf("%w: unknown strategy %v", ErrInvalidSpec, s)
	}
}

// strategyFromInternal maps the internal strategy enum to the public one.
func strategyFromInternal(s optimize.Strategy) SearchStrategy {
	switch s {
	case optimize.Exhaustive:
		return StrategyExhaustive
	case optimize.Anneal:
		return StrategyAnneal
	default:
		return StrategyAuto
	}
}

// paretoPointFromInternal converts one frontier member.
func paretoPointFromInternal(p optimize.Point) ParetoPoint {
	return ParetoPoint{
		Key: p.Key,
		Config: OptimizeConfig{
			PDN:            kindFromInternal(p.Config.Kind),
			LoadlineScale:  p.Config.LoadlineScale,
			GuardbandScale: p.Config.GuardbandScale,
			VRScale:        p.Config.VRScale,
		},
		Scores: OptimizeScores{
			Cost:         p.Scores.Cost,
			Area:         p.Scores.Area,
			BatteryPower: Watt(p.Scores.BatteryPower),
			Performance:  p.Scores.Performance,
		},
	}
}

// optimizeResultFromInternal converts a finished search.
func optimizeResultFromInternal(r optimize.Result) OptimizeResult {
	out := OptimizeResult{
		Frontier:  make([]ParetoPoint, len(r.Frontier)),
		Evaluated: r.Evaluated,
		SpaceSize: r.SpaceSize,
		Strategy:  strategyFromInternal(r.Strategy),
	}
	for i, p := range r.Frontier {
		out.Frontier[i] = paretoPointFromInternal(p)
	}
	return out
}

// optimizeEventFromInternal converts an incremental search event.
func optimizeEventFromInternal(ev optimize.Event) OptimizeEvent {
	out := OptimizeEvent{
		Evaluated:    ev.Evaluated,
		SpaceSize:    ev.SpaceSize,
		FrontierSize: ev.FrontierSize,
	}
	if ev.Kind == optimize.EventFrontier {
		out.Kind = OptimizeFrontier
		out.Point = paretoPointFromInternal(ev.Point)
	}
	return out
}

// internalTrace converts a public phase trace. A phase with an unnamed
// package state or workload class, or an active (C0) phase without a
// workload class, is rejected with ErrInvalidPoint; idle phases may leave
// the workload unset.
func internalTrace(tr Trace) (workload.Trace, error) {
	out := workload.Trace{Name: tr.Name, Phases: make([]workload.Phase, len(tr.Phases))}
	for i, ph := range tr.Phases {
		if err := checkNamed(ph.CState, ph.Workload); err != nil {
			return workload.Trace{}, fmt.Errorf("phase %d: %w", i, err)
		}
		if ph.CState == C0 && ph.Workload == WorkloadUnset {
			return workload.Trace{}, fmt.Errorf("%w: phase %d is active (C0) without a workload type", ErrInvalidPoint, i)
		}
		out.Phases[i] = workload.Phase{
			Duration: ph.Duration,
			Type:     internalWorkloadType(ph.Workload),
			CState:   internalCState(ph.CState),
			AR:       ph.AR,
		}
	}
	return out, nil
}

// traceFromInternal converts an internal phase trace.
func traceFromInternal(tr workload.Trace) Trace {
	out := Trace{Name: tr.Name, Phases: make([]Phase, len(tr.Phases))}
	for i, ph := range tr.Phases {
		out.Phases[i] = Phase{
			Duration: ph.Duration,
			Workload: workloadTypeFromInternal(ph.Type),
			CState:   cstateFromInternal(ph.CState),
			AR:       ph.AR,
		}
	}
	return out
}
