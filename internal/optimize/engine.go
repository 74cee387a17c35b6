package optimize

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/perf"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Engine runs design-space searches against one platform model and base
// parameter set. It is safe for concurrent use; the zero value needs
// Platform and Base filled in. The Cache, when non-nil, memoizes
// base-parameter candidate evaluations — scaled-parameter candidates
// always bypass it, because the cache keys on (kind, scenario) and knows
// nothing of Params, and sharing it would poison every other consumer.
type Engine struct {
	// Platform is the modeled SoC; nil means the paper's client platform.
	Platform *domain.Platform
	// Base is the parameter set the candidate scales apply to.
	Base pdn.Params
	// Cache, when non-nil, is the shared (kind, scenario) evaluation
	// cache for unscaled candidates.
	Cache *sweep.Cache
	// Workers bounds candidate-scoring concurrency; <= 0 means
	// GOMAXPROCS (the sweep.MapCtx convention). Results are identical
	// either way — candidates score independently and collect by index.
	Workers int
	// arena recycles each candidate's scenario grid + result blocks, so
	// a steady search loop settles into zero grid allocations per
	// candidate.
	arena pdn.GridArena
}

// search is one Run's immutable context: the normalized spec, the scoring
// scenario grid layout, the baseline reference, the power-frequency
// curves, and the cost tables.
type search struct {
	e    *Engine
	spec Spec
	// scenarios is the per-candidate scoring grid: the SPEC CPU2006
	// operating points at the spec's TDP first, then the battery-life
	// package states in canonical order. Every candidate evaluates this
	// exact grid, so scores are comparable point for point.
	scenarios []pdn.Scenario
	suite     workload.Suite
	states    []domain.CState
	battery   []workload.BatteryWorkload
	// basePIn is the base-parameter IVR baseline's input power per perf
	// scenario — the savedIn reference of the §3.3 performance model.
	basePIn []float64
	// curves[i] is the §3.3 power-frequency curve of perf workload i's
	// type at the spec's TDP; workloads of one type share one curve.
	curves []*perf.Curve
	// baseBOM/baseArea are cost.Normalized's per-kind tables at the TDP
	// (normalized to base IVR); candidate scale premiums multiply them.
	baseBOM, baseArea map[pdn.Kind]float64
	// ref is the base-parameter IVR candidate's own scores, the
	// normalization the annealing energy uses so objectives with
	// different units mix on one scale.
	ref Scores
}

// scored is one candidate's evaluation outcome. ok=false marks an
// infeasible candidate: its scaled parameters rejected model
// construction, failed evaluation, or produced a non-finite score.
type scored struct {
	sc Scores
	ok bool
}

// batteryStates is the package-state axis of the battery score, in
// canonical (domain.CStates) order — never map-iteration order, because
// the score is a float sum and summation order is part of the
// determinism contract.
func batteryStates() []domain.CState {
	return []domain.CState{domain.C0MIN, domain.C2, domain.C8}
}

// Run executes the search described by spec. emit, when non-nil, receives
// incremental events (progress per batch, each frontier entrant) on the
// searching goroutine; returning a non-nil error from emit cancels the
// search and Run returns that error. Cancelling ctx aborts the search
// with context.Cause(ctx).
func (e *Engine) Run(ctx context.Context, spec Spec, emit func(Event) error) (Result, error) {
	ns, err := spec.normalized()
	if err != nil {
		return Result{}, err
	}
	s, err := e.newSearch(ctx, ns)
	if err != nil {
		return Result{}, err
	}
	if ns.Strategy == Exhaustive {
		return s.runExhaustive(ctx, emit)
	}
	return s.runAnneal(ctx, emit)
}

// newSearch builds the per-run scoring context: the scenario grid, the
// power-frequency curves, the IVR baseline sweep (through the shared cache
// — these are base-parameter evaluations), the cost tables, and the
// reference scores.
func (e *Engine) newSearch(ctx context.Context, spec Spec) (*search, error) {
	plat := e.Platform
	if plat == nil {
		plat = domain.NewClientPlatform()
	}
	s := &search{
		e:       e,
		spec:    spec,
		suite:   workload.SPECCPU2006(),
		states:  batteryStates(),
		battery: workload.BatteryLifeWorkloads(),
	}
	s.scenarios = make([]pdn.Scenario, 0, len(s.suite.Workloads)+len(s.states))
	for _, w := range s.suite.Workloads {
		sc, err := workload.TDPScenario(plat, spec.TDP, w.Type, w.AR)
		if err != nil {
			return nil, fmt.Errorf("optimize: baseline scenario %s: %w", w.Name, err)
		}
		s.scenarios = append(s.scenarios, sc)
	}
	for _, st := range s.states {
		s.scenarios = append(s.scenarios, workload.CStateScenario(plat, st))
	}
	byType := make(map[workload.Type]*perf.Curve)
	s.curves = make([]*perf.Curve, len(s.suite.Workloads))
	for i, w := range s.suite.Workloads {
		if byType[w.Type] == nil {
			c := perf.NewCurve(plat, spec.TDP, w.Type)
			byType[w.Type] = &c
		}
		s.curves[i] = byType[w.Type]
	}
	var err error
	s.baseBOM, s.baseArea, err = cost.Normalized(plat, spec.TDP)
	if err != nil {
		return nil, fmt.Errorf("optimize: cost model: %w", err)
	}
	base, err := pdn.New(pdn.IVR, e.Base)
	if err != nil {
		return nil, fmt.Errorf("optimize: IVR baseline: %w", err)
	}
	lease := e.arena.Get()
	defer lease.Release()
	g := lease.Grid()
	for _, sc := range s.scenarios {
		g.Append(sc)
	}
	out := lease.Results(g.Len())
	if err := sweep.GridMapCtx(ctx, e.Workers, e.Cache, base, g, out, 0); err != nil {
		return nil, fmt.Errorf("optimize: baseline sweep: %w", err)
	}
	s.basePIn = make([]float64, len(s.suite.Workloads))
	for i := range s.suite.Workloads {
		s.basePIn[i] = out[i].PIn
	}
	refCfg := Config{Kind: pdn.IVR, LoadlineScale: 1, GuardbandScale: 1, VRScale: 1}
	ref, ok := s.scoresFrom(refCfg, out)
	if !ok {
		return nil, fmt.Errorf("optimize: IVR baseline produced non-finite scores")
	}
	s.ref = ref
	return s, nil
}

// score evaluates one candidate over the scoring grid and reduces the
// results to its four objective values. Every failure mode — invalid
// scaled parameters, a point the model rejects, a non-finite score —
// returns ok=false: a broken candidate is infeasible, never a search
// error (the search must survive hostile corners of the space).
func (s *search) score(cfg Config) scored {
	params := scaleParams(s.e.Base, cfg)
	lease := s.e.arena.Get()
	defer lease.Release()
	g := lease.Grid()
	for _, sc := range s.scenarios {
		g.Append(sc)
	}
	out := lease.Results(g.Len())
	if cfg.Kind == pdn.FlexWatts {
		// Oracle-mode bound, predictor-free: the hybrid runs whichever
		// mode draws less input power at each point — the bound Algorithm
		// 1's predictor approaches (§6). Two leases because one lease
		// reuses a single backing result block.
		m := core.NewModel(params)
		lease2 := s.e.arena.Get()
		defer lease2.Release()
		alt := lease2.Results(g.Len())
		if m.EvaluateGridMode(g, out, core.IVRMode) != nil {
			return scored{}
		}
		if m.EvaluateGridMode(g, alt, core.LDOMode) != nil {
			return scored{}
		}
		for i := range out {
			if alt[i].PIn < out[i].PIn {
				out[i] = alt[i]
			}
		}
	} else {
		m, err := pdn.New(cfg.Kind, params)
		if err != nil {
			return scored{}
		}
		cache := s.e.Cache
		if !cfg.baseScales() {
			// The cache keys on (kind, scenario) only; a scaled-parameter
			// result stored under that key would be served to everyone.
			// The nil-cache path still runs the same batch kernel.
			cache = nil
		}
		if cache.EvaluateGrid(m, g, out) != nil {
			return scored{}
		}
	}
	sc, ok := s.scoresFrom(cfg, out)
	return scored{sc: sc, ok: ok}
}

// scoresFrom reduces a candidate's grid results to its objective values.
func (s *search) scoresFrom(cfg Config, out []pdn.Result) (Scores, bool) {
	np := len(s.suite.Workloads)
	// Performance: per workload, the input power the candidate saves
	// against the IVR baseline converts to domain-level budget at the
	// candidate's own ETEE, the power-frequency curve inverts it to a
	// clock ratio, and scalability maps that to performance (§3.3).
	var perfSum float64
	for i, w := range s.suite.Workloads {
		saved := s.basePIn[i] - out[i].PIn
		delta := saved * out[i].ETEE
		ratio := s.curves[i].Ratio(delta)
		perfSum += 1 + w.Scalability*(ratio-1)
	}
	perfScore := perfSum / float64(np)
	// Battery: mean over the §7.1 workloads of the residency-weighted
	// battery drain, states visited in canonical order.
	var batSum float64
	for _, w := range s.battery {
		var p float64
		for j, st := range s.states {
			res := w.Residency[st]
			if res == 0 {
				continue
			}
			r := out[np+j]
			p += r.PNomTotal * res / r.ETEE
		}
		batSum += p
	}
	bat := batSum / float64(len(s.battery))
	sc := Scores{
		Cost:         s.baseBOM[cfg.Kind] * costPremium(cfg),
		Area:         s.baseArea[cfg.Kind] * areaPremium(cfg),
		BatteryPower: bat,
		Performance:  perfScore,
	}
	return sc, sc.finite()
}

// send delivers one event to the caller's callback.
func send(emit func(Event) error, ev Event) error {
	if emit == nil {
		return nil
	}
	return emit(ev)
}
