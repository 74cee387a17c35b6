package optimize

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/perf"
	"repro/internal/workload"
)

// referenceScores scores one candidate without sharing anything between
// workloads: every SPEC workload gets its own scenario, its own baseline
// and candidate evaluation, and its own one-shot §3.3 inversion, and the
// battery states are evaluated one scenario at a time. It is the
// per-workload loop the search's deduplicated grid must reproduce.
func referenceScores(t *testing.T, plat *domain.Platform, base pdn.Params, tdp float64, cfg Config) (Scores, bool) {
	t.Helper()
	params := scaleParams(base, cfg)
	var evaluate func(pdn.Scenario) (pdn.Result, error)
	if cfg.Kind == pdn.FlexWatts {
		m := core.NewModel(params)
		evaluate = func(sc pdn.Scenario) (pdn.Result, error) {
			r, err := m.EvaluateMode(sc, core.IVRMode)
			if err != nil {
				return r, err
			}
			alt, err := m.EvaluateMode(sc, core.LDOMode)
			if alt.PIn < r.PIn {
				r = alt
			}
			return r, err
		}
	} else {
		m, err := pdn.New(cfg.Kind, params)
		if err != nil {
			return Scores{}, false
		}
		evaluate = m.Evaluate
	}
	ivr, err := pdn.New(pdn.IVR, base)
	if err != nil {
		t.Fatal(err)
	}
	suite := workload.SPECCPU2006()
	var perfSum float64
	for _, w := range suite.Workloads {
		sc, err := workload.TDPScenario(plat, tdp, w.Type, w.AR)
		if err != nil {
			t.Fatal(err)
		}
		sc.PSU = base.PSU
		b, err := ivr.Evaluate(sc)
		if err != nil {
			t.Fatal(err)
		}
		r, err := evaluate(sc)
		if err != nil {
			return Scores{}, false
		}
		ratio := perf.FreqRatioForBudget(plat, tdp, w.Type, (b.PIn-r.PIn)*r.ETEE)
		perfSum += 1 + w.Scalability*(ratio-1)
	}
	batteries := workload.BatteryLifeWorkloads()
	var batSum float64
	for _, w := range batteries {
		var p float64
		for _, st := range batteryStates() {
			res := w.Residency[st]
			if res == 0 {
				continue
			}
			sc := workload.CStateScenario(plat, st)
			sc.PSU = base.PSU
			r, err := evaluate(sc)
			if err != nil {
				return Scores{}, false
			}
			p += r.PNomTotal * res / r.ETEE
		}
		batSum += p
	}
	bom, area, err := cost.Normalized(plat, tdp)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scores{
		Cost:         bom[cfg.Kind] * costPremium(cfg),
		Area:         area[cfg.Kind] * areaPremium(cfg),
		BatteryPower: batSum / float64(len(batteries)),
		Performance:  perfSum / float64(len(suite.Workloads)),
	}
	return sc, sc.finite()
}

// TestEveryCandidateMatchesPerWorkloadScoring pins every candidate's
// scores, not only the frontier members search.golden records: each
// candidate of the default 45-candidate space, at four TDPs and two PSU
// voltages, scores bit for bit what referenceScores computes one
// workload at a time.
func TestEveryCandidateMatchesPerWorkloadScoring(t *testing.T) {
	plat := domain.NewClientPlatform()
	for _, psu := range []float64{7.2, 12} {
		base := pdn.DefaultParams()
		base.PSU = psu
		e := &Engine{Base: base, Workers: 1}
		for _, tdp := range []float64{4, 18, 37.5, 50} {
			spec, err := Spec{TDP: tdp}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			if n := spec.spaceSize(); n != 45 {
				t.Fatalf("default space has %d candidates, want 45", n)
			}
			s, err := e.newSearch(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			// The 29 SPEC workloads share 20 operating points, so each
			// candidate inverts the power-frequency curve 20 times.
			if len(s.curves) != 20 || len(s.scenarios) != 23 {
				t.Fatalf("scoring grid has %d perf points and %d scenarios, want 20 and 23",
					len(s.curves), len(s.scenarios))
			}
			for key := 0; key < spec.spaceSize(); key++ {
				cfg := spec.config(key)
				got := s.score(cfg)
				want, ok := referenceScores(t, plat, base, tdp, cfg)
				if got.ok != ok {
					t.Fatalf("PSU %v TDP %v %+v: ok %v, reference %v", psu, tdp, cfg, got.ok, ok)
				}
				for _, o := range Objectives() {
					g, w := got.sc.value(o), want.value(o)
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("PSU %v TDP %v %+v: %v = %v, reference %v", psu, tdp, cfg, o, g, w)
					}
				}
			}
		}
	}
}
