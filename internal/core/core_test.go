package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
	"repro/internal/workload"
)

func testSetup(t *testing.T) (*domain.Platform, *Model, *Predictor) {
	t.Helper()
	plat := domain.NewClientPlatform()
	m := NewModel(pdn.DefaultParams())
	pred, err := NewPredictor(plat, m, DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	return plat, m, pred
}

func TestModesDiffer(t *testing.T) {
	plat, m, _ := testSetup(t)
	// At 4W LDO-Mode must win; at 50W MT IVR-Mode must win.
	s4, err := workload.TDPScenario(plat, 4, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := m.EvaluateMode(s4, IVRMode)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := m.EvaluateMode(s4, LDOMode)
	if err != nil {
		t.Fatal(err)
	}
	if !(rl.ETEE > ri.ETEE) {
		t.Errorf("4W: LDO-Mode %.3f should beat IVR-Mode %.3f", rl.ETEE, ri.ETEE)
	}
	s50, _ := workload.TDPScenario(plat, 50, workload.MultiThread, 0.6)
	ri, _ = m.EvaluateMode(s50, IVRMode)
	rl, _ = m.EvaluateMode(s50, LDOMode)
	if !(ri.ETEE > rl.ETEE) {
		t.Errorf("50W: IVR-Mode %.3f should beat LDO-Mode %.3f", ri.ETEE, rl.ETEE)
	}
}

func TestPredictorMatchesOracle(t *testing.T) {
	// Algorithm 1's table lookup must agree with brute-force best-mode
	// evaluation on nearly the whole (type, TDP, AR) grid; table
	// interpolation may flip near-crossover points where both modes are
	// within a whisker.
	plat, m, pred := testSetup(t)
	total, agree, disagreeCost := 0, 0, 0.0
	for _, wt := range workload.Types() {
		for tdp := 4.0; tdp <= 50; tdp += 3.5 {
			for ar := 0.3; ar <= 0.9; ar += 0.1 {
				s, err := workload.TDPScenario(plat, tdp, wt, ar)
				if err != nil {
					t.Fatal(err)
				}
				oracle, ri, rl, err := m.BestMode(s)
				if err != nil {
					t.Fatal(err)
				}
				got := pred.Predict(Inputs{TDP: tdp, AR: ar, Type: wt, CState: domain.C0})
				total++
				if got == oracle {
					agree++
				} else {
					disagreeCost += math.Abs(ri.ETEE - rl.ETEE)
				}
			}
		}
	}
	rate := float64(agree) / float64(total)
	if rate < 0.95 {
		t.Errorf("predictor agrees with oracle on %.1f%% of grid, want >= 95%%", rate*100)
	}
	if total-agree > 0 {
		avgCost := disagreeCost / float64(total-agree)
		if avgCost > 0.01 {
			t.Errorf("mispredictions cost %.2f%% ETEE on average, want < 1%%", avgCost*100)
		}
	}
}

func TestPredictorIdleStates(t *testing.T) {
	// Battery-life states run LDO-Mode (or tie): the IVR path pays its
	// two-stage losses even when idle.
	_, _, pred := testSetup(t)
	in := Inputs{CState: domain.C0MIN}
	if pred.ETEE(LDOMode, in) < pred.ETEE(IVRMode, in) {
		t.Error("C0MIN: LDO-Mode should not be worse than IVR-Mode")
	}
}

func TestFlexTracksBest(t *testing.T) {
	// §7.1: FlexWatts stays within ~1-2% of the best static PDN everywhere.
	plat, m, pred := testSetup(t)
	params := pdn.DefaultParams()
	statics := []pdn.Model{}
	for _, k := range pdn.Kinds() {
		sm, err := pdn.New(k, params)
		if err != nil {
			t.Fatal(err)
		}
		statics = append(statics, sm)
	}
	for _, wt := range workload.Types() {
		for _, tdp := range workload.StandardTDPs() {
			s, err := workload.TDPScenario(plat, tdp, wt, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			best := 0.0
			for _, sm := range statics {
				r, err := sm.Evaluate(s)
				if err != nil {
					t.Fatal(err)
				}
				best = math.Max(best, r.ETEE)
			}
			mode := pred.Predict(Inputs{TDP: tdp, AR: 0.6, Type: wt, CState: domain.C0})
			r, err := m.EvaluateMode(s, mode)
			if err != nil {
				t.Fatal(err)
			}
			if r.ETEE < best-0.02 {
				t.Errorf("%v %gW: FlexWatts %.3f trails best static %.3f by > 2%%",
					wt, tdp, r.ETEE, best)
			}
		}
	}
}

func TestSwitchFlowLatency(t *testing.T) {
	f := DefaultSwitchFlow()
	// §6: 45 + 19 + 30 = 94 us.
	if !units.ApproxEqual(f.Latency(), units.MicroSecond(94), 1e-9) {
		t.Errorf("switch latency = %g, want 94us", f.Latency())
	}
	if f.Energy() <= 0 {
		t.Error("switch energy must be positive")
	}
}

func TestControllerHysteresis(t *testing.T) {
	_, _, pred := testSetup(t)
	ctrl := NewController(pred, DefaultSwitchFlow())
	// Inputs that want LDO-Mode at 4W.
	inLDO := Inputs{TDP: 4, AR: 0.6, Type: workload.MultiThread, CState: domain.C0}
	// Inputs that want IVR-Mode at 50W.
	inIVR := Inputs{TDP: 50, AR: 0.6, Type: workload.MultiThread, CState: domain.C0}

	mode, overhead, energy := ctrl.Step(0.01, inLDO)
	if mode != LDOMode || overhead <= 0 || energy <= 0 {
		t.Fatalf("first step should switch to LDO-Mode with overhead, got %v %g %g", mode, overhead, energy)
	}
	// Immediately asking for the other mode is blocked by MinResidency...
	mode, overhead, _ = ctrl.Step(0.001, inIVR)
	if mode != LDOMode || overhead != 0 {
		t.Fatalf("hysteresis should hold LDO-Mode, got %v overhead %g", mode, overhead)
	}
	// ...but allowed once the residency elapses.
	mode, overhead, _ = ctrl.Step(0.02, inIVR)
	if mode != IVRMode || overhead <= 0 {
		t.Fatalf("after residency should switch to IVR-Mode, got %v overhead %g", mode, overhead)
	}
	if ctrl.Switches() != 2 {
		t.Errorf("switch count = %d, want 2", ctrl.Switches())
	}
}

func TestAutoModelInference(t *testing.T) {
	plat, m, pred := testSetup(t)
	am := NewAutoModel(m, pred, 4)
	if am.Kind() != pdn.FlexWatts {
		t.Error("AutoModel kind")
	}
	// Graphics scenario must be classified as graphics.
	s, _ := workload.TDPScenario(plat, 18, workload.Graphics, 0.6)
	in := InputsFromScenario(s, 18)
	if in.Type != workload.Graphics {
		t.Errorf("graphics scenario classified as %v", in.Type)
	}
	// Two active cores without GFX is multi-threaded.
	s, _ = workload.TDPScenario(plat, 18, workload.MultiThread, 0.6)
	in = InputsFromScenario(s, 18)
	if in.Type != workload.MultiThread {
		t.Errorf("MT scenario classified as %v", in.Type)
	}
	if math.Abs(in.AR-0.6) > 0.05 {
		t.Errorf("AR estimate %.2f, want ~0.60", in.AR)
	}
	// One core is single-threaded.
	s, _ = workload.TDPScenario(plat, 18, workload.SingleThread, 0.6)
	in = InputsFromScenario(s, 18)
	if in.Type != workload.SingleThread {
		t.Errorf("ST scenario classified as %v", in.Type)
	}
	// AutoModel evaluation at 4W lands in LDO-Mode.
	s, _ = workload.TDPScenario(plat, 4, workload.MultiThread, 0.6)
	if _, err := am.Evaluate(s); err != nil {
		t.Fatal(err)
	}
	if am.M.Mode() != LDOMode {
		t.Errorf("4W auto evaluation left mode %v, want LDO-Mode", am.M.Mode())
	}
}

func TestEvaluateModeErrors(t *testing.T) {
	_, m, _ := testSetup(t)
	if _, err := m.EvaluateMode(pdn.NewScenario(), IVRMode); err == nil {
		t.Error("empty scenario accepted")
	}
	plat := domain.NewClientPlatform()
	s, _ := workload.TDPScenario(plat, 18, workload.MultiThread, 0.6)
	if _, err := m.EvaluateMode(s, Mode(9)); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestEvaluateGridModeErrors pins the batch error contract in both modes
// (the invalid point's scalar error wrapped with its index, earlier points
// written, an all-idle grid failing with ErrNoLoad, a short result block
// rejected) and the order of the unknown-mode error: scenario validation,
// or the result-block check, comes first.
func TestEvaluateGridModeErrors(t *testing.T) {
	m := NewModel(pdn.DefaultParams())
	plat := domain.NewClientPlatform()
	good, err := workload.TDPScenario(plat, 18, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Loads[domain.Core0].AR = 1.5 // outside (0,1]
	g := pdn.GridOf([]pdn.Scenario{good, bad, good})
	empty := pdn.GridOf([]pdn.Scenario{pdn.NewScenario()})
	shortErr := pdn.CheckGridOut(g, make([]pdn.Result, 1))

	for _, mode := range Modes() {
		out := make([]pdn.Result, g.Len())
		err := m.EvaluateGridMode(g, out, mode)
		_, wantErr := m.EvaluateMode(bad, mode)
		if wantErr == nil {
			t.Fatalf("%v: scalar EvaluateMode accepted the invalid point", mode)
		}
		if err == nil || err.Error() != pdn.GridPointError(1, wantErr).Error() {
			t.Errorf("%v: grid error %v, want %v wrapped at point 1", mode, err, wantErr)
		}
		want, err := m.EvaluateMode(good, mode)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != want {
			t.Errorf("%v: result for the point preceding the failure was not written", mode)
		}
		if err := m.EvaluateGridMode(empty, make([]pdn.Result, 1), mode); !errors.Is(err, pdn.ErrNoLoad) {
			t.Errorf("%v: no-load grid error = %v, want wrapped ErrNoLoad", mode, err)
		}
		if err := m.EvaluateGridMode(g, make([]pdn.Result, 1), mode); err == nil || err.Error() != shortErr.Error() {
			t.Errorf("%v: short result block error = %v, want %v", mode, err, shortErr)
		}
	}

	const unknown = Mode(9)
	const unknownErr = "core: unknown mode Mode(9)"
	if _, err := m.EvaluateMode(good, unknown); err == nil || err.Error() != unknownErr {
		t.Errorf("scalar unknown mode error = %v, want %q", err, unknownErr)
	}
	if _, err := m.EvaluateMode(pdn.NewScenario(), unknown); !errors.Is(err, pdn.ErrNoLoad) {
		t.Errorf("scalar unknown mode on an invalid scenario = %v, want ErrNoLoad first", err)
	}
	if err := m.EvaluateGridMode(g, make([]pdn.Result, g.Len()), unknown); err == nil || err.Error() != unknownErr {
		t.Errorf("grid unknown mode error = %v, want %q", err, unknownErr)
	}
	if err := m.EvaluateGridMode(g, make([]pdn.Result, 1), unknown); err == nil || err.Error() != shortErr.Error() {
		t.Errorf("grid unknown mode with a short block = %v, want %v first", err, shortErr)
	}
}

func TestPredictorConfigValidation(t *testing.T) {
	plat, m, _ := testSetup(t)
	if _, err := NewPredictor(plat, m, PredictorConfig{TDPGrid: []units.Watt{4}, ARPoints: 9}); err == nil {
		t.Error("single TDP grid point accepted")
	}
	if _, err := NewPredictor(plat, m, PredictorConfig{TDPGrid: []units.Watt{4, 50}, ARPoints: 1}); err == nil {
		t.Error("single AR point accepted")
	}
}

func TestModeString(t *testing.T) {
	if IVRMode.String() != "IVR-Mode" || LDOMode.String() != "LDO-Mode" {
		t.Error("Mode.String mismatch")
	}
	if len(Modes()) != 2 {
		t.Error("Modes() size")
	}
}
