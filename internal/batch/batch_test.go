package batch

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// TestEvaluatePerPointErrors pins the one-pass error contract with groups
// whose kernels reject them: an all-idle scenario has no load, so each
// such point must carry exactly its scalar error, the lowest failing
// index must win across groups whatever order the groups run in, and the
// rejected groups' other points must still evaluate to their scalar
// results — which is what lets the stream write one error line and go on.
func TestEvaluatePerPointErrors(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	e := &Evaluator{Baselines: env.Baselines, Flex: env.Flex, Predictor: env.Predictor, Workers: 2}
	active, err := workload.TDPScenario(env.Platform, 18, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	idle := pdn.NewScenario() // no active domain: pdn.ErrNoLoad
	pts := []Point{
		{Kind: pdn.IVR, Scenario: active},
		{Kind: pdn.MBVR, Scenario: active},
		{Kind: pdn.MBVR, Scenario: idle, TDP: 18},
		{Kind: pdn.MBVR, Scenario: active},
		{Kind: pdn.IVR, Scenario: idle},
		{Kind: pdn.FlexWatts, Scenario: idle, TDP: 18},
		{Kind: pdn.FlexWatts, Scenario: active, TDP: 18},
		{Kind: pdn.IVR, Scenario: active},
	}
	res, err := e.Evaluate(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()

	for i, p := range pts {
		var want pdn.Result
		var wantErr error
		if p.Kind == pdn.FlexWatts {
			want, wantErr = core.NewAutoModel(env.Flex, env.Predictor, p.TDP).Evaluate(p.Scenario)
		} else {
			want, wantErr = env.Baselines[p.Kind].Evaluate(p.Scenario)
		}
		got, gotErr := res.At(i)
		if (p.Scenario == idle) != (wantErr != nil) || (wantErr != nil && !errors.Is(wantErr, pdn.ErrNoLoad)) {
			t.Fatalf("point %d: scalar error %v, want ErrNoLoad exactly on the idle points", i, wantErr)
		}
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() || !errors.Is(gotErr, pdn.ErrNoLoad) {
				t.Errorf("point %d: error %v, want the scalar %v", i, gotErr, wantErr)
			}
			continue
		}
		if gotErr != nil || got != want {
			t.Errorf("point %d: got (%+v, %v), want the scalar %+v", i, got, gotErr, want)
		}
	}
	if i, err := res.FirstErr(); i != 2 || !errors.Is(err, pdn.ErrNoLoad) {
		t.Errorf("FirstErr = (%d, %v), want point 2's ErrNoLoad", i, err)
	}
	if m := res.Mode(6); m != env.Predictor.Predict(core.InputsFromScenario(active, 18)) {
		t.Errorf("point 6 mode %v, want the predicted mode", m)
	}
}
