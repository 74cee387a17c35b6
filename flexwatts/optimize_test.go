package flexwatts_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/flexwatts"
)

func smallOptimizeSpec() flexwatts.OptimizeSpec {
	return flexwatts.OptimizeSpec{
		TDP:             15,
		PDNs:            []flexwatts.Kind{flexwatts.IVR, flexwatts.MBVR},
		LoadlineScales:  []float64{0.9, 1},
		GuardbandScales: []float64{1, 1.25},
	}
}

func TestOptimizeLibrary(t *testing.T) {
	c, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Optimize(context.Background(), smallOptimizeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.SpaceSize != 8 || res.Evaluated != 8 {
		t.Errorf("space %d evaluated %d, want 8/8", res.SpaceSize, res.Evaluated)
	}
	if res.Strategy != flexwatts.StrategyExhaustive {
		t.Errorf("strategy %v", res.Strategy)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range res.Frontier {
		if p.Config.PDN != flexwatts.IVR && p.Config.PDN != flexwatts.MBVR {
			t.Errorf("frontier pdn %v outside the spec", p.Config.PDN)
		}
		if !(p.Scores.Cost > 0) || !(p.Scores.BatteryPower > 0) || !(p.Scores.Performance > 0) {
			t.Errorf("implausible scores %+v", p.Scores)
		}
	}
}

// TestOptimizeLibraryDeterminism runs the same seeded annealing search on
// two independently built clients and demands byte-identical results —
// the public face of the optimizer's reproducibility contract.
func TestOptimizeLibraryDeterminism(t *testing.T) {
	spec := flexwatts.OptimizeSpec{
		TDP:             15,
		LoadlineScales:  []float64{0.8, 0.9, 1, 1.1},
		GuardbandScales: []float64{0.8, 0.9, 1, 1.25},
		VRScales:        []float64{0.8, 1, 1.2},
		Strategy:        flexwatts.StrategyAnneal,
		Seed:            42,
		Budget:          64,
		Chains:          4,
	}
	var got [2][]byte
	for i := range got {
		c, err := flexwatts.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Optimize(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if string(got[0]) != string(got[1]) {
		t.Errorf("same seed, different results:\n%s\n%s", got[0], got[1])
	}
}

func TestOptimizeInvalidSpec(t *testing.T) {
	c, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	bad := []flexwatts.OptimizeSpec{
		{TDP: 900},
		{TDP: 15, VRScales: []float64{99}},
		{TDP: 15, LoadlineScales: []float64{0}},
		{TDP: 15, PDNs: []flexwatts.Kind{flexwatts.Kind(99)}},
	}
	for i, spec := range bad {
		if _, err := c.Optimize(context.Background(), spec); !errors.Is(err, flexwatts.ErrInvalidSpec) {
			t.Errorf("spec %d: err %v, want ErrInvalidSpec", i, err)
		}
	}
}

// TestOptimizeInvalidSpecDeterministic pins the library error for a spec
// whose constraints are all non-finite (only the library can carry NaN;
// JSON cannot): every call names the same constraint, max_cost.
func TestOptimizeInvalidSpecDeterministic(t *testing.T) {
	c, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	spec := smallOptimizeSpec()
	spec.MaxCost, spec.MaxArea = math.Inf(1), math.NaN()
	spec.MaxBatteryPower, spec.MinPerformance = flexwatts.Watt(math.NaN()), math.Inf(-1)
	_, want := c.Optimize(context.Background(), spec)
	if !errors.Is(want, flexwatts.ErrInvalidSpec) || !strings.Contains(want.Error(), "max_cost") {
		t.Fatalf("err = %v, want ErrInvalidSpec naming max_cost", want)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Optimize(context.Background(), spec); err.Error() != want.Error() {
			t.Fatalf("call %d: %q, want %q", i, err, want)
		}
	}
}

// TestOptimizeStreamLibrary pins the incremental callback: events arrive
// while the search runs, a frontier event carries its point, and an error
// from the callback aborts the search with that error.
func TestOptimizeStreamLibrary(t *testing.T) {
	c, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	frontiers, progress := 0, 0
	res, err := c.OptimizeStream(context.Background(), smallOptimizeSpec(), func(ev flexwatts.OptimizeEvent) error {
		switch ev.Kind {
		case flexwatts.OptimizeFrontier:
			frontiers++
			if ev.Point.Scores.Cost <= 0 {
				t.Errorf("frontier event point %+v", ev.Point)
			}
		case flexwatts.OptimizeProgress:
			progress++
		}
		if ev.SpaceSize != 8 {
			t.Errorf("event space size %d", ev.SpaceSize)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frontiers != len(res.Frontier) && frontiers < len(res.Frontier) {
		t.Errorf("%d frontier events for a %d-point frontier", frontiers, len(res.Frontier))
	}
	if progress == 0 {
		t.Error("no progress events")
	}

	sentinel := errors.New("stop here")
	if _, err := c.OptimizeStream(context.Background(), smallOptimizeSpec(), func(flexwatts.OptimizeEvent) error {
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Errorf("callback error surfaced as %v", err)
	}
}

func TestOptimizeVocabularyRoundTrips(t *testing.T) {
	for _, o := range flexwatts.Objectives() {
		got, err := flexwatts.ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("objective %v round-tripped to %v, %v", o, got, err)
		}
		b, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		var back flexwatts.Objective
		if err := json.Unmarshal(b, &back); err != nil || back != o {
			t.Errorf("objective %v json round-tripped to %v, %v", o, back, err)
		}
	}
	for _, s := range flexwatts.SearchStrategies() {
		got, err := flexwatts.ParseSearchStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("strategy %v round-tripped to %v, %v", s, got, err)
		}
	}
	if st, err := flexwatts.ParseSearchStrategy(""); err != nil || st != flexwatts.StrategyAuto {
		t.Errorf("empty strategy parsed to %v, %v (want auto)", st, err)
	}
	if _, err := flexwatts.ParseObjective("speed"); !errors.Is(err, flexwatts.ErrInvalidSpec) {
		t.Errorf("unknown objective err %v", err)
	}
}
