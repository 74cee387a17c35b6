package pdn

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/units"
)

// gridTestParams returns plausible PDNspot parameters for the kernel tests
// (the root-level property test covers the real platform parameters; here
// the point is exercising every branch of the runners).
func gridTestParams() Params {
	return Params{
		TOBIVR:           units.MilliVolt(10),
		TOBMBVR:          units.MilliVolt(20),
		TOBLDO:           units.MilliVolt(15),
		VINLevel:         1.8,
		IVRInLL:          units.MilliOhm(3),
		LDOInLL:          units.MilliOhm(5),
		CoresLL:          units.MilliOhm(2),
		GfxLL:            units.MilliOhm(2),
		SALL:             units.MilliOhm(5),
		IOLL:             units.MilliOhm(5),
		RPG:              units.MilliOhm(1.5),
		IVRIccmax:        50,
		VINIccmax:        40,
		CoresIccmax:      60,
		GfxIccmax:        40,
		SAIccmax:         10,
		IOIccmax:         10,
		FlexSharePenalty: 1.1,
	}
}

// gridTestScenarios builds a grid that exercises the memo machinery the way
// real sweeps do — runs where only AR changes (stage-memo hits), power/
// voltage steps (misses), C-state changes (VR state re-selection), PSU
// changes (off-chip recompiles), idle domains, all-compute-idle points and
// single-domain points — in an order that also forces memo invalidation
// between hits.
func gridTestScenarios() []Scenario {
	base := NewScenario()
	base.Loads[domain.Core0] = Load{PNom: 4, VNom: 0.85, FL: 0.3, AR: 0.6}
	base.Loads[domain.Core1] = Load{PNom: 3.5, VNom: 0.85, FL: 0.3, AR: 0.6}
	base.Loads[domain.LLC] = Load{PNom: 1.2, VNom: 0.8, FL: 0.4, AR: 0.7}
	base.Loads[domain.GFX] = Load{PNom: 5, VNom: 0.75, FL: 0.35, AR: 0.5}
	base.Loads[domain.SA] = Load{PNom: 0.8, VNom: 0.8, FL: 0.25, AR: 0.9}
	base.Loads[domain.IO] = Load{PNom: 0.5, VNom: 1.05, FL: 0.2, AR: 0.95}

	var out []Scenario
	// AR-only runs at two power levels: consecutive points hit the stage
	// memos.
	for _, scale := range []float64{1, 2.5} {
		for _, ar := range []float64{0.3, 0.45, 0.6, 0.8, 1} {
			s := base
			for k := range s.Loads {
				if s.Loads[k].Active() {
					s.Loads[k].PNom *= scale
					s.Loads[k].AR = ar
				}
			}
			out = append(out, s)
		}
	}
	// Voltage and leakage steps: memo misses on VNom/FL.
	for _, dv := range []float64{-0.1, 0.05, 0.2} {
		s := base
		for _, k := range domain.ComputeKinds() {
			s.Loads[k].VNom += dv
			s.Loads[k].FL += dv / 2
		}
		out = append(out, s)
	}
	// C-state ladder at fixed loads: same load key, different VR states.
	for _, c := range []domain.CState{domain.C0, domain.C0MIN, domain.C2, domain.C6, domain.C8} {
		s := base
		s.CState = c
		out = append(out, s)
	}
	// PSU change mid-grid: off-chip recompile.
	for _, psu := range []units.Volt{7.2, 12, 19.5, 7.2} {
		s := base
		s.PSU = psu
		out = append(out, s)
	}
	// Idle subsets: compute-idle (LDO stage's vin==0 branch, SA/IO-only
	// rails), uncore-idle, single tiny domain, light loads (PS1 selection).
	computeIdle := base
	for _, k := range domain.ComputeKinds() {
		computeIdle.Loads[k] = Load{}
	}
	out = append(out, computeIdle)
	uncoreIdle := base
	for _, k := range domain.UncoreKinds() {
		uncoreIdle.Loads[k] = Load{}
	}
	out = append(out, uncoreIdle)
	solo := NewScenario()
	solo.Loads[domain.IO] = Load{PNom: 0.05, VNom: 1.05, FL: 0.2, AR: 1}
	out = append(out, solo)
	light := base
	for k := range light.Loads {
		if light.Loads[k].Active() {
			light.Loads[k].PNom *= 0.05
		}
	}
	out = append(out, light)
	// Mixed rail voltages so MBVR's rail-sharing overvolt branch runs both
	// ways (LLC below and above the GFX voltage).
	swapped := base
	swapped.Loads[domain.LLC].VNom = 1.0
	out = append(out, swapped)
	// Return to base: stage memos must re-validate correctly after misses.
	out = append(out, base)
	return out
}

// TestGridViewAliasing pins View's alias contract: a view shares the
// parent's column storage, so mutation flows both ways — that sharing is
// what lets GridMapCtx chunk one grid across workers without copying.
func TestGridViewAliasing(t *testing.T) {
	scenarios := gridTestScenarios()
	g := GridOf(scenarios)
	v := g.View(3, 9)
	if v.Len() != 6 {
		t.Fatalf("view length %d, want 6", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if v.At(i) != g.At(3+i) {
			t.Fatalf("view point %d differs from parent point %d", i, 3+i)
		}
	}
	// Writing through the view must reach the parent…
	mut := scenarios[len(scenarios)-1]
	mut.Loads[domain.Core0].PNom = 42
	mut.PSU = 19.5
	mut.CState = domain.C2
	v.Set(2, mut)
	if got := g.At(5); got != mut {
		t.Errorf("parent did not see view mutation: got %+v", got)
	}
	// …and writing through the parent must be visible in the view.
	mut.Loads[domain.GFX].AR = 0.123
	g.Set(7, mut)
	if got := v.At(4); got != mut {
		t.Errorf("view did not see parent mutation: got %+v", got)
	}
	// Points outside the window stay untouched by the view writes.
	if g.At(2) != scenarios[2] || g.At(9) != scenarios[9] {
		t.Error("view mutation leaked outside its [lo,hi) window")
	}
}

// gridModel is a PDN model with a batch kernel.
type gridModel interface {
	Model
	EvaluateGrid(*Grid, []Result) error
}

// namedGridModel labels a kernel model for test output.
type namedGridModel struct {
	name string
	m    gridModel
}

// gridTestModels returns every model with a batch kernel at p: the four
// baselines and FlexWatts' two modes. With gridTestParams (penalty 1.1,
// TOBLDO ≠ TOBMBVR) the modes differ from I+MBVR and LDO in every
// constructor-fixed setting, so a kernel that read a baseline's load-line
// or tolerance band instead of its model's own would show.
func gridTestModels(t testing.TB, p Params) []namedGridModel {
	t.Helper()
	var ms []namedGridModel
	for _, k := range Kinds() {
		m, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		ge, ok := m.(gridModel)
		if !ok {
			t.Fatalf("%v model does not implement EvaluateGrid", k)
		}
		ms = append(ms, namedGridModel{k.String(), ge})
	}
	ivrMode, ldoMode := NewFlexWattsModes(p)
	return append(ms, namedGridModel{"FlexWatts-IVR-Mode", ivrMode}, namedGridModel{"FlexWatts-LDO-Mode", ldoMode})
}

// TestEvaluateGridBitwise pins every kernel against the frozen scalar
// oracle, under the real and the kernel-test parameters: for every point,
// EvaluateGrid and Evaluate must both return the oracle's bits in every
// Result field.
func TestEvaluateGridBitwise(t *testing.T) {
	g := GridOf(gridTestScenarios())
	out := make([]Result, g.Len())
	for _, p := range []Params{DefaultParams(), gridTestParams()} {
		for _, nm := range gridTestModels(t, p) {
			if err := nm.m.EvaluateGrid(g, out); err != nil {
				t.Fatalf("%s EvaluateGrid: %v", nm.name, err)
			}
			for i := 0; i < g.Len(); i++ {
				want, err := oracleEvaluate(nm.m, g.At(i))
				if err != nil {
					t.Fatalf("%s oracle point %d: %v", nm.name, i, err)
				}
				if !sameBits(out[i], want) {
					t.Errorf("%s point %d: grid result differs from the oracle\n grid:   %+v\n oracle: %+v", nm.name, i, out[i], want)
				}
				got, err := nm.m.Evaluate(g.At(i))
				if err != nil || !sameBits(got, want) {
					t.Errorf("%s point %d: Evaluate = %+v, %v; oracle %+v", nm.name, i, got, err, want)
				}
			}
		}
	}
}

// TestEvaluateGridErrors pins the error contract for every kernel: the
// first invalid point stops the run with the scalar error wrapped by its
// index, preceding results stay valid, an all-idle grid fails with
// ErrNoLoad, and a short result block is rejected up front.
func TestEvaluateGridErrors(t *testing.T) {
	good := gridTestScenarios()[0]
	empty := GridOf([]Scenario{NewScenario()}) // no active load
	short := GridOf([]Scenario{good, good})

	for _, nm := range gridTestModels(t, gridTestParams()) {
		m := nm.m
		t.Run(nm.name, func(t *testing.T) {
			for _, c := range invalidScenarios(good) {
				g := GridOf([]Scenario{good, c.s, good})
				out := make([]Result, g.Len())
				err := m.EvaluateGrid(g, out)
				if err == nil {
					t.Fatalf("%s: EvaluateGrid accepted an invalid point", c.name)
				}
				_, wantErr := m.Evaluate(c.s)
				if wantErr == nil || wantErr.Error() != c.want {
					t.Fatalf("%s: scalar Evaluate error %v, want %q", c.name, wantErr, c.want)
				}
				if want := GridPointError(1, wantErr).Error(); err.Error() != want {
					t.Errorf("%s: grid error %q, want %q", c.name, err, want)
				}
				want, err := m.Evaluate(good)
				if err != nil {
					t.Fatal(err)
				}
				if out[0] != want {
					t.Errorf("%s: result for the point preceding the failure was not written", c.name)
				}
			}

			if err := m.EvaluateGrid(empty, make([]Result, 1)); !errors.Is(err, ErrNoLoad) || !strings.Contains(err.Error(), "grid point 0") {
				t.Errorf("no-load grid error = %v, want ErrNoLoad wrapped at point 0", err)
			}

			if err := m.EvaluateGrid(short, make([]Result, 1)); err == nil || err.Error() != CheckGridOut(short, make([]Result, 1)).Error() {
				t.Errorf("short result block error = %v, want the result-block check", err)
			}
		})
	}
}

// TestGridAccessors pins the SoA round-trip: Append/Set/At/View agree with
// the scenario values they were fed.
func TestGridAccessors(t *testing.T) {
	ss := gridTestScenarios()
	g := NewGrid(4) // smaller than len(ss): growth path
	for _, s := range ss {
		g.Append(s)
	}
	if g.Len() != len(ss) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(ss))
	}
	for i, s := range ss {
		if g.At(i) != s {
			t.Fatalf("At(%d) round-trip mismatch", i)
		}
	}
	v := g.View(2, 5)
	if v.Len() != 3 {
		t.Fatalf("View len = %d, want 3", v.Len())
	}
	for i := 0; i < 3; i++ {
		if v.At(i) != ss[2+i] {
			t.Fatalf("View.At(%d) != parent point %d", i, 2+i)
		}
	}
	repl := ss[7]
	v.Set(0, repl)
	if g.At(2) != repl {
		t.Error("Set through a view did not write the parent storage")
	}
}
