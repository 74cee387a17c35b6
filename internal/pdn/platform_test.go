package pdn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
	"repro/internal/workload"
)

// kernelModel is a PDN model with a batch kernel.
type kernelModel interface {
	pdn.Model
	EvaluateGrid(*pdn.Grid, []pdn.Result) error
}

// platformModels returns the four baselines and FlexWatts' two modes at
// the Table 2 calibration, named for test output.
func platformModels(t *testing.T) map[string]kernelModel {
	t.Helper()
	p := pdn.DefaultParams()
	ms := map[string]kernelModel{}
	for _, k := range pdn.Kinds() {
		m, err := pdn.New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		ms[k.String()] = m.(kernelModel)
	}
	ms["FlexWatts-IVR-Mode"], ms["FlexWatts-LDO-Mode"] = pdn.NewFlexWattsModes(p)
	return ms
}

// TestKernelMatchesOracleRealPlatform runs the frozen scalar oracle over
// the root TestGridEquivalence grid on the real platform — every workload
// type over TDP and AR sweeps, AR innermost, plus the C-state ladder — and
// requires EvaluateGrid and Evaluate to return its bits at every point.
func TestKernelMatchesOracleRealPlatform(t *testing.T) {
	plat := domain.NewClientPlatform()
	g := pdn.NewGrid(0)
	for _, wt := range workload.Types() {
		for tdp := 4.0; tdp <= 50; tdp += 5.75 {
			for ar := 0.25; ar <= 1; ar += 0.15 {
				s, err := workload.TDPScenario(plat, tdp, wt, ar)
				if err != nil {
					t.Fatal(err)
				}
				g.Append(s)
			}
		}
	}
	for _, c := range []domain.CState{domain.C0MIN, domain.C2, domain.C6, domain.C8} {
		g.Append(workload.CStateScenario(plat, c))
	}
	out := make([]pdn.Result, g.Len())
	for name, m := range platformModels(t) {
		if err := m.EvaluateGrid(g, out); err != nil {
			t.Fatalf("%s EvaluateGrid: %v", name, err)
		}
		for i := 0; i < g.Len(); i++ {
			want, err := pdn.OracleEvaluate(m, g.At(i))
			if err != nil {
				t.Fatalf("%s oracle point %d: %v", name, i, err)
			}
			got, err := m.Evaluate(g.At(i))
			if err != nil || !pdn.SameBits(got, want) || !pdn.SameBits(out[i], want) {
				t.Errorf("%s point %d differs from the oracle\n Evaluate: %+v %v\n grid:     %+v\n oracle:   %+v", name, i, got, err, out[i], want)
			}
		}
	}
}

// finiteBits returns a float64 with random bits, redrawn until finite:
// any sign, magnitude or subnormal.
func finiteBits(rng *rand.Rand) float64 {
	for {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

// TestPowerFlowProperties checks the physics of the one power flow on
// 20,000 seeded real-platform points (TDP 4–50 W, every workload type, AR
// 0.05–1, PSU 7.2, 12 or 19.5 V) plus every package state, for the four
// baselines and both FlexWatts modes:
//   - energy conservation: |PIn − PNomTotal − Breakdown.Total()| is at most
//     4 ulp of PIn;
//   - 0 < ETEE ≤ 1;
//   - every Breakdown component is finite and non-negative;
//   - an idle domain carrying arbitrary finite VNom, FL and AR returns the
//     same bits as the zero Load.
//
// PIn is not monotone in PNom today (phase shedding makes a phase free, so
// each phase boundary is a downward step in loss); that property waits for
// the loss-model fix.
func TestPowerFlowProperties(t *testing.T) {
	plat := domain.NewClientPlatform()
	rng := rand.New(rand.NewSource(1))
	psus := []units.Volt{7.2, 12, 19.5}
	g, noisy := pdn.NewGrid(0), pdn.NewGrid(0)
	add := func(s pdn.Scenario) {
		s.PSU = psus[rng.Intn(len(psus))]
		g.Append(s)
		for k := range s.Loads {
			if !s.Loads[k].Active() {
				s.Loads[k] = pdn.Load{VNom: finiteBits(rng), FL: finiteBits(rng), AR: finiteBits(rng)}
			}
		}
		noisy.Append(s)
	}
	for g.Len() < 20000 {
		wt := workload.Types()[rng.Intn(len(workload.Types()))]
		s, err := workload.TDPScenario(plat, 4+46*rng.Float64(), wt, 0.05+0.95*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		add(s)
	}
	for _, c := range domain.CStates() {
		add(workload.CStateScenario(plat, c))
	}

	out, noisyOut := make([]pdn.Result, g.Len()), make([]pdn.Result, g.Len())
	var worst float64 // largest conservation gap seen, in ulps of PIn
	for name, m := range platformModels(t) {
		if err := m.EvaluateGrid(g, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.EvaluateGrid(noisy, noisyOut); err != nil {
			t.Fatalf("%s idle-field grid: %v", name, err)
		}
		for i := range out {
			r := &out[i]
			ulp := math.Nextafter(r.PIn, math.Inf(1)) - r.PIn
			gap := math.Abs(r.PIn - r.PNomTotal - r.Breakdown.Total())
			if !(gap <= 4*ulp) {
				t.Fatalf("%s point %d: PIn %g − PNom %g − losses %g = %g, over 4 ulp (%g)",
					name, i, r.PIn, r.PNomTotal, r.Breakdown.Total(), gap, 4*ulp)
			}
			worst = math.Max(worst, gap/ulp)
			if !(r.ETEE > 0 && r.ETEE <= 1) {
				t.Fatalf("%s point %d: ETEE %g outside (0,1]", name, i, r.ETEE)
			}
			b := r.Breakdown
			for _, c := range []float64{b.Guardband, b.PowerGate, b.OnChipVR, b.OffChipVR, b.CondCompute, b.CondUncore} {
				if !(c >= 0 && c <= math.MaxFloat64) {
					t.Fatalf("%s point %d: breakdown %+v has a negative or non-finite component", name, i, b)
				}
			}
			if !pdn.SameBits(noisyOut[i], *r) {
				t.Fatalf("%s point %d: idle domains' VNom/FL/AR changed the result\n zero loads: %+v\n noisy:      %+v", name, i, *r, noisyOut[i])
			}
		}
		for _, i := range []int{0, g.Len() / 2, g.Len() - 1} {
			if r, err := m.Evaluate(noisy.At(i)); err != nil || !pdn.SameBits(r, out[i]) {
				t.Errorf("%s point %d: Evaluate with idle-field noise = %+v, %v; want %+v", name, i, r, err, out[i])
			}
		}
	}
	t.Logf("%d points: conservation gap at most %.2f ulp of PIn", g.Len(), worst)
}
