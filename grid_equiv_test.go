// Grid-equivalence property test: the batch EvaluateGrid path must return
// float64-bitwise-identical results to the per-point Evaluate loop
// (documented bound ε = 0), for every PDN kind and both hybrid modes, on the
// real platform parameters. Evaluate runs the same kernel on a one-point
// grid, so this pins the kernels' memo paths against their full path;
// internal/pdn pins both against the frozen scalar oracle. Bitwise identity
// — not an epsilon band — is what guarantees the experiment goldens stay
// byte-identical and that grid- and per-point-resolved cache entries can
// coexist in one sweep.Cache.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// gridEquivGrid builds the property grid: every workload type crossed with
// TDP and activity-ratio sweeps (the shape experiment drivers and batch API
// clients produce — AR innermost, so the stage memos are exercised in their
// hit and miss regimes), plus the C-state ladder.
func gridEquivGrid(tb testing.TB) *pdn.Grid {
	tb.Helper()
	e := benchEnv(tb)
	g := pdn.NewGrid(0)
	for _, wt := range workload.Types() {
		for tdp := 4.0; tdp <= 50; tdp += 5.75 {
			for ar := 0.25; ar <= 1; ar += 0.15 {
				s, err := workload.TDPScenario(e.Platform, tdp, wt, ar)
				if err != nil {
					tb.Fatal(err)
				}
				g.Append(s)
			}
		}
	}
	for _, c := range []domain.CState{domain.C0MIN, domain.C2, domain.C6, domain.C8} {
		g.Append(workload.CStateScenario(e.Platform, c))
	}
	return g
}

// TestGridEquivalence pins EvaluateGrid == looped Evaluate, bitwise, for
// the four static baselines and FlexWatts in both hybrid modes.
func TestGridEquivalence(t *testing.T) {
	e := benchEnv(t)
	g := gridEquivGrid(t)
	out := make([]pdn.Result, g.Len())

	for _, k := range pdn.Kinds() {
		m := e.Baselines[k]
		ge, ok := m.(interface {
			EvaluateGrid(*pdn.Grid, []pdn.Result) error
		})
		if !ok {
			t.Fatalf("%v baseline does not implement EvaluateGrid", k)
		}
		if err := ge.EvaluateGrid(g, out); err != nil {
			t.Fatalf("%v EvaluateGrid: %v", k, err)
		}
		for i := 0; i < g.Len(); i++ {
			want, err := m.Evaluate(g.At(i))
			if err != nil {
				t.Fatalf("%v scalar point %d: %v", k, i, err)
			}
			if out[i] != want {
				t.Errorf("%v point %d: grid result differs from scalar\n grid:   %+v\n scalar: %+v", k, i, out[i], want)
			}
		}
	}

	for _, mode := range core.Modes() {
		if err := e.Flex.EvaluateGridMode(g, out, mode); err != nil {
			t.Fatalf("FlexWatts %v EvaluateGridMode: %v", mode, err)
		}
		for i := 0; i < g.Len(); i++ {
			want, err := e.Flex.EvaluateMode(g.At(i), mode)
			if err != nil {
				t.Fatalf("FlexWatts %v scalar point %d: %v", mode, i, err)
			}
			if out[i] != want {
				t.Errorf("FlexWatts %v point %d: grid result differs from scalar\n grid:   %+v\n scalar: %+v", mode, i, out[i], want)
			}
		}
	}
}
