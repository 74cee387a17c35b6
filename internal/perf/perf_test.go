package perf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
	"repro/internal/workload"
)

func testPlat() *domain.Platform { return domain.NewClientPlatform() }

func TestSensitivityMatchesPaper(t *testing.T) {
	plat := testPlat()
	// Fig 2(a): ~9mW per 1% CPU frequency at 4W TDP.
	s4 := Sensitivity(plat, 4, domain.Core0, 0.56)
	if s4 < units.MilliWatt(5) || s4 > units.MilliWatt(15) {
		t.Errorf("CPU sensitivity at 4W = %s, want ~9mW", units.FormatWatt(s4))
	}
	// Hundreds of mW at 50W.
	s50 := Sensitivity(plat, 50, domain.Core0, 0.56)
	if s50 < 0.2 || s50 > 1.2 {
		t.Errorf("CPU sensitivity at 50W = %s, want hundreds of mW", units.FormatWatt(s50))
	}
}

func TestSensitivityMonotone(t *testing.T) {
	plat := testPlat()
	for _, k := range []domain.Kind{domain.Core0, domain.GFX} {
		prev := 0.0
		for _, tdp := range workload.StandardTDPs() {
			s := Sensitivity(plat, tdp, k, 0.56)
			if s <= prev {
				t.Errorf("%v sensitivity at %gW (%g) not above %g", k, tdp, s, prev)
			}
			prev = s
		}
	}
}

func TestFreqRatioZeroBudget(t *testing.T) {
	plat := testPlat()
	for _, tdp := range workload.StandardTDPs() {
		r := FreqRatioForBudget(plat, tdp, workload.MultiThread, 0)
		if math.Abs(r-1) > 1e-6 {
			t.Errorf("zero budget at %gW gives ratio %g, want 1", tdp, r)
		}
	}
}

func TestFreqRatioInverseProperty(t *testing.T) {
	// Property: the returned ratio's cluster power matches the requested
	// budget (when the ratio is interior, not clamped at the DVFS bounds).
	plat := testPlat()
	f := func(tdpRaw, dRaw float64) bool {
		tdp := 4 + math.Mod(math.Abs(tdpRaw), 46)
		delta := math.Mod(dRaw, 2) // +-2W
		c := NewCurve(plat, tdp, workload.MultiThread)
		r := FreqRatioForBudget(plat, tdp, workload.MultiThread, delta)
		if r <= c.lo+1e-9 || r >= c.hi-1e-9 {
			return true // clamped; nothing to invert
		}
		return units.ApproxEqual(c.cost(r), c.base+delta, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFreqRatioSigns(t *testing.T) {
	plat := testPlat()
	up := FreqRatioForBudget(plat, 18, workload.MultiThread, 1.0)
	down := FreqRatioForBudget(plat, 18, workload.MultiThread, -1.0)
	if !(up > 1) || !(down < 1) {
		t.Errorf("budget signs: +1W -> %g, -1W -> %g", up, down)
	}
	// A huge budget clamps at the DVFS ceiling.
	max := FreqRatioForBudget(plat, 18, workload.MultiThread, 1e6)
	if hi := NewCurve(plat, 18, workload.MultiThread).hi; math.Abs(max-hi) > 1e-9 {
		t.Errorf("huge budget should clamp to %g, got %g", hi, max)
	}
}

// referenceRatio is the §3.3 inversion as the model defines it, kept
// verbatim as the oracle for Curve.Ratio: rebuild the cluster, then bisect
// the clock ratio 48 times between the DVFS bounds, evaluating the cluster
// power at every midpoint.
func referenceRatio(plat *domain.Platform, tdp units.Watt, t workload.Type, deltaNom units.Watt) float64 {
	cluster := workload.PerfCluster(plat, tdp, t)
	base := referenceCost(cluster, 1)
	target := base + deltaNom
	if target <= 0 {
		return referenceMinRatio(cluster)
	}
	lo, hi := referenceMinRatio(cluster), referenceMaxRatio(cluster)
	if referenceCost(cluster, lo) >= target {
		return lo
	}
	if referenceCost(cluster, hi) <= target {
		return hi
	}
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if referenceCost(cluster, mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func referenceCost(cluster []workload.ClusterMember, r float64) units.Watt {
	var sum units.Watt
	for _, m := range cluster {
		f0 := m.F0
		f1 := f0 * r
		v0 := m.Curve.VoltageAt(f0)
		v1 := m.Curve.VoltageAt(f1)
		dyn := (1 - m.FL) * m.PNom * (v1 * v1 * f1) / (v0 * v0 * f0)
		leak := m.FL * m.PNom * math.Pow(v1/v0, domain.LeakVoltageExp)
		sum += dyn + leak
	}
	return sum
}

func referenceMinRatio(cluster []workload.ClusterMember) float64 {
	return math.Max(0.25, 0.8e9/cluster[0].F0*0.25)
}

func referenceMaxRatio(cluster []workload.ClusterMember) float64 {
	return cluster[0].FMax / cluster[0].F0
}

// exactnessDeltas returns the budgets TestCurveMatchesReference tries on
// one curve: IEEE special values, a dense linear sweep of the realistic
// ±2.4 W range, log-spaced magnitudes from 10⁻⁹ to 10 W of either sign,
// and the budgets that put the target exactly on (and one ulp either
// side of) zero, the DVFS-bound powers and interior cluster powers.
func exactnessDeltas(c *Curve) []float64 {
	d := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, 5e-324, -5e-324, 1e-12, -1e-12,
		1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for i := -120; i <= 120; i++ {
		d = append(d, float64(i)*0.02)
	}
	for e := -9.0; e <= 1; e += 0.5 {
		d = append(d, math.Pow(10, e), -math.Pow(10, e))
	}
	edges := []float64{-c.base, c.costLo - c.base, c.costHi - c.base}
	for k := 1; k < 8; k++ {
		r := c.lo + (c.hi-c.lo)*float64(k)/8
		edges = append(edges, c.cost(r)-c.base)
	}
	for _, e := range edges {
		d = append(d, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	return d
}

// TestCurveMatchesReference is the exactness contract: on a dense grid of
// TDPs (4–50 W in 0.25 W steps), every workload type's cluster and every
// budget of exactnessDeltas, Curve.Ratio and FreqRatioForBudget return
// the reference bisection's bits.
func TestCurveMatchesReference(t *testing.T) {
	plat := testPlat()
	for _, wt := range workload.Types() {
		wt := wt
		t.Run(wt.String(), func(t *testing.T) {
			t.Parallel()
			cases, mismatches := 0, 0
			for tdp := 4.0; tdp <= 50; tdp += 0.25 {
				c := NewCurve(plat, tdp, wt)
				deltas := exactnessDeltas(&c)
				if tdp == 4 && len(deltas) < 300 {
					t.Fatalf("%d deltas per curve, want at least 300", len(deltas))
				}
				for _, d := range deltas {
					cases++
					want := referenceRatio(plat, tdp, wt, d)
					got := c.Ratio(d)
					if math.Float64bits(got) != math.Float64bits(want) {
						if mismatches++; mismatches <= 5 {
							t.Errorf("tdp %g delta %g: Ratio = %v, reference %v", tdp, d, got, want)
						}
					}
					if tdp == 18 {
						if one := FreqRatioForBudget(plat, tdp, wt, d); math.Float64bits(one) != math.Float64bits(want) {
							t.Errorf("tdp %g delta %g: FreqRatioForBudget = %v, reference %v", tdp, d, one, want)
						}
					}
				}
			}
			if mismatches > 0 {
				t.Errorf("%d of %d cases differ from the reference", mismatches, cases)
			}
		})
	}
}

// FuzzFreqRatio checks Curve.Ratio against the reference bisection bit for
// bit on any TDP (folded into the modeled 4–50 W axis), any workload type
// and any budget.
func FuzzFreqRatio(f *testing.F) {
	for _, d := range []float64{0, 1e-300, -1e-300, 5e-324, 1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN()} {
		for i, tdp := range []float64{4, 18, 50} {
			f.Add(tdp, uint8(i), d)
		}
	}
	plat := testPlat()
	f.Fuzz(func(t *testing.T, tdpRaw float64, typ uint8, d float64) {
		tdp := 4 + math.Mod(math.Abs(tdpRaw), 46)
		if !(tdp >= 4 && tdp <= 50) {
			tdp = 4
		}
		wt := workload.Type(typ % 4)
		c := NewCurve(plat, tdp, wt)
		got, want := c.Ratio(d), referenceRatio(plat, tdp, wt, d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tdp %v %v delta %v: Ratio = %v, reference %v", tdp, wt, d, got, want)
		}
	})
}

func testEvaluator(t *testing.T) (*Evaluator, []pdn.Model) {
	t.Helper()
	p := pdn.DefaultParams()
	base := pdn.NewIVRModel(p)
	cands := []pdn.Model{pdn.NewMBVRModel(p), pdn.NewLDOModel(p)}
	return NewEvaluator(testPlat(), base), cands
}

func TestCompareBaselineIsUnity(t *testing.T) {
	ev, cands := testEvaluator(t)
	w := workload.SPECCPU2006().Workloads[0]
	res, err := ev.Compare(4, w, cands)
	if err != nil {
		t.Fatal(err)
	}
	if res[pdn.IVR].Relative != 1 {
		t.Errorf("baseline relative = %g", res[pdn.IVR].Relative)
	}
	// At 4W both MBVR and LDO must beat IVR (Fig 7).
	for _, k := range []pdn.Kind{pdn.MBVR, pdn.LDO} {
		if !(res[k].Relative > 1) {
			t.Errorf("%v at 4W should beat IVR, got %.3f", k, res[k].Relative)
		}
	}
}

func TestPerfGainScalesWithScalability(t *testing.T) {
	// Two workloads differing only in scalability: the more scalable one
	// gains more (Fig 7's sort).
	ev, cands := testEvaluator(t)
	low := workload.Workload{Name: "low", Type: workload.SingleThread, AR: 0.6, Scalability: 0.3}
	high := workload.Workload{Name: "high", Type: workload.SingleThread, AR: 0.6, Scalability: 0.9}
	rl, err := ev.Compare(4, low, cands)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := ev.Compare(4, high, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !(rh[pdn.LDO].PerfGain > rl[pdn.LDO].PerfGain) {
		t.Errorf("scalability 0.9 gain %.3f should exceed 0.3 gain %.3f",
			rh[pdn.LDO].PerfGain, rl[pdn.LDO].PerfGain)
	}
	// Both share the same frequency gain.
	if math.Abs(rh[pdn.LDO].FreqGain-rl[pdn.LDO].FreqGain) > 1e-9 {
		t.Error("frequency gain should not depend on scalability")
	}
}

func TestSuiteAverageHeadline(t *testing.T) {
	// The paper's headline: >22% average SPEC gain at 4W for the
	// LDO-friendly PDNs; the reproduction lands in the 8-25% band.
	ev, cands := testEvaluator(t)
	avg, err := ev.SuiteAverage(4, workload.SPECCPU2006(), cands)
	if err != nil {
		t.Fatal(err)
	}
	gain := avg[pdn.LDO] - 1
	if gain < 0.08 || gain > 0.30 {
		t.Errorf("SPEC 4W LDO gain = %.1f%%, want 8-30%% (paper: 22%%)", gain*100)
	}
	if avg[pdn.IVR] != 1 {
		t.Error("baseline average should be 1")
	}
}

func TestCompareErrors(t *testing.T) {
	ev, cands := testEvaluator(t)
	bad := workload.Workload{Name: "bad", Type: workload.BatteryLife, AR: 0.5, Scalability: 0.5}
	if _, err := ev.Compare(4, bad, cands); err == nil {
		t.Error("battery-life workload accepted by Compare")
	}
	w := workload.SPECCPU2006().Workloads[0]
	if _, err := ev.Compare(99, w, cands); err == nil {
		t.Error("out-of-range TDP accepted")
	}
}
