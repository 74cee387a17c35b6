// Package perf implements PDNspot's processor performance model (§3.3).
//
// The model answers one question: if a PDN with higher end-to-end
// power-conversion efficiency frees ΔP watts of the TDP budget, how much
// faster does a workload run? Following the paper, the model is built on
// power-frequency curves: raising the compute cluster's clock by a ratio r
// raises each member domain's dynamic power by (V(rf)/V(f))²·r and its
// leakage by (V(rf)/V(f))^2.8. The freed budget is spent by inverting that
// curve, and the resulting frequency gain is scaled by the workload's
// performance scalability (§3.3) to get the performance gain — the paper's
// worked example (250 mW at 4 W → 28 % frequency → 28 % performance for a
// highly-scalable workload) falls out of the same machinery for small
// deltas.
//
// A Curve is one (platform, TDP, workload type) cluster with everything
// that does not depend on the budget precomputed. Its inversion, Ratio, is
// defined as a fixed 48-step bisection of the clock ratio between the DVFS
// bounds, and returns exactly that bisection's bits. It gets there without
// paying for all 48 steps: a bracketed Newton solve estimates the crossing
// r*, two exact evaluations verify that the cluster power is below the
// target at r*−w and above it at r*+w (w = 10⁻¹²·r*) by a margin far larger
// than the power computation's rounding error, and the bisection then
// replays with every midpoint outside that window settled by its position
// and only the few inside it evaluated. A crossing the check cannot verify
// runs the plain bisection, so the result never depends on the estimate.
package perf

import (
	"fmt"
	"math"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
	"repro/internal/workload"
)

// Sensitivity returns the additional power (watts, at domain nominal level)
// required to raise the lead compute domain's clock by 1 % at the TDP
// design point — the Fig 2(a) quantity (~9 mW for the CPU at 4 W, hundreds
// of mW at 50 W).
func Sensitivity(plat *domain.Platform, tdp units.Watt, k domain.Kind, ar float64) units.Watt {
	t := workload.MultiThread
	if k == domain.GFX {
		t = workload.Graphics
	}
	cluster := workload.PerfCluster(plat, tdp, t)
	lead := newCurve(cluster[:1]) // cores or GFX; Fig 2(a) reports the lead domain only
	// Probe downward: at the top TDP the design frequency sits at FMax where
	// the V-f curve clamps, which would zero the voltage term.
	return cluster[0].PNom - lead.cost(0.99)
}

// Inversion constants. bisectSteps defines the result; the others only
// decide how much of the bisection Ratio has to evaluate.
const (
	// bisectSteps is the length of the bisection Ratio replays.
	bisectSteps = 48
	// windowRel is the half-width of the verified window around the
	// crossing estimate, relative to it. The last 7 to 10 of the 48
	// midpoints fall inside it.
	windowRel = 1e-12
	// marginRel is the verification margin relative to the target power.
	// At 2⁻⁴⁴ (512 ulps) it is dozens of times cost's relative rounding
	// error (about a dozen roundings, math.Pow's included, of an ulp or
	// less each) and at most a quarter of the cost change across half
	// the window.
	marginRel = 0x1p-44
	// newtonSteps bounds the crossing search; a healthy solve takes 2 to 4.
	newtonSteps = 32
	// newtonTol stops the solve once a step is this small relative to r.
	// Newton's error shrinks quadratically, so the next iterate is off by
	// about the square of that, far inside the window.
	newtonTol = 1e-9
)

// maxMembers is the largest cluster a Curve holds: PerfCluster returns the
// lead domain and the LLC.
const maxMembers = 2

// member is one cluster domain with the factors of its power that do not
// depend on the clock ratio.
type member struct {
	f0    units.Hertz
	curve domain.VFCurve
	// v0 is the design voltage; dyn, leak and den are (1−FL)·PNom,
	// FL·PNom and v0²·f0, computed in cost's operand order so that
	// hoisting them changes no bit.
	v0, dyn, leak, den float64
}

// Curve is the power-frequency curve of one performance cluster at one
// TDP: the cluster's nominal power as a function of the clock ratio r
// (1 = design frequency), bounded by the lead domain's DVFS range. It is a
// value; build it once and call Ratio for every budget.
type Curve struct {
	members [maxMembers]member
	n       int
	// lo and hi bound the ratio; base, costLo and costHi are the cluster
	// power at 1, lo and hi, and slope1 is its derivative at 1.
	lo, hi               float64
	base, costLo, costHi units.Watt
	slope1               float64
	// monotone records the premise of the verified window: every member's
	// power is non-decreasing in r. It holds for any physical platform.
	monotone bool
}

// NewCurve returns the power-frequency curve of workload type t's
// performance cluster on plat at the TDP.
func NewCurve(plat *domain.Platform, tdp units.Watt, t workload.Type) Curve {
	return newCurve(workload.PerfCluster(plat, tdp, t))
}

func newCurve(cluster []workload.ClusterMember) Curve {
	if len(cluster) > maxMembers {
		panic(fmt.Sprintf("perf: %d-domain cluster, a Curve holds %d", len(cluster), maxMembers))
	}
	c := Curve{n: len(cluster), monotone: true}
	for i, m := range cluster {
		f0 := m.F0
		v0 := m.Curve.VoltageAt(f0)
		mb := member{
			f0: f0, curve: m.Curve, v0: v0,
			dyn: (1 - m.FL) * m.PNom, leak: m.FL * m.PNom, den: v0 * v0 * f0,
		}
		c.members[i] = mb
		c.monotone = c.monotone && f0 > 0 && m.Curve.B >= 0 &&
			m.Curve.VMin > 0 && m.Curve.VMin <= m.Curve.VMax && mb.dyn >= 0 && mb.leak >= 0
	}
	lead := cluster[0]
	// The platform never clocks below ~a quarter of the design point in
	// these experiments; FMin is not in ClusterMember, so use a floor.
	c.lo = math.Max(0.25, 0.8e9/lead.F0*0.25)
	c.hi = lead.FMax / lead.F0
	c.base = c.cost(1)
	c.costLo, c.costHi = c.cost(c.lo), c.cost(c.hi)
	_, c.slope1 = c.costSlope(1)
	return c
}

// cost returns the cluster's total nominal power when every member's
// clock is scaled by ratio r from its design point. Its expressions keep
// the per-call formula's operand order, so the bits match it on every
// architecture, including those where Go fuses multiply-adds.
func (c *Curve) cost(r float64) units.Watt {
	var sum units.Watt
	for i := range c.members[:c.n] {
		m := &c.members[i]
		f1 := m.f0 * r
		v1 := m.curve.VoltageAt(f1)
		dyn := m.dyn * (v1 * v1 * f1) / m.den
		leak := m.leak * math.Pow(v1/m.v0, domain.LeakVoltageExp)
		sum += dyn + leak
	}
	return sum
}

// costSlope returns cost and its derivative at r for the Newton solve.
// Only the verified window relies on cost, so these need not match its
// bits.
func (c *Curve) costSlope(r float64) (units.Watt, float64) {
	var sum, slope float64
	for i := range c.members[:c.n] {
		m := &c.members[i]
		f1 := m.f0 * r
		v1 := m.curve.VoltageAt(f1)
		var dv float64 // dV/dr, zero where the V-f curve clamps
		if raw := m.curve.A + m.curve.B*(f1/units.Giga); raw > m.curve.VMin && raw < m.curve.VMax {
			dv = m.curve.B * m.f0 / units.Giga
		}
		dyn := m.dyn * (v1 * v1 * f1) / m.den
		leak := m.leak * math.Pow(v1/m.v0, domain.LeakVoltageExp)
		sum += dyn + leak
		slope += dyn*(2*dv/v1+1/r) + domain.LeakVoltageExp*leak*dv/v1
	}
	return sum, slope
}

// Ratio inverts the curve: it returns the clock ratio r at which the
// cluster consumes its design power plus deltaNom (which may be negative),
// bounded by the lead domain's DVFS range. The result is exactly that of a
// 48-step bisection between the bounds, NaN budgets included (they give
// the lower bound, as every comparison against NaN is false).
func (c *Curve) Ratio(deltaNom units.Watt) float64 {
	target := c.base + deltaNom
	if target <= 0 || c.costLo >= target {
		return c.lo
	}
	if c.costHi <= target {
		return c.hi
	}
	below, above := c.window(target)
	lo, hi := c.lo, c.hi
	for i := 0; i < bisectSteps; i++ {
		mid := (lo + hi) / 2
		var le bool
		switch {
		case mid <= below:
			le = true
		case mid >= above:
			le = false
		default:
			le = c.cost(mid) <= target
		}
		if le {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// window returns verified bounds around the crossing of target:
// cost(r) <= target for every r <= below, and cost(r) > target for every
// r >= above. When monotone holds, cost is non-decreasing in r up to its
// own rounding error: the roundings of f1 and v1 are monotone, and the
// power terms are non-decreasing in both. So checking each end with a
// margin, marginRel·target, that exceeds twice that error proves the
// bound for every r beyond it. When the check fails the window is
// (−Inf, +Inf), which settles nothing.
func (c *Curve) window(target units.Watt) (below, above float64) {
	if c.monotone {
		r := c.crossing(target)
		w := windowRel * r
		margin := marginRel * target
		if c.cost(r-w) <= target-margin && c.cost(r+w) > target+margin {
			return r - w, r + w
		}
	}
	return math.Inf(-1), math.Inf(1)
}

// crossing estimates the ratio at which cost reaches target, given
// costLo < target < costHi, by Newton's method from r = 1 inside a
// bracket that every evaluation narrows; a step that leaves the bracket
// (past a V-f clamp kink, say) is replaced by the bracket's midpoint.
func (c *Curve) crossing(target units.Watt) float64 {
	a, b := c.lo, c.hi
	r, y, dy := 1.0, c.base, c.slope1
	if !(a <= r && r <= b) {
		r = (a + b) / 2
		y, dy = c.costSlope(r)
	}
	for i := 0; i < newtonSteps; i++ {
		if y <= target {
			a = r
		} else {
			b = r
		}
		next := r - (y-target)/dy
		if !(a <= next && next <= b) {
			next = (a + b) / 2
		}
		if math.Abs(next-r) <= newtonTol*r {
			return next
		}
		r = next
		y, dy = c.costSlope(r)
	}
	return r
}

// FreqRatioForBudget inverts the cluster power-frequency curve once: it
// returns the clock ratio r (1 = design frequency) at which the cluster
// consumes its design power plus deltaNom (which may be negative). The
// ratio is bounded by the lead domain's frequency range. Callers that
// invert one cluster for many budgets build its Curve once instead.
func FreqRatioForBudget(plat *domain.Platform, tdp units.Watt, t workload.Type, deltaNom units.Watt) float64 {
	c := NewCurve(plat, tdp, t)
	return c.Ratio(deltaNom)
}

// Result is a workload's modeled performance under one PDN.
type Result struct {
	PDN pdn.Kind
	// PIn is the platform power the PDN draws at the workload's operating
	// point.
	PIn units.Watt
	// FreqGain is the fractional frequency increase afforded by the budget
	// the PDN frees relative to the baseline (negative if it wastes more).
	FreqGain float64
	// PerfGain is FreqGain scaled by the workload's performance
	// scalability.
	PerfGain float64
	// Relative is 1 + PerfGain: performance normalized to the baseline PDN.
	Relative float64
}

// Evaluator computes relative performance of workloads across PDNs at a
// TDP against a baseline PDN (the paper normalizes to IVR).
type Evaluator struct {
	Platform *domain.Platform
	Baseline pdn.Model
}

// NewEvaluator returns an evaluator normalizing against baseline.
func NewEvaluator(plat *domain.Platform, baseline pdn.Model) *Evaluator {
	return &Evaluator{Platform: plat, Baseline: baseline}
}

// Compare evaluates the workload under every candidate PDN at the TDP and
// returns per-PDN results normalized to the evaluator's baseline. The
// input-side power each PDN saves relative to the baseline converts to
// domain-level budget at the PDN's own ETEE before the power-frequency
// inversion.
func (e *Evaluator) Compare(tdp units.Watt, w workload.Workload, candidates []pdn.Model) (map[pdn.Kind]Result, error) {
	s, err := workload.TDPScenario(e.Platform, tdp, w.Type, w.AR)
	if err != nil {
		return nil, err
	}
	base, err := e.Baseline.Evaluate(s)
	if err != nil {
		return nil, fmt.Errorf("perf: baseline %v: %w", e.Baseline.Kind(), err)
	}
	curve := NewCurve(e.Platform, tdp, w.Type)
	out := make(map[pdn.Kind]Result, len(candidates)+1)
	out[e.Baseline.Kind()] = Result{PDN: e.Baseline.Kind(), PIn: base.PIn, Relative: 1}
	for _, m := range candidates {
		r, err := m.Evaluate(s)
		if err != nil {
			return nil, fmt.Errorf("perf: %v: %w", m.Kind(), err)
		}
		savedIn := base.PIn - r.PIn
		deltaNom := savedIn * r.ETEE
		ratio := curve.Ratio(deltaNom)
		perfGain := w.Scalability * (ratio - 1)
		out[m.Kind()] = Result{
			PDN:      m.Kind(),
			PIn:      r.PIn,
			FreqGain: ratio - 1,
			PerfGain: perfGain,
			Relative: 1 + perfGain,
		}
	}
	return out, nil
}

// SuiteAverage runs Compare for every workload in the suite and returns the
// per-PDN mean relative performance.
func (e *Evaluator) SuiteAverage(tdp units.Watt, suite workload.Suite, candidates []pdn.Model) (map[pdn.Kind]float64, error) {
	sums := make(map[pdn.Kind]float64)
	for _, w := range suite.Workloads {
		res, err := e.Compare(tdp, w, candidates)
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", w.Name, err)
		}
		for k, r := range res {
			sums[k] += r.Relative
		}
	}
	n := float64(len(suite.Workloads))
	for k := range sums {
		sums[k] /= n
	}
	return sums, nil
}
