package flexwatts

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/pdn"
	"repro/internal/perf"
	"repro/internal/refmodel"
	"repro/internal/workload"
)

// PerfResult is a workload's modeled performance under one PDN, normalized
// to the IVR baseline (the Fig 7/8 presentation).
type PerfResult struct {
	PDN Kind `json:"pdn"`
	// PIn is the platform power the PDN draws at the workload's operating
	// point.
	PIn Watt `json:"p_in"`
	// FreqGain is the fractional frequency increase afforded by the
	// budget the PDN frees relative to the baseline (negative if it
	// wastes more).
	FreqGain float64 `json:"freq_gain"`
	// PerfGain is FreqGain scaled by the workload's performance
	// scalability (§3.3).
	PerfGain float64 `json:"perf_gain"`
	// Relative is 1 + PerfGain: performance normalized to the baseline.
	Relative float64 `json:"relative"`
}

// ValidateAgainstReference runs the time-stepped reference simulator on
// the point and returns (predicted ETEE, measured ETEE, accuracy) — the
// §4.3 validation. The seed drives the reference model's noise streams.
func (c *Client) ValidateAgainstReference(ctx context.Context, k Kind, pt Point, seed int64) (predicted, measured, accuracy float64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, 0, context.Cause(ctx)
	}
	m, err := c.model(k, float64(pt.TDP))
	if err != nil {
		return 0, 0, 0, err
	}
	if err := pt.Validate(); err != nil {
		return 0, 0, 0, err
	}
	s, err := c.scenario(pt)
	if err != nil {
		return 0, 0, 0, err
	}
	r, err := m.Evaluate(s)
	if err != nil {
		return 0, 0, 0, err
	}
	cfg := refmodel.DefaultConfig()
	cfg.Seed = seed
	meas, err := refmodel.Measure(m, s, cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	return r.ETEE, meas.ETEE, refmodel.Accuracy(r.ETEE, meas.ETEE), nil
}

// model resolves a public kind to an evaluable internal model; FlexWatts
// gets its Algorithm 1 auto-mode adapter at the given TDP.
func (c *Client) model(k Kind, tdp float64) (pdn.Model, error) {
	ik, err := internalKind(k)
	if err != nil {
		return nil, err
	}
	if ik == pdn.FlexWatts {
		return core.NewAutoModel(c.flex, c.pred, tdp), nil
	}
	m, ok := c.baselines[ik]
	if !ok {
		return nil, fmt.Errorf("flexwatts: no model for %v", k)
	}
	return m, nil
}

// candidates assembles the comparison models for the performance API,
// excluding the IVR baseline itself.
func (c *Client) candidates(tdp float64, kinds []Kind) ([]pdn.Model, error) {
	out := make([]pdn.Model, 0, len(kinds))
	for _, k := range kinds {
		if k == IVR {
			continue
		}
		m, err := c.model(k, tdp)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// RelativePerformance returns the performance of each candidate PDN on a
// workload at a TDP, normalized to the IVR baseline (the Fig 7/8
// presentation). FlexWatts candidates run with Algorithm 1 in the loop.
func (c *Client) RelativePerformance(ctx context.Context, tdp Watt, w Workload, kinds []Kind) (map[Kind]PerfResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	iw, err := internalWorkload(w)
	if err != nil {
		return nil, err
	}
	cands, err := c.candidates(float64(tdp), kinds)
	if err != nil {
		return nil, err
	}
	res, err := perf.NewEvaluator(c.platform, c.baselines[pdn.IVR]).Compare(float64(tdp), iw, cands)
	if err != nil {
		return nil, err
	}
	out := make(map[Kind]PerfResult, len(res))
	for ik, r := range res {
		out[kindFromInternal(ik)] = PerfResult{
			PDN:      kindFromInternal(r.PDN),
			PIn:      Watt(r.PIn),
			FreqGain: r.FreqGain,
			PerfGain: r.PerfGain,
			Relative: r.Relative,
		}
	}
	return out, nil
}

// SuiteRelativePerformance averages RelativePerformance over a benchmark
// suite (e.g. SPECCPU2006), returning each PDN's mean relative performance
// — the Fig 7 / Fig 8(a) aggregation.
func (c *Client) SuiteRelativePerformance(ctx context.Context, tdp Watt, suite []Workload, kinds []Kind) (map[Kind]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	cands, err := c.candidates(float64(tdp), kinds)
	if err != nil {
		return nil, err
	}
	ws := make([]workload.Workload, len(suite))
	for i, w := range suite {
		if ws[i], err = internalWorkload(w); err != nil {
			return nil, err
		}
	}
	avg, err := perf.NewEvaluator(c.platform, c.baselines[pdn.IVR]).
		SuiteAverage(float64(tdp), workload.Suite{Name: "suite", Workloads: ws}, cands)
	if err != nil {
		return nil, err
	}
	out := make(map[Kind]float64, len(avg))
	for ik, v := range avg {
		out[kindFromInternal(ik)] = v
	}
	return out, nil
}

// CostAndArea returns BOM cost and board area of every PDN at a TDP,
// normalized to IVR (Fig 8(d,e)).
func (c *Client) CostAndArea(ctx context.Context, tdp Watt) (bom, area map[Kind]float64, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, context.Cause(ctx)
	}
	ibom, iarea, err := cost.Normalized(c.platform, float64(tdp))
	if err != nil {
		return nil, nil, err
	}
	bom = make(map[Kind]float64, len(ibom))
	for ik, v := range ibom {
		bom[kindFromInternal(ik)] = v
	}
	area = make(map[Kind]float64, len(iarea))
	for ik, v := range iarea {
		area[kindFromInternal(ik)] = v
	}
	return bom, area, nil
}
