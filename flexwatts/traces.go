package flexwatts

import (
	"fmt"
	"slices"

	"repro/internal/workload"
)

// SteadyTrace returns a single-phase trace at a fixed operating condition —
// the simplest input to SimulateTrace. It panics if t is not one of the
// four named workload classes.
func SteadyTrace(name string, t WorkloadType, ar, duration float64) Trace {
	return traceFromInternal(workload.SteadyTrace(name, mustWorkloadType("SteadyTrace", t), ar, duration))
}

// BatteryTrace expands a battery-life workload into a per-frame phase
// trace: each frame cycles through the workload's resident package states
// (active burst, memory fetch, panel self-refresh) for the given number of
// frames at the given frame period in seconds. A frame visits only C0MIN
// and C2…C8, so BatteryTrace panics on a nonzero residency in C0 or in an
// unnamed state rather than drop it.
func BatteryTrace(w BatteryWorkload, frames int, period float64) Trace {
	states := make([]CState, 0, len(w.Residency))
	for c := range w.Residency {
		states = append(states, c)
	}
	slices.Sort(states)
	for _, c := range states {
		if res := w.Residency[c]; res != 0 && (c <= C0 || c > C8) {
			panic(fmt.Sprintf("flexwatts: BatteryTrace: package state %v has residency %g, but a frame visits only C0MIN and C2…C8", c, res))
		}
	}
	return traceFromInternal(workload.BatteryTrace(internalBatteryWorkload(w), frames, period))
}

// TraceGenerator produces randomized synthetic workload traces with a
// deterministic seed, mirroring the variety of the paper's ~5000 measured
// benchmark traces (§4.1). The zero value is not usable; construct with
// NewTraceGenerator. A generator is not safe for concurrent use (it carries
// RNG state), but distinct generators are independent.
type TraceGenerator struct {
	g *workload.Generator
}

// NewTraceGenerator returns a generator seeded deterministically: equal
// seeds produce equal traces.
func NewTraceGenerator(seed int64) *TraceGenerator {
	return &TraceGenerator{g: workload.NewGenerator(seed)}
}

// Mixed returns a trace of n phases of the given workload type whose AR
// performs a bounded random walk in [arLo, arHi], with an idlePct fraction
// of phases spent in package idle states. Phase durations are 5–20 ms,
// matching the paper's 10 ms evaluation interval scale. It panics if t is
// not one of the four named workload classes, and on AR bounds outside
// (0,1] or inverted.
func (g *TraceGenerator) Mixed(name string, t WorkloadType, n int, arLo, arHi, idlePct float64) Trace {
	return traceFromInternal(g.g.Mixed(name, mustWorkloadType("TraceGenerator.Mixed", t), n, arLo, arHi, idlePct))
}
