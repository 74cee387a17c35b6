// Package flexwatts is the public API of the FlexWatts artifact: a
// validated architectural model of client-processor power delivery
// networks (PDNspot) and the paper's contribution built on it — a hybrid
// adaptive PDN whose compute domains sit behind hybrid voltage regulators
// that switch between an IVR-Mode (efficient at high power) and an
// LDO-Mode (efficient at low power), driven by a runtime ETEE-prediction
// algorithm (Algorithm 1).
//
// The package is self-contained: every type an evaluation consumes or
// returns (Watt, WorkloadType, CState, Mode, Kind, Point, Result, Params,
// …) is defined here, with String, Parse* and JSON round-tripping, so
// external modules can construct every request and name every result
// without reaching into the repository's internal packages.
//
// Quick start:
//
//	c, _ := flexwatts.NewClient()
//	res, _ := c.Evaluate(ctx, flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6})
//	fmt.Println(res.Mode, res.ETEE)
//
// Evaluate entry points take a context.Context and honor cancellation;
// EvaluateBatch fans a batch out over the deterministic concurrent sweep
// engine. For the paper's full evaluation as typed datasets, see Suite;
// for the HTTP service and its SDK, see the sibling packages
// flexwatts/api and flexwatts/client.
package flexwatts

import (
	"errors"

	"repro/internal/workload"
)

// Sentinel errors of the evaluation API, checked with errors.Is.
var (
	// ErrInvalidPoint wraps every rejection of a malformed evaluation
	// point (missing workload, out-of-range AR or TDP, contradictory
	// idle-state parameters).
	ErrInvalidPoint = errors.New("flexwatts: invalid point")
	// ErrInvalidSpec wraps every rejection of a malformed optimizer search
	// spec (out-of-range TDP, empty or duplicate axes, oversized space,
	// non-finite constraints).
	ErrInvalidSpec = errors.New("flexwatts: invalid optimize spec")
)

// SPECCPU2006 returns the 29 SPEC CPU2006 benchmarks in Fig 7's order
// (ascending average performance-scalability).
func SPECCPU2006() []Workload {
	return workloadsFromInternal(workload.SPECCPU2006().Workloads)
}

// ThreeDMark06 returns the 3DMark06 graphics subtests (§7.1).
func ThreeDMark06() []Workload {
	return workloadsFromInternal(workload.ThreeDMark06().Workloads)
}

// PowerVirus returns the synthetic maximum-power workload (AR = 1) used to
// size guardbands and Iccmax (§2.4). It panics if t is not one of the four
// named workload classes.
func PowerVirus(t WorkloadType) Workload {
	return workloadFromInternal(workload.PowerVirus(mustWorkloadType("PowerVirus", t)))
}

// StandardTDPs returns the TDP grid of the paper's evaluation (Fig 4:
// 4, 10, 18, 25, 36, 50 W), covering the client segments from fanless
// tablets to performance laptops.
func StandardTDPs() []Watt {
	itdps := workload.StandardTDPs()
	out := make([]Watt, len(itdps))
	for i, t := range itdps {
		out[i] = Watt(t)
	}
	return out
}

// workloadsFromInternal converts a benchmark list.
func workloadsFromInternal(ws []workload.Workload) []Workload {
	out := make([]Workload, len(ws))
	for i, w := range ws {
		out[i] = workloadFromInternal(w)
	}
	return out
}
