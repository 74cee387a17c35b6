package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/flexwatts/api"
)

// workloadDef is one served traffic mix. Every field is fixed per workload;
// only the seed varies the bodies.
type workloadDef struct {
	name string
	path string
	// points is the evaluation points per request; 0 for optimize, whose
	// work unit is the candidate count each answer reports.
	points int
	// pool is the number of distinct bodies the measured phases draw from;
	// 0 means every request carries a body of its own, never sent again.
	pool int
	// warm is the number of warm-up requests of a round on a workload
	// without a pool (a pool workload warms up by sending each pool body
	// once).
	warm int
	// round is how many measured requests one instance serves on a
	// workload without a pool. Its cache grows by points keys per request
	// and never evicts, so such a workload runs its phases in rounds, each
	// on a fresh instance, and the round size bounds the process's memory.
	round int
	// openRate is the open-loop phase's fixed arrival rate in requests/s,
	// about a third of the seed's closed-loop rate on a 2-core machine.
	openRate float64
	// traceShare is the share of measured requests the traced run replays.
	traceShare float64
}

func (d workloadDef) stream() bool { return d.path == api.PathEvaluateStream }

// workloads lists the benchmark's traffic mixes; README.md gives each one's
// reason.
var workloads = []workloadDef{
	{name: "flex-small", path: api.PathEvaluate, points: 64, pool: 64, openRate: 500, traceShare: 0.005},
	{name: "sweep-cold", path: api.PathEvaluate, points: 4096, warm: 2, round: 60, openRate: 11, traceShare: 0.25},
	{name: "scatter-warm", path: api.PathEvaluateStream, points: 4096, pool: 8, openRate: 15, traceShare: 0.15},
	{name: "optimize", path: api.PathOptimize, pool: 8, openRate: 100, traceShare: 0.03},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
	}
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are one round's request bodies, built before its timing starts,
// and the order each phase sends them in (indices into bodies).
type inputs struct {
	bodies [][]byte
	warm   []int
	closed []int
	open   []int
	// cycle marks a pool workload: its phases wrap around their order.
	// Without a pool a phase stops when its bodies run out.
	cycle bool
}

// source makes a run's inputs from its seed.
type source struct {
	d    workloadDef
	rng  *rand.Rand
	used map[string]bool // values drawn so far that must not repeat
	pool inputs
}

func newSource(d workloadDef, seed int64) *source {
	s := &source{d: d, rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
	if d.pool == 0 {
		return s
	}
	for len(s.pool.bodies) < d.pool {
		var b []byte
		switch d.name {
		case "flex-small":
			b = flexBody(s.rng, d.points)
		case "scatter-warm":
			b = scatterBody(s.rng, d.points)
		case "optimize":
			b = searchBody(s.rng, s.used)
		default:
			panic("no generator for workload " + d.name)
		}
		s.pool.bodies = append(s.pool.bodies, b)
	}
	s.pool.cycle = true
	s.pool.warm = seq(0, d.pool)
	s.pool.closed = draws(s.rng, d.pool)
	s.pool.open = draws(s.rng, d.pool)
	return s
}

// round returns the inputs of the next round: the pool again, or fresh
// bodies that no earlier round of the run has sent.
func (s *source) round() inputs {
	if s.d.pool > 0 {
		return s.pool
	}
	n := s.d.warm + s.d.round
	in := inputs{warm: seq(0, s.d.warm), closed: seq(s.d.warm, n), open: seq(s.d.warm, n)}
	for i := 0; i < n; i++ {
		in.bodies = append(in.bodies, sweepBody(s.rng, s.d.points, s.used))
	}
	return in
}

// draws is a seeded order over a pool, long enough that phases rarely wrap.
func draws(rng *rand.Rand, pool int) []int {
	order := make([]int, 4096)
	for i := range order {
		order[i] = rng.Intn(pool)
	}
	return order
}

// baselineKinds are the four static PDNs in sweep order.
var baselineKinds = []string{"IVR", "MBVR", "LDO", "I+MBVR"}

var workloadTypes = []string{"Single-Thread", "Multi-Thread", "Graphics"}

var idleStates = []string{"C0MIN", "C2", "C3", "C6", "C7", "C8"}

// Wire values are rounded to a few decimals so bodies stay compact.
func roundTo(x float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(x*p) / p
}

func drawTDP(rng *rand.Rand) float64 { return roundTo(4+46*rng.Float64(), 3) }

func drawAR(rng *rand.Rand) float64 { return roundTo(0.2+0.8*rng.Float64(), 4) }

func evalBody(pts []api.EvalPoint) []byte {
	b, err := json.Marshal(api.EvalRequest{Points: pts})
	if err != nil {
		panic(err) // plain structs of strings and finite floats always encode
	}
	return b
}

// searchBody is an exhaustive search at a TDP no earlier body used over
// five PDNs at three guardband scales and the unit loadline and VR scales:
// 15 candidates. The default 45-candidate space runs about 10 ms alone,
// where two concurrent searches sometimes share the cores and sometimes
// run one after the other, so its closed-loop median jumped between 10 and
// 17 ms from run to run; 15-candidate searches keep one mode.
func searchBody(rng *rand.Rand, used map[string]bool) []byte {
	for {
		tdp := roundTo(4+46*rng.Float64(), 2)
		key := fmt.Sprint(tdp)
		if used[key] {
			continue
		}
		used[key] = true
		b, err := json.Marshal(api.OptimizeRequest{TDP: tdp, LoadlineScales: []float64{1}, Strategy: "exhaustive"})
		if err != nil {
			panic(err)
		}
		return b
	}
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// flexBody is a batch of FlexWatts points: TDP 4–50 W, all three workload
// types, AR 0.2–1, and a seeded share of package C-states.
func flexBody(rng *rand.Rand, n int) []byte {
	pts := make([]api.EvalPoint, n)
	for i := range pts {
		p := api.EvalPoint{PDN: "FlexWatts", TDP: drawTDP(rng)}
		if rng.Intn(8) == 0 {
			p.CState = idleStates[rng.Intn(len(idleStates))]
		} else {
			p.Workload = workloadTypes[rng.Intn(len(workloadTypes))]
			p.AR = drawAR(rng)
		}
		pts[i] = p
	}
	return evalBody(pts)
}

// sweepARs is the AR axis of a cold sweep, innermost: 32 steps over 0.2–1.
var sweepARs = func() []float64 {
	ars := make([]float64, 32)
	for j := range ars {
		ars[j] = roundTo(0.2+0.8*float64(j)/31, 4)
	}
	return ars
}()

// sweepBody is four sub-sweeps, one per baseline kind, each TDP-major with
// AR innermost. Its TDPs are drawn from the seed and recorded in used, so
// no (kind, workload type, TDP) — and hence no cache key — repeats within
// a run.
func sweepBody(rng *rand.Rand, n int, used map[string]bool) []byte {
	per := n / len(baselineKinds)
	tdpsPer := per / len(sweepARs)
	pts := make([]api.EvalPoint, 0, n)
	for _, kind := range baselineKinds {
		wt := workloadTypes[rng.Intn(len(workloadTypes))]
		tdps := make([]float64, 0, tdpsPer)
		for len(tdps) < tdpsPer {
			tdp := drawTDP(rng)
			key := fmt.Sprintf("%s/%s/%g", kind, wt, tdp)
			if used[key] {
				continue
			}
			used[key] = true
			tdps = append(tdps, tdp)
		}
		sort.Float64s(tdps)
		for _, tdp := range tdps {
			for _, ar := range sweepARs {
				pts = append(pts, api.EvalPoint{PDN: kind, TDP: tdp, Workload: wt, AR: ar})
			}
		}
	}
	return evalBody(pts)
}

// scatterBody draws kind, TDP, workload type and AR independently for
// every point, so neighbouring points share no column.
func scatterBody(rng *rand.Rand, n int) []byte {
	pts := make([]api.EvalPoint, n)
	for i := range pts {
		pts[i] = api.EvalPoint{
			PDN:      baselineKinds[rng.Intn(len(baselineKinds))],
			TDP:      drawTDP(rng),
			Workload: workloadTypes[rng.Intn(len(workloadTypes))],
			AR:       drawAR(rng),
		}
	}
	return evalBody(pts)
}
