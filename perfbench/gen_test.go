package main

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/maphash"
	"testing"

	"repro/flexwatts/api"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/pdn"
)

func mustWorkload(t *testing.T, name string) workloadDef {
	t.Helper()
	d, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func decodePoints(t *testing.T, body []byte) []api.EvalPoint {
	t.Helper()
	var req api.EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return req.Points
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, d := range workloads {
		a, b, other := newSource(d, 7), newSource(d, 7), newSource(d, 8)
		for round := 0; round < 2; round++ {
			ia, ib, io := a.round(), b.round(), other.round()
			differs := false
			for i := range ia.bodies {
				if !bytes.Equal(ia.bodies[i], ib.bodies[i]) {
					t.Fatalf("%s round %d body %d: same seed, different bytes", d.name, round, i)
				}
				differs = differs || !bytes.Equal(ia.bodies[i], io.bodies[i])
			}
			if !differs {
				t.Errorf("%s round %d: seeds 7 and 8 gave identical bodies", d.name, round)
			}
			for _, order := range [][]int{ia.closed, ia.open} {
				for _, b := range order {
					if b < 0 || b >= len(ia.bodies) {
						t.Fatalf("%s: order names body %d of %d", d.name, b, len(ia.bodies))
					}
				}
			}
		}
	}
}

// replayOf runs a body through the replay's decode, point and scenario
// stages and its aside preparation, which count the memo-eligible points.
func replayOf(t *testing.T, d workloadDef, env *experiments.Env, body []byte) *replay {
	t.Helper()
	rp := &replay{t: &tracer{d: d}, env: env, body: body}
	for _, step := range []func() error{rp.decode, rp.points, rp.scenarios} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	rp.prepareAside()
	return rp
}

func TestSweepColdNeverRepeatsAKey(t *testing.T) {
	d := mustWorkload(t, "sweep-cold")
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		kind pdn.Kind
		sc   pdn.Scenario
	}
	seed := maphash.MakeSeed()
	seen := map[uint64]bool{}
	src := newSource(d, 3)
	for round := 0; round < 2; round++ {
		for _, body := range src.round().bodies {
			rp := replayOf(t, d, env, body)
			for _, j := range rp.jobs {
				h := maphash.Comparable(seed, key{j.kind, j.sc})
				if seen[h] {
					t.Fatalf("round %d: key %v at TDP %g repeats", round, j.kind, j.tdp)
				}
				seen[h] = true
			}
		}
	}
}

func TestMemoShareSplitsTheEvaluateWorkloads(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	share := func(name string) float64 {
		d := mustWorkload(t, name)
		rp := replayOf(t, d, env, newSource(d, 5).round().bodies[0])
		return float64(rp.memo) / float64(rp.basePts)
	}
	if s := share("sweep-cold"); s < 0.9 {
		t.Errorf("sweep-cold memo share %.3f, want >= 0.9", s)
	}
	if s := share("scatter-warm"); s > 0.02 {
		t.Errorf("scatter-warm memo share %.3f, want ~0", s)
	}
}

func TestWorkloadsAreWhatTheirWhySays(t *testing.T) {
	t.Run("flex-small", func(t *testing.T) {
		d := mustWorkload(t, "flex-small")
		types := map[string]bool{}
		idle, active := 0, 0
		for _, body := range newSource(d, 1).round().bodies {
			pts := decodePoints(t, body)
			if len(pts) != d.points {
				t.Fatalf("%d points per request, want %d", len(pts), d.points)
			}
			for _, p := range pts {
				if p.PDN != "FlexWatts" || p.TDP < 4 || p.TDP > 50 {
					t.Fatalf("point %+v is not a FlexWatts point at 4-50 W", p)
				}
				if p.CState != "" {
					idle++
					continue
				}
				active++
				types[p.Workload] = true
				if p.AR < 0.2 || p.AR > 1 {
					t.Fatalf("AR %g outside 0.2-1", p.AR)
				}
			}
		}
		if len(types) != 3 || idle == 0 || idle > active {
			t.Errorf("types %v, %d idle of %d points", types, idle, idle+active)
		}
	})
	t.Run("sweep-cold", func(t *testing.T) {
		d := mustWorkload(t, "sweep-cold")
		for _, body := range newSource(d, 1).round().bodies[:4] {
			pts := decodePoints(t, body)
			if len(pts) != 4096 {
				t.Fatalf("%d points per request, want 4096", len(pts))
			}
			for i, p := range pts {
				sub := i / 1024
				if p.PDN != baselineKinds[sub] || p.Workload != pts[sub*1024].Workload {
					t.Fatalf("point %d: %s %s, want one %s sub-sweep of one type", i, p.PDN, p.Workload, baselineKinds[sub])
				}
				if p.AR != sweepARs[i%len(sweepARs)] {
					t.Fatalf("point %d: AR %g is not the innermost axis", i, p.AR)
				}
				if i%1024 > 0 && p.TDP < pts[i-1].TDP {
					t.Fatalf("point %d: TDP %g after %g is not TDP-major", i, p.TDP, pts[i-1].TDP)
				}
			}
		}
	})
	t.Run("scatter-warm", func(t *testing.T) {
		d := mustWorkload(t, "scatter-warm")
		in := newSource(d, 1).round()
		if len(in.bodies) != d.pool || len(in.warm) != d.pool {
			t.Fatalf("%d bodies, %d warm-up requests; want the pool of %d sent once", len(in.bodies), len(in.warm), d.pool)
		}
		pts := decodePoints(t, in.bodies[0])
		same := 0
		for i, p := range pts {
			if p.PDN == "FlexWatts" {
				t.Fatalf("point %d is FlexWatts; scatter-warm is baselines only", i)
			}
			if i > 0 && p.TDP == pts[i-1].TDP {
				same++
			}
		}
		if len(pts) != 4096 || same > 4 {
			t.Errorf("%d points, %d neighbours share a TDP", len(pts), same)
		}
	})
	t.Run("optimize", func(t *testing.T) {
		d := mustWorkload(t, "optimize")
		env, err := experiments.NewEnv()
		if err != nil {
			t.Fatal(err)
		}
		rp := replayOf(t, d, env, newSource(d, 1).round().bodies[0])
		eng := optimize.Engine{Platform: env.Platform, Base: env.Params, Workers: 1}
		res, err := eng.Run(context.Background(), *rp.opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluated != 15 || res.SpaceSize != 15 || res.Strategy != optimize.Exhaustive {
			t.Errorf("search scored %d of %d with %v, want an exhaustive 15", res.Evaluated, res.SpaceSize, res.Strategy)
		}
		kinds := map[pdn.Kind]bool{}
		for _, p := range res.Frontier {
			kinds[p.Config.Kind] = true
		}
		if len(rp.opt.Kinds) != 0 || len(kinds) < 2 {
			t.Errorf("spec kinds %v, frontier kinds %v; want all five PDNs searched", rp.opt.Kinds, kinds)
		}
	})
}
