// Package repro's root bench harness regenerates every table and figure of
// the paper's evaluation as a testing.B benchmark (run with
// `go test -bench=. -benchmem`), plus the DESIGN.md ablation benches.
// Each figure benchmark reports the experiment's headline quantity as a
// custom metric so `go test -bench` output doubles as a results table.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"repro/flexwatts/api"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/pdn"
	"repro/internal/perf"
	"repro/internal/refmodel"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(tb testing.TB) *experiments.Env {
	tb.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		tb.Fatal(envErr)
	}
	return envVal
}

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, id string) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure (DESIGN.md per-experiment index).

func BenchmarkFig2a(b *testing.B) { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkFig3(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig4j(b *testing.B) { benchExperiment(b, "fig4j") }
func BenchmarkFig5(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B) { benchExperiment(b, "fig8c") }
func BenchmarkFig8d(b *testing.B) { benchExperiment(b, "fig8d") }
func BenchmarkFig8e(b *testing.B) { benchExperiment(b, "fig8e") }
func BenchmarkTab1(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkTab2(b *testing.B)  { benchExperiment(b, "tab2") }
func BenchmarkObs(b *testing.B)   { benchExperiment(b, "obs") }

// benchSuite regenerates the entire registry through the sweep engine with
// the given worker count. Each iteration gets a fresh evaluation cache so
// the benchmark measures real full-suite work (including the first-pass
// dedupe), not memoized replays of the previous iteration.
func benchSuite(b *testing.B, workers int) {
	base := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := *base
		e.Workers = workers
		e.Cache = sweep.NewCache()
		if err := experiments.RunAll(&e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSerial regenerates the full evaluation one sweep point at a
// time — the baseline for the parallel speedup.
func BenchmarkSuiteSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkSuiteParallel regenerates the full evaluation on the sweep
// engine's default GOMAXPROCS worker pool. Compare ns/op against
// BenchmarkSuiteSerial for the full-suite speedup: Fig 4's reference
// simulations take almost all of the suite's CPU, and each experiment's
// sweep gets the whole worker budget, so the speedup tracks how well the
// Fig 4 grid spreads over the cores.
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

// BenchmarkCompareOnTraces measures the batch trace-comparison throughput:
// 8 independent mixed traces across the four static PDNs plus FlexWatts,
// serial versus the GOMAXPROCS pool.
func BenchmarkCompareOnTraces(b *testing.B) {
	e := benchEnv(b)
	traces := make([]workload.Trace, 8)
	for i := range traces {
		traces[i] = workload.NewGenerator(int64(i+1)).Mixed(
			"bench", workload.MultiThread, 100, 0.3, 0.85, 0.25)
	}
	statics := make([]pdn.Model, 0, 4)
	for _, k := range pdn.Kinds() {
		statics = append(statics, e.Baselines[k])
	}
	cfg := sim.Config{Platform: e.Platform, TDP: 18}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.CompareOnTraces(context.Background(), cfg, statics, e.Flex, e.Predictor, traces, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateETEE measures the cost of one closed-form PDN
// evaluation, the framework's innermost primitive.
func BenchmarkEvaluateETEE(b *testing.B) {
	e := benchEnv(b)
	s, err := workload.TDPScenario(e.Platform, 18, workload.MultiThread, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	m := e.Baselines[pdn.IVR]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// gridBenchGrid builds the batch-evaluation benchmark grid: every workload
// type × 32 TDP steps × 43 activity ratios = 4128 points, TDP-major with AR
// innermost — the rectangular shape experiment drivers and batch API
// clients submit, and the one the grid kernels' previous-point memos are
// designed for.
func gridBenchGrid(tb testing.TB) *pdn.Grid {
	tb.Helper()
	e := benchEnv(tb)
	g := pdn.NewGrid(3 * 32 * 43)
	for _, wt := range workload.Types() {
		for ti := 0; ti < 32; ti++ {
			tdp := 4 + float64(ti)*46/31
			for ai := 0; ai <= 42; ai++ {
				ar := float64(8+ai) / 50 // 0.16 … 1.00
				s, err := workload.TDPScenario(e.Platform, tdp, wt, ar)
				if err != nil {
					tb.Fatal(err)
				}
				g.Append(s)
			}
		}
	}
	return g
}

// BenchmarkEvaluateGrid measures the batch evaluation kernel on the
// 4128-point grid, reporting sustained points/s — the headline number the
// CI perf gate tracks. Compare against BenchmarkEvaluateGridLooped (the
// same grid through per-point Evaluate) or BenchmarkEvaluateETEE (one
// Evaluate call). Sub-benchmarks cover every static kind plus FlexWatts in
// both hybrid modes.
func BenchmarkEvaluateGrid(b *testing.B) {
	e := benchEnv(b)
	g := gridBenchGrid(b)
	out := make([]pdn.Result, g.Len())
	run := func(b *testing.B, eval func() error) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eval(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(g.Len())/b.Elapsed().Seconds(), "points/s")
	}
	for _, k := range pdn.Kinds() {
		m := e.Baselines[k].(interface {
			EvaluateGrid(*pdn.Grid, []pdn.Result) error
		})
		b.Run(k.String(), func(b *testing.B) {
			run(b, func() error { return m.EvaluateGrid(g, out) })
		})
	}
	for _, mode := range core.Modes() {
		mode := mode
		b.Run("FlexWatts-"+mode.String(), func(b *testing.B) {
			run(b, func() error { return e.Flex.EvaluateGridMode(g, out, mode) })
		})
	}
}

// BenchmarkEvaluateGridLooped runs the identical 4128-point grid through
// per-point Evaluate, with the same points/s metric. Evaluate is the same
// kernel on a one-point grid, so this measures per-point kernel calls: the
// per-call setup (one-point grid, runner state) and the memos a one-point
// call cannot use. The top-level benchmark keeps the historical IVR-only
// shape (the BENCH_8 headline); sub-benchmarks cover each kind.
func BenchmarkEvaluateGridLooped(b *testing.B) {
	e := benchEnv(b)
	g := gridBenchGrid(b)
	loop := func(b *testing.B, m pdn.Model) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < g.Len(); j++ {
				if _, err := m.Evaluate(g.At(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(g.Len())/b.Elapsed().Seconds(), "points/s")
	}
	loop(b, e.Baselines[pdn.IVR])
	for _, k := range pdn.Kinds() {
		k := k
		b.Run(k.String(), func(b *testing.B) { loop(b, e.Baselines[k]) })
	}
}

// BenchmarkEvaluateGridParallel measures the full parallel grid pipeline —
// GridMapCtx chunking the 4128-point grid over a worker pool, each chunk
// running the shard-batched cache probe and the batch kernel — at 1, 2, 4
// and GOMAXPROCS workers (deduplicated, so a 4-core machine runs three
// sub-benchmarks and an 8-core machine four). Each iteration starts from a
// fresh cache: the measured work is the cold serving path a first-seen
// request takes (probe, claim, kernel, store), which is where worker
// scaling matters. The chunk size is the adaptive default (chunk=0).
// Compare points/s across the workers=N sub-benchmarks for the parallel
// speedup; single-core hosts necessarily report flat numbers.
func BenchmarkEvaluateGridParallel(b *testing.B) {
	e := benchEnv(b)
	g := gridBenchGrid(b)
	out := make([]pdn.Result, g.Len())
	m := e.Baselines[pdn.IVR]
	seen := make(map[int]bool)
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if seen[w] {
			continue
		}
		seen[w] = true
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := sweep.NewCache()
				if err := sweep.GridMapCtx(context.Background(), w, c, m, g, out, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(g.Len())/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkPredictor measures one Algorithm 1 table-lookup decision, the
// operation the PMU performs every 10 ms interval.
func BenchmarkPredictor(b *testing.B) {
	e := benchEnv(b)
	in := core.Inputs{TDP: 18, AR: 0.6, Type: workload.MultiThread, CState: domain.C0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Predictor.Predict(in)
	}
}

// BenchmarkReferenceSim measures the time-stepped validation reference
// (2000 steps of 1 us).
func BenchmarkReferenceSim(b *testing.B) {
	e := benchEnv(b)
	s, err := workload.TDPScenario(e.Platform, 18, workload.MultiThread, 0.6)
	if err != nil {
		b.Fatal(err)
	}
	m := e.Baselines[pdn.IVR]
	cfg := refmodel.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := refmodel.Measure(m, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize measures design-space search throughput in the
// library: one exhaustive 45-candidate search (every PDN topology at the
// default parameter scales) per iteration. Served searches are timed by
// perfbench's optimize workload and BenchmarkServeOptimize.
// candidates/s is the headline gated by bench-check.
func BenchmarkOptimize(b *testing.B) {
	e := benchEnv(b)
	eng := optimize.Engine{Platform: e.Platform, Base: e.Params, Cache: e.Cache, Workers: e.Workers}
	spec := optimize.Spec{
		TDP:   18,
		Kinds: []pdn.Kind{pdn.FlexWatts, pdn.IVR, pdn.MBVR, pdn.LDO, pdn.IMBVR},
		Seed:  1,
	}
	candidates := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(context.Background(), spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		candidates += res.Evaluated
	}
	b.ReportMetric(float64(candidates)/b.Elapsed().Seconds(), "candidates/s")
}

// serveBody is a canonical evaluate request body (json.Marshal of
// api.EvalRequest, as the SDK sends) of n points. "sweep" is shaped like
// perfbench's sweep-cold: the four baselines in turn, TDP-major with 32
// ARs innermost. "flex" is FlexWatts points over TDP, workload type and
// AR, with every eighth point in a package idle state.
func serveBody(tb testing.TB, shape string, n int) []byte {
	tb.Helper()
	kinds := []string{"IVR", "MBVR", "LDO", "I+MBVR"}
	types := []string{"Single-Thread", "Multi-Thread", "Graphics"}
	pts := make([]api.EvalPoint, n)
	for i := range pts {
		switch shape {
		case "sweep":
			pts[i] = api.EvalPoint{PDN: kinds[i*4/n], TDP: 4 + float64(i/32%32)*1.375,
				Workload: types[i*4/n%3], AR: 0.2 + 0.8*float64(i%32)/31}
		case "flex":
			pts[i] = api.EvalPoint{PDN: "FlexWatts", TDP: 4 + float64(i%23)*2, Workload: types[i%3], AR: 0.2 + 0.05*float64(i%17)}
			if i%8 == 7 {
				pts[i] = api.EvalPoint{PDN: "FlexWatts", TDP: 4 + float64(i%23)*2, CState: "C6"}
			}
		default:
			tb.Fatalf("unknown body shape %q", shape)
		}
	}
	b, err := json.Marshal(api.EvalRequest{Points: pts})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// discardResponse is an http.ResponseWriter that keeps only the status and
// the body length, so a handler measured through it pays for no recorder.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) WriteHeader(status int) { d.status = status }

func (d *discardResponse) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}

// serveOnce returns a function that serves body on path through h, in
// process and without a connection, and fails tb unless it answers 200.
func serveOnce(tb testing.TB, h http.Handler, path string, body []byte) func() {
	tb.Helper()
	rd := bytes.NewReader(body)
	req, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Body = io.NopCloser(rd)
	w := &discardResponse{header: http.Header{}}
	return func() {
		rd.Reset(body)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			tb.Fatalf("%s: status %d, %d bytes", path, w.status, w.n)
		}
	}
}

// BenchmarkServeEvaluate measures flexwattsd's evaluate handler on one
// canonical request per iteration, HTTP transport excluded: decode, kernel
// pass and encode. Sub-benchmarks mirror perfbench's served workloads.
func BenchmarkServeEvaluate(b *testing.B) {
	h := server.New(benchEnv(b), server.Options{}).Handler()
	for _, bc := range []struct {
		name, path, shape string
		n                 int
	}{
		{"sweep-4096", api.PathEvaluate, "sweep", 4096},
		{"flex-64", api.PathEvaluate, "flex", 64},
		{"stream-4096", api.PathEvaluateStream, "sweep", 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			serve := serveOnce(b, h, bc.path, serveBody(b, bc.shape, bc.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			b.ReportMetric(float64(bc.n)*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkServeOptimize measures flexwattsd's optimize handler, HTTP
// transport excluded: decode, search and encode, the optimize counterpart
// of BenchmarkServeEvaluate. Its bodies are shaped like perfbench's
// optimize workload: exhaustive searches at loadline scale 1 (5 PDNs × 3
// guardband scales = 15 candidates) at 8 seeded TDPs, served in turn.
func BenchmarkServeOptimize(b *testing.B) {
	const candidates = 15
	h := server.New(benchEnv(b), server.Options{}).Handler()
	rng := rand.New(rand.NewSource(1))
	serves := make([]func(), 8)
	for i := range serves {
		tdp := math.Round((4+46*rng.Float64())*100) / 100
		body, err := json.Marshal(api.OptimizeRequest{TDP: tdp, LoadlineScales: []float64{1}, Strategy: "exhaustive"})
		if err != nil {
			b.Fatal(err)
		}
		serves[i] = serveOnce(b, h, api.PathOptimize, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serves[i%len(serves)]()
	}
	b.ReportMetric(candidates*float64(b.N)/b.Elapsed().Seconds(), "candidates/s")
}

// BenchmarkTraceSim measures FlexWatts trace simulation throughput
// (phases per second of a mixed 200-phase trace).
func BenchmarkTraceSim(b *testing.B) {
	e := benchEnv(b)
	tr := workload.NewGenerator(1).Mixed("bench", workload.MultiThread, 200, 0.3, 0.85, 0.25)
	cfg := sim.Config{Platform: e.Platform, TDP: 18}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl := core.NewController(e.Predictor, core.DefaultSwitchFlow())
		if _, err := sim.RunFlexWatts(cfg, e.Flex, ctrl, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md "Design choices called out for ablation").

// BenchmarkAblationTableRes quantifies predictor quality versus firmware
// table resolution: it reports the ETEE lost to mispredictions (relative to
// oracle mode selection) for coarse and fine tables.
func BenchmarkAblationTableRes(b *testing.B) {
	e := benchEnv(b)
	for _, cfg := range []struct {
		name string
		pc   core.PredictorConfig
	}{
		{"coarse-3x3", core.PredictorConfig{TDPGrid: []units.Watt{4, 18, 50}, ARPoints: 3}},
		{"default-7x9", core.DefaultPredictorConfig()},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			pred, err := core.NewPredictor(e.Platform, e.Flex, cfg.pc)
			if err != nil {
				b.Fatal(err)
			}
			var lost, points float64
			for i := 0; i < b.N; i++ {
				lost, points = 0, 0
				for _, wt := range workload.Types() {
					for tdp := 4.0; tdp <= 50; tdp += 4.6 {
						for ar := 0.35; ar <= 0.85; ar += 0.1 {
							s, err := workload.TDPScenario(e.Platform, tdp, wt, ar)
							if err != nil {
								b.Fatal(err)
							}
							_, ri, rl, err := e.Flex.BestMode(s)
							if err != nil {
								b.Fatal(err)
							}
							best := ri.ETEE
							if rl.ETEE > best {
								best = rl.ETEE
							}
							got := pred.Predict(core.Inputs{TDP: tdp, AR: ar, Type: wt, CState: domain.C0})
							var chosen float64
							if got == core.IVRMode {
								chosen = ri.ETEE
							} else {
								chosen = rl.ETEE
							}
							lost += best - chosen
							points++
						}
					}
				}
			}
			b.ReportMetric(lost/points*100, "%ETEE-lost/point")
		})
	}
}

// BenchmarkAblationInterval sweeps the controller's minimum mode residency
// and reports switch counts and energy on the same bursty trace.
func BenchmarkAblationInterval(b *testing.B) {
	e := benchEnv(b)
	tr := workload.NewGenerator(5).Mixed("bursty", workload.MultiThread, 400, 0.3, 0.85, 0.3)
	cfg := sim.Config{Platform: e.Platform, TDP: 18}
	for _, res := range []struct {
		name string
		min  units.Second
	}{
		{"residency-0ms", 0},
		{"residency-10ms", 10e-3},
		{"residency-100ms", 100e-3},
	} {
		res := res
		b.Run(res.name, func(b *testing.B) {
			var rep sim.Report
			for i := 0; i < b.N; i++ {
				ctrl := core.NewController(e.Predictor, core.DefaultSwitchFlow())
				ctrl.MinResidency = res.min
				var err error
				rep, err = sim.RunFlexWatts(cfg, e.Flex, ctrl, tr)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.ModeSwitches), "switches")
			b.ReportMetric(rep.Energy, "J")
		})
	}
}

// BenchmarkAblationSharedRail quantifies the ETEE cost of the hybrid VR's
// resource sharing by sweeping the input load-line penalty.
func BenchmarkAblationSharedRail(b *testing.B) {
	for _, pen := range []struct {
		name string
		f    float64
	}{
		{"dedicated-1.0x", 1.0},
		{"shared-1.1x", 1.1},
		{"shared-1.5x", 1.5},
	} {
		pen := pen
		b.Run(pen.name, func(b *testing.B) {
			params := pdn.DefaultParams()
			params.FlexSharePenalty = pen.f
			m := core.NewModel(params)
			plat := domain.NewClientPlatform()
			s, err := workload.TDPScenario(plat, 50, workload.MultiThread, 0.6)
			if err != nil {
				b.Fatal(err)
			}
			var etee float64
			for i := 0; i < b.N; i++ {
				r, err := m.EvaluateMode(s, core.IVRMode)
				if err != nil {
					b.Fatal(err)
				}
				etee = r.ETEE
			}
			b.ReportMetric(etee*100, "%ETEE@50W")
		})
	}
}

// BenchmarkAblationOracle compares Algorithm 1 against oracle mode
// selection on a mixed trace (energy delta is the predictor's cost).
func BenchmarkAblationOracle(b *testing.B) {
	e := benchEnv(b)
	tr := workload.NewGenerator(9).Mixed("oracle", workload.MultiThread, 300, 0.3, 0.85, 0.25)
	cfg := sim.Config{Platform: e.Platform, TDP: 25}
	b.Run("algorithm1", func(b *testing.B) {
		var rep sim.Report
		for i := 0; i < b.N; i++ {
			ctrl := core.NewController(e.Predictor, core.DefaultSwitchFlow())
			var err error
			rep, err = sim.RunFlexWatts(cfg, e.Flex, ctrl, tr)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(rep.Energy, "J")
	})
	b.Run("oracle", func(b *testing.B) {
		var energy float64
		for i := 0; i < b.N; i++ {
			energy = 0
			for _, ph := range tr.Phases {
				var s pdn.Scenario
				var err error
				if ph.CState != domain.C0 {
					s = workload.CStateScenario(e.Platform, ph.CState)
				} else {
					s, err = workload.TDPScenario(e.Platform, cfg.TDP, ph.Type, ph.AR)
					if err != nil {
						b.Fatal(err)
					}
				}
				_, ri, rl, err := e.Flex.BestMode(s)
				if err != nil {
					b.Fatal(err)
				}
				pin := ri.PIn
				if rl.PIn < pin {
					pin = rl.PIn
				}
				energy += pin * ph.Duration
			}
		}
		b.ReportMetric(energy, "J")
	})
}

// BenchmarkPerfModel measures the §3.3 power-frequency inversion: oneshot
// is FreqRatioForBudget (build the cluster's curve, invert it once), and
// curve is Ratio on a prebuilt curve, the per-call cost the optimizer pays
// for each workload of each candidate.
func BenchmarkPerfModel(b *testing.B) {
	e := benchEnv(b)
	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ratioSink = perf.FreqRatioForBudget(e.Platform, 18, workload.MultiThread, 0.5)
		}
	})
	b.Run("curve", func(b *testing.B) {
		c := perf.NewCurve(e.Platform, 18, workload.MultiThread)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ratioSink = c.Ratio(0.5)
		}
	})
}

// ratioSink keeps BenchmarkPerfModel's calls from being optimized away.
var ratioSink float64

// BenchmarkCostModel measures the BOM/area sizing path.
func BenchmarkCostModel(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cost.Normalized(e.Platform, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoise regenerates the §6 mode-switch droop analysis.
func BenchmarkNoise(b *testing.B) { benchExperiment(b, "noise") }
