package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/pdn"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// span is one timed interval of a traced request. Spans of one request
// share Req; Parent is the ID of the enclosing span, -1 for the root.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type step struct {
	name string
	fn   func(*replay) error
}

// The handler's stages in its order, as the replay calls them; each runs
// on every traced request and records a span even when the request's
// endpoint has no such stage, so a stage's row reads near zero there.
var handlerSteps = []step{
	{"api.decode", (*replay).decode},
	{"api.point", (*replay).points},
	{"workload.scenario", (*replay).scenarios},
	{"sweep.grid", (*replay).grid},
	{"sweep.map", (*replay).mapPass},
	{"sweep.stream", (*replay).streamPass},
	{"optimize.run", (*replay).search},
	{"api.encode", (*replay).encode},
}

// Layers timed on the same request that are not on the handler's path:
// the alternatives a change to the request path would pick between.
var asideSteps = []step{
	{"pdn.kernel", (*replay).kernel},
	{"pdn.scalar", (*replay).scalar},
	{"core.predict", (*replay).predict},
	{"core.auto", (*replay).auto},
	{"core.gridmode", (*replay).gridMode},
	{"perf.freq_ratio", (*replay).freqRatio},
}

// specCalls is how many perf.FreqRatioForBudget calls one candidate's
// score makes: one per SPEC CPU2006 workload.
var specCalls = len(workload.SPECCPU2006().Workloads)

// tracer replays sampled requests outside the served path. The second
// environment answers through the real handler's ServeHTTP; the third
// runs the handler's stages one exported call at a time. Both receive the
// warm-up and every sampled request, so their caches hit and miss as the
// served one does.
type tracer struct {
	d      workloadDef
	t0     time.Time
	served *serveTimes // the serving instance's handler times
	handle http.Handler
	env    *experiments.Env
	engine *optimize.Engine
	arena  pdn.GridArena

	mu      sync.Mutex // one replay at a time: the cache counters are shared
	err     error      // the first replay failure; tracing stops there
	spans   []span
	nextID  int
	reqs    []traced
	hits    int64 // grid-pass cache hits in the replay
	probes  int64 // grid-pass cache probes in the replay
	memo    int   // baseline points whose AR-free columns repeat the previous point's
	basePts int   // baseline points replayed
	ldo     int   // FlexWatts points predicted LDO-Mode
	flexPts int   // FlexWatts points replayed
}

// traced is one sampled request's per-stage durations and sizes.
type traced struct {
	dur       map[string]time.Duration
	transport time.Duration // round trip minus the served ServeHTTP
	top       time.Duration // the handler-order stages, summed
	bytesIn   int
	bytesOut  int
	evaluated int // candidates scored, for a search
}

func newTracer(d workloadDef) *tracer { return &tracer{d: d, t0: time.Now()} }

// reset gives the replays fresh environments for a new round and warms
// them with the round's warm-up bodies; served is the round's instance's
// handler times.
func (t *tracer) reset(in inputs, served *serveTimes) error {
	t.served = served
	env2, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	env3, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	t.handle = server.New(env2, server.Options{}).Handler()
	t.env = env3
	t.engine = &optimize.Engine{Platform: env3.Platform, Base: env3.Params, Cache: env3.Cache, Workers: 1}
	for _, b := range in.warm {
		if err := t.warm(in.bodies[b]); err != nil {
			return err
		}
	}
	return nil
}

// serve answers body through the second environment's handler.
func (t *tracer) serve(body []byte) error {
	rec := httptest.NewRecorder()
	t.handle.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, t.d.path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replayed handler answered %d: %s", rec.Code, truncate(rec.Body.Bytes()))
	}
	return nil
}

// warm feeds a warm-up body to both replay environments, untimed.
func (t *tracer) warm(body []byte) error {
	if err := t.serve(body); err != nil {
		return err
	}
	_, err := t.replay(body, nil)
	return err
}

// trace records a served request as the root span and its served
// ServeHTTP as a child, then replays it through the second and third
// environments. It is called from both senders; the first failure is kept
// in t.err.
func (t *tracer) trace(body []byte, r reply) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err == nil {
		t.err = t.record(body, r)
	}
}

func (t *tracer) record(body []byte, r reply) error {
	sv, err := t.served.of(r.conn, r.id)
	if err != nil {
		return err
	}
	rec := &recorder{t: t, req: len(t.reqs)}
	start := r.at.Sub(t.t0)
	root := rec.add(-1, "request", start, start+r.total)
	rec.add(root, "server.serve", sv.start.Sub(t.t0), sv.start.Sub(t.t0)+sv.took)
	tr := traced{dur: map[string]time.Duration{}, transport: r.total - sv.took, bytesIn: len(body), bytesOut: len(r.data)}
	h := rec.begin(root, "server.handle")
	if err := t.serve(body); err != nil {
		return err
	}
	rec.end(h)
	rec.parent = root
	rp, err := t.replay(body, rec)
	if err != nil {
		return err
	}
	tr.evaluated = rp.evaluated
	for _, s := range rec.spans {
		d := time.Duration(s.End - s.Start)
		tr.dur[s.Name] += d
		if s.Parent == rp.parent {
			tr.top += d
		}
	}
	t.spans = append(t.spans, rec.spans...)
	t.reqs = append(t.reqs, tr)
	return nil
}

// replay runs body through the third environment, stage by stage. With a
// nil recorder nothing is timed.
func (t *tracer) replay(body []byte, rec *recorder) (*replay, error) {
	rp := &replay{t: t, env: t.env, body: body, rec: rec, workers: runtime.GOMAXPROCS(0)}
	run := func(name string, steps []step) (int, error) {
		p := rec.begin(rec.parentID(), name)
		for _, st := range steps {
			rp.cur = rec.begin(p, st.name)
			if err := st.fn(rp); err != nil {
				return p, fmt.Errorf("replay %s: %w", st.name, err)
			}
			rec.end(rp.cur)
		}
		rec.end(p)
		return p, nil
	}
	var err error
	if rp.parent, err = run("replay", handlerSteps); err != nil {
		return nil, err
	}
	rp.prepareAside()
	if _, err := run("aside", asideSteps); err != nil {
		return nil, err
	}
	if rec != nil {
		t.hits += int64(rp.hits)
		t.probes += int64(rp.probes)
		t.memo += rp.memo
		t.basePts += rp.basePts
		t.ldo += rp.ldo
		t.flexPts += rp.flexPts
	}
	return rp, nil
}

// recorder collects one request's spans; a nil recorder records nothing.
type recorder struct {
	t      *tracer
	req    int
	parent int
	spans  []span
}

func (r *recorder) parentID() int {
	if r == nil {
		return -1
	}
	return r.parent
}

func (r *recorder) add(parent int, name string, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	id := r.t.nextID
	r.t.nextID++
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	return id
}

func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t.t0)
	return r.add(parent, name, now, now)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].ID == id {
			r.spans[i].End = int64(time.Since(r.t.t0))
			return
		}
	}
}

// replay is one request's state as its stages run.
type replay struct {
	t       *tracer
	env     *experiments.Env
	body    []byte
	rec     *recorder
	parent  int // the "replay" span, parent of the handler-order stages
	cur     int // the span of the stage running now
	workers int

	eval     *api.EvalRequest
	opt      *optimize.Spec
	pts      []flexwatts.Point
	kinds    []pdn.Kind
	jobs     []job
	results  []api.EvalResult
	searched optimize.Result
	out      bytes.Buffer

	hits, probes, memo, basePts, ldo, flexPts int
	evaluated                                 int
	modes                                     []core.Mode
	// asideKinds and asideGrids are the per-kind grids of the layers timed
	// aside, built outside any span.
	asideKinds []pdn.Kind
	asideGrids []*pdn.Grid
}

// job is one validated point, as the handler builds it.
type job struct {
	kind pdn.Kind
	sc   pdn.Scenario
	tdp  float64
}

func (rp *replay) decode() error {
	dec := json.NewDecoder(bytes.NewReader(rp.body))
	dec.DisallowUnknownFields()
	if rp.t.d.points == 0 {
		var req api.OptimizeRequest
		if err := dec.Decode(&req); err != nil {
			return err
		}
		// The handler's buildOptimizeSpec, field for field.
		st, err := optimize.ParseStrategy(req.Strategy)
		if err != nil {
			return err
		}
		rp.opt = &optimize.Spec{
			TDP: req.TDP, LoadlineScales: req.LoadlineScales, GuardbandScales: req.GuardbandScales,
			VRScales: req.VRScales, Strategy: st, Seed: req.Seed, Budget: req.Budget, Chains: req.Chains,
			MaxCost: req.MaxCost, MaxArea: req.MaxArea, MaxBatteryPower: req.MaxBatteryPower,
			MinPerformance: req.MinPerformance,
		}
		for _, name := range req.PDNs {
			k, err := pdn.ParseKind(name)
			if err != nil {
				return err
			}
			rp.opt.Kinds = append(rp.opt.Kinds, k)
		}
		for _, name := range req.Objectives {
			o, err := optimize.ParseObjective(name)
			if err != nil {
				return err
			}
			rp.opt.Objectives = append(rp.opt.Objectives, o)
		}
		return rp.opt.Validate()
	}
	rp.eval = &api.EvalRequest{}
	return dec.Decode(rp.eval)
}

func (rp *replay) points() error {
	if rp.eval == nil {
		return nil
	}
	rp.pts = make([]flexwatts.Point, len(rp.eval.Points))
	rp.kinds = make([]pdn.Kind, len(rp.eval.Points))
	for i, p := range rp.eval.Points {
		pt, err := p.Point()
		if err != nil {
			return err
		}
		if err := pt.Validate(); err != nil {
			return err
		}
		if rp.kinds[i], err = pdn.ParseKind(pt.PDN.String()); err != nil {
			return err
		}
		rp.pts[i] = pt
	}
	return nil
}

func (rp *replay) scenarios() error {
	rp.jobs = make([]job, len(rp.pts))
	for i, pt := range rp.pts {
		tdp := float64(pt.TDP)
		j := job{kind: rp.kinds[i], tdp: tdp}
		if pt.CState != flexwatts.C0 {
			cs, err := domain.ParseCState(pt.CState.String())
			if err != nil {
				return err
			}
			if tdp == 0 {
				j.tdp = 4
			}
			j.sc = workload.CStateScenario(rp.env.Platform, cs)
		} else {
			wt, err := workload.ParseType(pt.Workload.String())
			if err != nil {
				return err
			}
			if j.sc, err = workload.TDPScenario(rp.env.Platform, tdp, wt, pt.AR); err != nil {
				return err
			}
		}
		rp.jobs[i] = j
	}
	return nil
}

// kindGrids groups the baseline jobs per kind, in first-seen order, the
// way the handler's warm pass does.
func (rp *replay) kindGrids(newGrid func() *pdn.Grid) ([]pdn.Kind, []*pdn.Grid) {
	var kinds []pdn.Kind
	var grids []*pdn.Grid
	for _, j := range rp.jobs {
		if j.kind == pdn.FlexWatts {
			continue
		}
		t := 0
		for t < len(kinds) && kinds[t] != j.kind {
			t++
		}
		if t == len(kinds) {
			kinds = append(kinds, j.kind)
			grids = append(grids, newGrid())
		}
		grids[t].Append(j.sc)
	}
	return kinds, grids
}

func (rp *replay) grid() error {
	var leases []*pdn.GridLease
	kinds, grids := rp.kindGrids(func() *pdn.Grid {
		l := rp.t.arena.Get()
		leases = append(leases, l)
		return l.Grid()
	})
	defer rp.countProbes()()
	for i, g := range grids {
		if err := sweep.GridMapCtx(context.Background(), rp.workers, rp.env.Cache, rp.env.Baselines[kinds[i]], g, leases[i].Results(g.Len()), 0); err != nil {
			return err
		}
		leases[i].Release()
	}
	return nil
}

// countProbes counts the cache hits and probes from its call until the
// returned function runs: the grid pass's and the search's, but not the
// per-point pass's, which only rereads what the grid pass stored.
func (rp *replay) countProbes() func() {
	h0, m0 := rp.env.Cache.Stats()
	return func() {
		h1, m1 := rp.env.Cache.Stats()
		rp.hits += int(h1 - h0)
		rp.probes += int(h1 - h0 + m1 - m0)
	}
}

// evalOne is the handler's per-point evaluation.
func (rp *replay) evalOne(j job) (pdn.Result, error) {
	if j.kind == pdn.FlexWatts {
		return core.NewAutoModel(rp.env.Flex, rp.env.Predictor, j.tdp).Evaluate(j.sc)
	}
	return rp.env.Eval(j.kind, j.sc)
}

func wire(j job, res pdn.Result) api.EvalResult {
	return api.EvalResult{
		PDN:    j.kind.String(),
		CState: j.sc.CState.String(),
		ETEE:   res.ETEE,
		PNom:   res.PNomTotal,
		PIn:    res.PIn,
		Loss:   res.PIn - res.PNomTotal,
	}
}

func (rp *replay) batchWorkers() int {
	if rp.workers > len(rp.jobs) {
		return len(rp.jobs)
	}
	return rp.workers
}

func (rp *replay) mapPass() error {
	if rp.eval == nil || rp.t.d.stream() {
		return nil
	}
	var err error
	rp.results, err = sweep.MapCtx(context.Background(), rp.batchWorkers(), len(rp.jobs), func(i int) (api.EvalResult, error) {
		res, err := rp.evalOne(rp.jobs[i])
		return wire(rp.jobs[i], res), err
	})
	return err
}

// streamPass runs the stream handler's sweep with NDJSON emit into memory;
// the summed line encodes become an api.encode span inside it.
func (rp *replay) streamPass() error {
	if rp.eval == nil || !rp.t.d.stream() {
		return nil
	}
	rp.out.Reset()
	bw := bufio.NewWriterSize(&rp.out, 32<<10)
	enc := json.NewEncoder(bw)
	var encoding time.Duration
	lines := 0
	err := sweep.StreamCtx(context.Background(), rp.batchWorkers(), 0, len(rp.jobs),
		func(i int) (pdn.Result, error) { return rp.evalOne(rp.jobs[i]) },
		func(i int, res pdn.Result, err error) error {
			if err != nil {
				return err
			}
			t := time.Now()
			w := wire(rp.jobs[i], res)
			if err := enc.Encode(&api.EvalStreamResult{Index: i, Result: &w}); err != nil {
				return err
			}
			if lines++; lines%64 == 0 {
				if err := bw.Flush(); err != nil {
					return err
				}
			}
			encoding += time.Since(t)
			return nil
		})
	if err != nil {
		return err
	}
	if rp.rec != nil {
		now := time.Since(rp.t.t0)
		rp.rec.add(rp.cur, "api.encode", now-encoding, now)
	}
	return bw.Flush()
}

func (rp *replay) search() error {
	if rp.opt == nil {
		return nil
	}
	defer rp.countProbes()()
	var err error
	rp.searched, err = rp.t.engine.Run(context.Background(), *rp.opt, nil)
	rp.evaluated = rp.searched.Evaluated
	return err
}

func (rp *replay) encode() error {
	if rp.t.d.stream() {
		return nil
	}
	rp.out.Reset()
	enc := json.NewEncoder(&rp.out)
	enc.SetIndent("", "  ")
	if rp.opt != nil {
		return enc.Encode(wireSearch(rp.searched, rp.workers))
	}
	return enc.Encode(api.EvalResponse{Results: rp.results, Workers: rp.batchWorkers()})
}

func wireSearch(res optimize.Result, workers int) api.OptimizeResponse {
	out := api.OptimizeResponse{
		Frontier:  make([]api.ParetoPoint, len(res.Frontier)),
		Evaluated: res.Evaluated,
		SpaceSize: res.SpaceSize,
		Strategy:  res.Strategy.String(),
		Workers:   workers,
	}
	for i, p := range res.Frontier {
		out.Frontier[i] = api.ParetoPoint{
			Key: p.Key,
			Config: api.OptimizeConfig{
				PDN:            p.Config.Kind.String(),
				LoadlineScale:  p.Config.LoadlineScale,
				GuardbandScale: p.Config.GuardbandScale,
				VRScale:        p.Config.VRScale,
			},
			Scores: api.OptimizeScores{
				Cost:         p.Scores.Cost,
				Area:         p.Scores.Area,
				BatteryPower: p.Scores.BatteryPower,
				Performance:  p.Scores.Performance,
			},
		}
	}
	return out
}

// prepareAside builds the per-kind grids again, outside any span, for the
// layers timed aside, and counts the points the kernels' change-mask memo
// can skip.
func (rp *replay) prepareAside() {
	rp.asideKinds, rp.asideGrids = rp.kindGrids(func() *pdn.Grid { return pdn.NewGrid(len(rp.jobs)) })
	for _, g := range rp.asideGrids {
		rp.memo += memoPoints(g, make([]uint16, g.Len()))
		rp.basePts += g.Len()
	}
}

// kernel evaluates each kind's grid with no cache: the recompute the cache
// saves.
func (rp *replay) kernel() error {
	for i, g := range rp.asideGrids {
		ge, ok := rp.env.Baselines[rp.asideKinds[i]].(sweep.GridEvaluator)
		if !ok {
			return fmt.Errorf("%v has no grid kernel", rp.asideKinds[i])
		}
		if err := ge.EvaluateGrid(g, make([]pdn.Result, g.Len())); err != nil {
			return err
		}
	}
	return nil
}

// arFree has one bit per domain: "this domain's AR-free load columns equal
// the previous point's" in pdn.Grid.ChangeMasks.
const arFree = uint16(1)<<domain.NumKinds - 1

// memoPoints counts the points of g whose AR-free columns all repeat the
// previous point's, so the kernels' stage memos replay instead of
// recomputing; masks has room for g.Len() entries.
func memoPoints(g *pdn.Grid, masks []uint16) int {
	g.ChangeMasks(0, masks)
	n := 0
	for _, m := range masks {
		if m&arFree == arFree {
			n++
		}
	}
	return n
}

// scalar evaluates the same points one pdn.Model.Evaluate call at a time:
// the duplicate physics the kernels mirror.
func (rp *replay) scalar() error {
	for i, g := range rp.asideGrids {
		m := rp.env.Baselines[rp.asideKinds[i]]
		for p := 0; p < g.Len(); p++ {
			if _, err := m.Evaluate(g.At(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rp *replay) predict() error {
	rp.modes = rp.modes[:0]
	for _, j := range rp.jobs {
		if j.kind != pdn.FlexWatts {
			continue
		}
		mode := rp.env.Predictor.Predict(core.InputsFromScenario(j.sc, j.tdp))
		rp.modes = append(rp.modes, mode)
		if mode == core.LDOMode {
			rp.ldo++
		}
	}
	rp.flexPts = len(rp.modes)
	return nil
}

func (rp *replay) auto() error {
	for _, j := range rp.jobs {
		if j.kind != pdn.FlexWatts {
			continue
		}
		if _, err := core.NewAutoModel(rp.env.Flex, rp.env.Predictor, j.tdp).Evaluate(j.sc); err != nil {
			return err
		}
	}
	return nil
}

// gridMode evaluates the FlexWatts points through the hybrid's grid
// kernel, grouped by their predicted mode: the headroom of moving them
// off the per-point path.
func (rp *replay) gridMode() error {
	byMode := map[core.Mode]*pdn.Grid{}
	i := 0
	for _, j := range rp.jobs {
		if j.kind != pdn.FlexWatts {
			continue
		}
		g := byMode[rp.modes[i]]
		if g == nil {
			g = pdn.NewGrid(len(rp.modes))
			byMode[rp.modes[i]] = g
		}
		g.Append(j.sc)
		i++
	}
	for _, mode := range []core.Mode{core.IVRMode, core.LDOMode} {
		if g := byMode[mode]; g != nil {
			if err := rp.env.Flex.EvaluateGridMode(g, make([]pdn.Result, g.Len()), mode); err != nil {
				return err
			}
		}
	}
	return nil
}

// freqRatio makes one candidate's worth of perf.FreqRatioForBudget calls
// at the search's TDP.
func (rp *replay) freqRatio() error {
	if rp.opt == nil {
		return nil
	}
	for i, w := range workload.SPECCPU2006().Workloads {
		perf.FreqRatioForBudget(rp.env.Platform, rp.opt.TDP, w.Type, 0.05*float64(i%5-2))
	}
	return nil
}

// med is the median over the traced requests of f.
func (t *tracer) med(f func(traced) float64) float64 {
	vs := make([]float64, len(t.reqs))
	for i, r := range t.reqs {
		vs[i] = f(r)
	}
	return median(vs)
}

// ms is the median over the traced requests of span name's duration.
func (t *tracer) ms(name string) float64 {
	return t.med(func(r traced) float64 { return msOf(r.dur[name]) })
}

// layerMetrics reduces the traced requests to the per-layer metrics: each
// stage's median over requests.
func (t *tracer) layerMetrics() map[string]float64 {
	med, ms := t.med, t.ms
	m := map[string]float64{
		"server.handle_ms":  ms("server.handle"),
		"http.transport_ms": med(func(r traced) float64 { return msOf(r.transport) }),
		"trace.unaccounted_share": med(func(r traced) float64 {
			return 1 - float64(r.top)/float64(r.dur["server.handle"])
		}),
		"api.bytes_in":  med(func(r traced) float64 { return float64(r.bytesIn) }),
		"api.bytes_out": med(func(r traced) float64 { return float64(r.bytesOut) }),
		"perf.freq_ratio_us": med(func(r traced) float64 {
			return float64(r.dur["perf.freq_ratio"]) / 1e3 / float64(specCalls)
		}),
		"optimize.perf_share": med(func(r traced) float64 {
			// perf.freq_ratio spans one candidate's specCalls calls.
			run := float64(r.dur["optimize.run"])
			if r.evaluated == 0 || run == 0 {
				return 0
			}
			return float64(r.evaluated) * float64(r.dur["perf.freq_ratio"]) / run
		}),
		"sweep.hit_ratio": ratio(float64(t.hits), float64(t.probes)),
		"pdn.memo_share":  ratio(float64(t.memo), float64(t.basePts)),
		"core.ldo_share":  ratio(float64(t.ldo), float64(t.flexPts)),
	}
	for _, st := range handlerSteps {
		m[st.name+"_ms"] = ms(st.name)
	}
	for _, st := range asideSteps {
		if st.name != "perf.freq_ratio" {
			m[st.name+"_ms"] = ms(st.name)
		}
	}
	return m
}

// ratio is a / b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// waterfall prints the served request split into transport and ServeHTTP,
// then the replay's handler-order stages against server.handle, then the
// layers timed aside.
func (t *tracer) waterfall(w io.Writer, m map[string]float64) {
	handle := m["server.handle_ms"]
	fmt.Fprintf(w, "waterfall %s: medians over %d traced requests, ms\n", t.d.name, len(t.reqs))
	row := func(indent, name string, v float64, share bool) {
		if share && handle > 0 {
			fmt.Fprintf(w, "  %-*s%-22s %10.4f %6.1f%%\n", len(indent), indent, name, v, 100*v/handle)
			return
		}
		fmt.Fprintf(w, "  %-*s%-22s %10.4f\n", len(indent), indent, name, v)
	}
	row("", "request", t.ms("request"), false)
	row("  ", "http.transport", m["http.transport_ms"], false)
	row("  ", "server.serve", t.ms("server.serve"), false)
	row("", "server.handle (replay)", handle, true)
	sum := 0.0
	for _, st := range handlerSteps {
		v := m[st.name+"_ms"]
		if st.name == "api.encode" && t.d.stream() {
			row("    ", "api.encode (in stream)", v, true)
			continue
		}
		sum += v
		row("  ", st.name, v, true)
	}
	row("  ", "rows (sum of medians)", sum, true)
	fmt.Fprintf(w, "  %-28s %10.4f (median over requests of 1 - rows/handle)\n", "trace.unaccounted_share", m["trace.unaccounted_share"])
	fmt.Fprintln(w, "  timed aside, not on the handler path:")
	for _, st := range asideSteps {
		if st.name == "perf.freq_ratio" {
			fmt.Fprintf(w, "    %-22s %10.4f us/call\n", st.name, m["perf.freq_ratio_us"])
			continue
		}
		row("  ", st.name, m[st.name+"_ms"], false)
	}
}

// writeSpans writes every span as one JSON line under the build directory.
func (t *tracer) writeSpans(seed int64) (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.jsonl", t.d.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
