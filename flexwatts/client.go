package flexwatts

import (
	"context"
	"fmt"

	"repro/internal/activity"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/optimize"
	"repro/internal/pdn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Platform is an opaque handle to a modeled client SoC. The zero value
// means "the paper's Table 1 client platform"; construct alternatives with
// DefaultPlatform (today the only calibration) and pass them to
// WithPlatform.
type Platform struct {
	p *domain.Platform
}

// DefaultPlatform returns the paper's Table 1 client SoC model.
func DefaultPlatform() Platform { return Platform{p: domain.NewClientPlatform()} }

// config collects the functional options of NewClient.
type config struct {
	params   pdn.Params
	platform *domain.Platform
	workers  int
}

// Option customizes a Client.
type Option func(*config)

// WithParams evaluates with a custom PDNspot parameter set (load-lines,
// tolerance bands, sharing penalties, PSU voltage) instead of the Table 2
// calibration, enabling the multi-dimensional architecture-space
// exploration the paper describes. Every point evaluates, and every
// Optimize candidate scores, at Params.PSU;
// Algorithm 1's firmware tables stay characterized at the 7.2 V battery
// voltage of Fig 3, so FlexWatts picks its mode as it would at 7.2 V.
func WithParams(p Params) Option {
	return func(c *config) { c.params = internalParams(p) }
}

// WithWorkers bounds the worker pool EvaluateBatch's kernels run on:
// 1 is fully serial, 0 (the default) sizes the pool by GOMAXPROCS.
// Results are identical either way — the sweep engine collects by index.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithCache is a no-op kept for compatibility: a Client has no evaluation
// cache. Every verb recomputes through the models, whose results are the
// same bits a cache would have served.
func WithCache(enabled bool) Option {
	return func(*config) {}
}

// WithPlatform evaluates against a specific platform model instead of the
// default client SoC.
func WithPlatform(p Platform) Option {
	return func(c *config) {
		if p.p != nil {
			c.platform = p.p
		}
	}
}

// Client is the front door of the evaluation API: the platform model, the
// four baseline PDNs, and FlexWatts with its characterized Algorithm 1
// predictor. It is safe for concurrent use once constructed.
type Client struct {
	platform  *domain.Platform
	params    pdn.Params
	baselines map[pdn.Kind]pdn.Model
	flex      *core.Model
	pred      *core.Predictor
	// batch evaluates EvaluateBatch's points in one kernel pass, recycling
	// its grids and result blocks across calls.
	batch batch.Evaluator
	// opt is the design-space search engine behind Optimize; it shares the
	// client's platform, parameters and worker bound, and owns its own
	// grid arena so search candidates recycle blocks across runs.
	opt optimize.Engine
}

// NewClient constructs a Client with the paper's calibration,
// characterizes the predictor's firmware ETEE tables, and applies the
// given options.
func NewClient(opts ...Option) (*Client, error) {
	cfg := config{params: pdn.DefaultParams()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.platform == nil {
		cfg.platform = domain.NewClientPlatform()
	}
	baselines := make(map[pdn.Kind]pdn.Model, 4)
	for _, k := range pdn.Kinds() {
		m, err := pdn.New(k, cfg.params)
		if err != nil {
			return nil, err
		}
		baselines[k] = m
	}
	flex := core.NewModel(cfg.params)
	pred, err := core.NewPredictor(cfg.platform, flex, core.DefaultPredictorConfig())
	if err != nil {
		return nil, err
	}
	c := &Client{
		platform:  cfg.platform,
		params:    cfg.params,
		baselines: baselines,
		flex:      flex,
		pred:      pred,
		batch: batch.Evaluator{
			Baselines: baselines,
			Flex:      flex,
			Predictor: pred,
			Workers:   cfg.workers,
		},
	}
	c.opt = optimize.Engine{
		Platform: cfg.platform,
		Base:     cfg.params,
		Workers:  cfg.workers,
	}
	return c, nil
}

// Params returns the model parameters in use.
func (c *Client) Params() Params { return paramsFromInternal(c.params) }

// scenario builds the internal evaluation scenario for a point, assuming
// the point validated, at the client's PSU voltage (Params.PSU).
func (c *Client) scenario(pt Point) (pdn.Scenario, error) {
	var s pdn.Scenario
	if pt.CState != C0 {
		s = workload.CStateScenario(c.platform, internalCState(pt.CState))
	} else {
		var err error
		s, err = workload.TDPScenario(c.platform, float64(pt.TDP), internalWorkloadType(pt.Workload), pt.AR)
		if err != nil {
			return pdn.Scenario{}, fmt.Errorf("%w: %v", ErrInvalidPoint, err)
		}
	}
	s.PSU = c.params.PSU
	return s, nil
}

// point validates pt and resolves it, on the PDN selected by kind, into
// the internal evaluation point.
func (c *Client) point(kind Kind, pt Point) (batch.Point, error) {
	if err := pt.Validate(); err != nil {
		return batch.Point{}, err
	}
	ik, err := internalKind(kind)
	if err != nil {
		return batch.Point{}, err
	}
	s, err := c.scenario(pt)
	if err != nil {
		return batch.Point{}, err
	}
	tdp := float64(pt.TDP)
	if pt.CState != C0 && tdp == 0 {
		tdp = 4 // battery-life evaluation is TDP-independent (§7.1)
	}
	return batch.Point{Kind: ik, Scenario: s, TDP: tdp}, nil
}

// result renders an evaluation of pt on PDN kind as a public Result; mode
// is the predicted hybrid mode of a FlexWatts point.
func result(pt Point, kind pdn.Kind, r pdn.Result, mode core.Mode) Result {
	m := ModeNone
	if kind == pdn.FlexWatts {
		m = modeFromInternal(mode)
	}
	res := resultFromInternal(r, m)
	res.CState = pt.CState
	return res
}

// evaluate runs one point on the PDN selected by kind, through the scalar
// models.
func (c *Client) evaluate(kind Kind, pt Point) (Result, error) {
	p, err := c.point(kind, pt)
	if err != nil {
		return Result{}, err
	}
	var (
		r    pdn.Result
		mode core.Mode
	)
	if p.Kind == pdn.FlexWatts {
		// Estimate Algorithm 1's inputs from the scenario the way the PMU
		// does at runtime — the same prediction the batch path makes, so
		// scalar and batch evaluations report identical numbers.
		mode = c.pred.Predict(core.InputsFromScenario(p.Scenario, p.TDP))
		r, err = c.flex.EvaluateMode(p.Scenario, mode)
	} else {
		r, err = c.baselines[p.Kind].Evaluate(p.Scenario)
	}
	if err != nil {
		return Result{}, err
	}
	return result(pt, p.Kind, r, mode), nil
}

// Evaluate evaluates the point on the PDN it names (pt.PDN; the zero value
// is FlexWatts, whose mode Algorithm 1 predicts from the point itself).
// The context is honored between points of a batch and checked once here.
func (c *Client) Evaluate(ctx context.Context, pt Point) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, context.Cause(ctx)
	}
	return c.evaluate(pt.PDN, pt)
}

// EvaluateKind evaluates the point on a specific PDN architecture,
// overriding pt.PDN — the mode-comparison and baseline-sweep workhorse.
func (c *Client) EvaluateKind(ctx context.Context, k Kind, pt Point) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, context.Cause(ctx)
	}
	return c.evaluate(k, pt)
}

// EvaluateMode forces a specific hybrid mode on the FlexWatts PDN (for
// mode-comparison studies), bypassing Algorithm 1.
func (c *Client) EvaluateMode(ctx context.Context, pt Point, mode Mode) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, context.Cause(ctx)
	}
	if err := pt.Validate(); err != nil {
		return Result{}, err
	}
	im, err := internalMode(mode)
	if err != nil {
		return Result{}, err
	}
	s, err := c.scenario(pt)
	if err != nil {
		return Result{}, err
	}
	r, err := c.flex.EvaluateMode(s, im)
	if err != nil {
		return Result{}, err
	}
	res := resultFromInternal(r, mode)
	res.CState = pt.CState
	return res, nil
}

// EvaluateBatch evaluates every point and returns the results in input
// order. The points run through the batch kernels in one pass: grouped
// per PDN (FlexWatts points per the hybrid mode Algorithm 1 predicts for
// them), one grid kernel call per group on the worker bound of
// WithWorkers. The kernels are bitwise identical to the scalar models, so
// the results are exactly those of per-point Evaluate calls.
//
// Cancelling ctx aborts the batch with context.Cause(ctx). Per-point
// failures report the lowest failing index, the same error a serial loop
// would stop on.
func (c *Client) EvaluateBatch(ctx context.Context, pts []Point) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if len(pts) == 0 {
		return nil, nil
	}
	// Resolve points up to the first invalid one: a later point cannot
	// fail at a lower index, but an earlier one still can.
	bpts := make([]batch.Point, 0, len(pts))
	var invalid error
	for _, pt := range pts {
		p, err := c.point(pt.PDN, pt)
		if err != nil {
			invalid = err
			break
		}
		bpts = append(bpts, p)
	}
	res, err := c.batch.Evaluate(ctx, bpts)
	if err != nil {
		return nil, err
	}
	defer res.Release()
	if i, err := res.FirstErr(); err != nil {
		return nil, fmt.Errorf("point %d: %w", i, err)
	}
	if invalid != nil {
		return nil, fmt.Errorf("point %d: %w", len(bpts), invalid)
	}
	out := make([]Result, len(pts))
	for i, pt := range pts {
		r, _ := res.At(i)
		out[i] = result(pt, bpts[i].Kind, r, res.Mode(i))
	}
	return out, nil
}

// Phase is one interval of a workload trace: the platform stays at one
// operating condition for Duration seconds. An active (C0) phase needs a
// workload class; idle phases (CState C2 and deeper) ignore Workload and
// AR and may leave them unset.
type Phase struct {
	Duration float64      `json:"duration_s"`
	Workload WorkloadType `json:"workload,omitempty"`
	CState   CState       `json:"cstate,omitempty"`
	AR       float64      `json:"ar,omitempty"`
}

// Trace is a named sequence of phases, standing in for the paper's ~5000
// measured benchmark traces (§4.1).
type Trace struct {
	Name   string  `json:"name"`
	Phases []Phase `json:"phases"`
}

// Duration returns the total trace length in seconds.
func (t Trace) Duration() float64 {
	var d float64
	for _, p := range t.Phases {
		d += p.Duration
	}
	return d
}

// TraceReport summarizes a trace simulation.
type TraceReport struct {
	Trace string `json:"trace"`
	PDN   Kind   `json:"pdn"`
	// Duration is total wall time in seconds, including switch overhead.
	Duration float64 `json:"duration_s"`
	// Energy is total energy drawn from the battery (joules).
	Energy float64 `json:"energy_j"`
	// AvgPower = Energy / Duration.
	AvgPower Watt `json:"avg_power"`
	// AvgETEE is the energy-weighted end-to-end efficiency.
	AvgETEE float64 `json:"avg_etee"`
	// ModeSwitches counts FlexWatts transitions (0 for static PDNs).
	ModeSwitches int `json:"mode_switches"`
	// SwitchOverhead is the cumulative seconds parked in C6 for switching.
	SwitchOverhead float64 `json:"switch_overhead_s"`
	// ModeTime is the residency per hybrid mode (FlexWatts only).
	ModeTime map[Mode]float64 `json:"mode_time,omitempty"`
}

// Sensor is the noisy PMU activity sensor of §6 ("Runtime Estimation"):
// it perturbs the predictor's AR inputs the way real counters would. A nil
// *Sensor means oracle AR.
type Sensor struct {
	s *activity.Sensor
}

// NewSensor returns an activity sensor with the paper's counter weights
// and the given noise seed.
func NewSensor(seed int64) *Sensor {
	return &Sensor{s: activity.NewSensor(activity.DefaultWeights(), seed)}
}

// SimulateTrace runs a workload phase trace on the PDN named by k,
// integrating energy over time. For FlexWatts it drives the mode
// controller in the loop, accounting for every 94 µs mode switch; pass a
// nil sensor for oracle AR estimation or NewSensor for realistic noisy
// inputs (static PDNs ignore the sensor).
func (c *Client) SimulateTrace(k Kind, tdp Watt, tr Trace, sensor *Sensor) (TraceReport, error) {
	ik, err := internalKind(k)
	if err != nil {
		return TraceReport{}, err
	}
	cfg := sim.Config{Platform: c.platform, TDP: float64(tdp)}
	if sensor != nil {
		cfg.Sensor = sensor.s
	}
	itr, err := internalTrace(tr)
	if err != nil {
		return TraceReport{}, err
	}
	var rep sim.Report
	if ik == pdn.FlexWatts {
		ctrl := core.NewController(c.pred, core.DefaultSwitchFlow())
		rep, err = sim.RunFlexWatts(cfg, c.flex, ctrl, itr)
	} else {
		rep, err = sim.RunStatic(cfg, c.baselines[ik], itr)
	}
	if err != nil {
		return TraceReport{}, err
	}
	out := TraceReport{
		Trace:          rep.Trace,
		PDN:            kindFromInternal(rep.PDN),
		Duration:       rep.Duration,
		Energy:         rep.Energy,
		AvgPower:       Watt(rep.AvgPower),
		AvgETEE:        rep.AvgETEE,
		ModeSwitches:   rep.ModeSwitches,
		SwitchOverhead: rep.SwitchOverhead,
	}
	if rep.ModeTime != nil {
		out.ModeTime = make(map[Mode]float64, len(rep.ModeTime))
		for m, t := range rep.ModeTime {
			out.ModeTime[modeFromInternal(m)] = t
		}
	}
	return out, nil
}
