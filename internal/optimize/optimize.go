// Package optimize is the design-space search engine over PDN
// configurations: given a TDP and a candidate space — PDN kind × load-line
// scale × guardband scale × VR-sizing scale — it scores every candidate on
// the paper's four product axes (normalized BOM cost, normalized board
// area, battery-life average power, relative performance) and maintains
// the Pareto frontier over the objectives the caller selected, subject to
// optional constraint ceilings.
//
// Two strategies cover the two regimes of space size: exhaustive
// enumeration for small spaces (every candidate scored, the frontier is
// exact) and seeded simulated annealing for large ones (a fixed set of
// Metropolis chains walks the lattice under a geometric cooling schedule,
// spending an evaluation budget; the frontier is the best of everything
// the chains visited).
//
// Determinism is a contract, not an accident: a search is a pure function
// of (engine parameters, spec). There is no wall-clock input, no global
// RNG (each chain owns a rand.Rand seeded from Spec.Seed), map iteration
// never feeds an accumulation, and candidates are scored independently so
// the worker count cannot change a single float64 bit. Same seed, same
// spec ⇒ byte-identical results — which is what makes served responses
// cacheable and goldens possible.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/pdn"
)

// ErrInvalidSpec wraps every rejection of a malformed search spec; check
// with errors.Is.
var ErrInvalidSpec = errors.New("optimize: invalid spec")

// Objective is one search axis of the Pareto frontier. Cost, Area and
// BatteryPower are minimized; Performance is maximized.
type Objective int

// The four product objectives (Fig 8's columns).
const (
	// Cost is BOM cost normalized to the base-parameter IVR PDN (Fig 8d).
	Cost Objective = iota
	// Area is board area normalized to the base-parameter IVR PDN (Fig 8e).
	Area
	// BatteryPower is the mean battery drain (watts) over the §7.1
	// battery-life workloads; lower is longer battery life.
	BatteryPower
	// Performance is the SPEC CPU2006 suite-mean relative performance
	// against the base-parameter IVR PDN (Fig 7's normalization).
	Performance
)

// Objectives lists every objective in canonical order.
func Objectives() []Objective {
	return []Objective{Cost, Area, BatteryPower, Performance}
}

// String returns the wire spelling of the objective.
func (o Objective) String() string {
	switch o {
	case Cost:
		return "cost"
	case Area:
		return "area"
	case BatteryPower:
		return "battery"
	case Performance:
		return "performance"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective resolves a wire spelling ("cost", "area", "battery",
// "performance"), case-insensitively.
func ParseObjective(s string) (Objective, error) {
	for _, o := range Objectives() {
		if strings.EqualFold(strings.TrimSpace(s), o.String()) {
			return o, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown objective %q (have cost, area, battery, performance)", ErrInvalidSpec, s)
}

// Maximize reports the objective's direction: true for Performance, false
// for the cost-like objectives.
func (o Objective) Maximize() bool { return o == Performance }

// Strategy selects how the space is searched.
type Strategy int

// The search strategies.
const (
	// Auto picks Exhaustive for spaces up to AutoExhaustiveLimit
	// candidates and Anneal above.
	Auto Strategy = iota
	// Exhaustive enumerates and scores every candidate.
	Exhaustive
	// Anneal runs seeded simulated-annealing chains under an evaluation
	// budget.
	Anneal
)

// Strategies lists the selectable strategies.
func Strategies() []Strategy { return []Strategy{Auto, Exhaustive, Anneal} }

// String returns the wire spelling of the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Exhaustive:
		return "exhaustive"
	case Anneal:
		return "anneal"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a wire spelling ("auto", "exhaustive", "anneal"),
// case-insensitively; the empty string parses to Auto.
func ParseStrategy(s string) (Strategy, error) {
	if strings.TrimSpace(s) == "" {
		return Auto, nil
	}
	for _, st := range Strategies() {
		if strings.EqualFold(strings.TrimSpace(s), st.String()) {
			return st, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown strategy %q (have auto, exhaustive, anneal)", ErrInvalidSpec, s)
}

// Search sizing limits and defaults.
const (
	// AutoExhaustiveLimit is the largest space Auto still enumerates
	// exhaustively; larger spaces anneal.
	AutoExhaustiveLimit = 2048
	// MaxSpace caps the enumerable candidate space; a spec whose axes
	// multiply beyond it is invalid rather than silently truncated.
	MaxSpace = 1 << 20
	// MaxExhaustive caps a forced-Exhaustive search.
	MaxExhaustive = 1 << 16
	// DefaultBudget is the annealing evaluation budget when Spec.Budget
	// is unset.
	DefaultBudget = 1024
	// DefaultChains is the annealing chain count when Spec.Chains is
	// unset. It is a fixed constant, never derived from GOMAXPROCS: the
	// chain count shapes the search trajectory, so machine parallelism
	// must not leak into results.
	DefaultChains = 8
	// MaxChains bounds Spec.Chains.
	MaxChains = 64
	// scaleMin/scaleMax bound every per-axis scale factor: beyond roughly
	// an order of magnitude the first-order electrical model (and the
	// cost premium heuristic) stops meaning anything.
	scaleMin = 0.1
	scaleMax = 10.0
)

// Spec describes one design-space search. The zero value is not runnable:
// TDP is required; every other field has a documented default.
type Spec struct {
	// TDP is the design point in watts (the modeled axis spans 4–50 W).
	TDP float64
	// Kinds is the PDN-architecture axis; nil means all five PDNs in the
	// paper's plotting order (IVR, MBVR, LDO, I+MBVR, FlexWatts).
	Kinds []pdn.Kind
	// LoadlineScales scales every load-line resistance in the base
	// parameter set (lower = stiffer board = less I²R loss, at a cost
	// premium). Nil means {0.8, 1, 1.25}.
	LoadlineScales []float64
	// GuardbandScales scales the three tolerance bands (lower = tighter
	// regulation = less guardband loss, at a cost premium). Nil means
	// {0.75, 1, 1.25}.
	GuardbandScales []float64
	// VRScales scales every Iccmax design limit (larger = oversized VRs,
	// shifting the efficiency curves' operating point). Nil means {1}.
	VRScales []float64
	// Objectives selects the Pareto axes; nil means all four.
	Objectives []Objective
	// Strategy picks the search algorithm; the zero value is Auto.
	Strategy Strategy
	// Seed drives the annealing chains' RNGs. Same seed, same spec ⇒
	// byte-identical results.
	Seed int64
	// Budget caps annealing candidate evaluations; <= 0 means
	// DefaultBudget. It is clamped to the space size.
	Budget int
	// Chains is the annealing chain count; <= 0 means DefaultChains.
	Chains int
	// MaxCost, MaxArea and MaxBatteryPower are feasibility ceilings on
	// the corresponding scores; <= 0 disables the ceiling.
	MaxCost, MaxArea, MaxBatteryPower float64
	// MinPerformance is a feasibility floor on relative performance;
	// <= 0 disables it.
	MinPerformance float64
}

// Config is one candidate: a PDN architecture with its parameter scales.
type Config struct {
	Kind           pdn.Kind
	LoadlineScale  float64
	GuardbandScale float64
	VRScale        float64
}

// baseScales reports whether the candidate runs the unscaled base
// parameter set — the only case whose evaluations may share the process
// cache, which keys on (kind, scenario) and knows nothing of Params.
func (c Config) baseScales() bool {
	return c.LoadlineScale == 1 && c.GuardbandScale == 1 && c.VRScale == 1
}

// Scores are one candidate's objective values. All four are always
// computed, whichever subset the spec selected, so a frontier point is
// fully described either way.
type Scores struct {
	// Cost and Area are normalized to the base-parameter IVR PDN.
	Cost, Area float64
	// BatteryPower is the mean §7.1 battery-life drain in watts.
	BatteryPower float64
	// Performance is the SPEC suite-mean relative performance vs the
	// base-parameter IVR PDN.
	Performance float64
}

// value returns the score along one objective.
func (s Scores) value(o Objective) float64 {
	switch o {
	case Cost:
		return s.Cost
	case Area:
		return s.Area
	case BatteryPower:
		return s.BatteryPower
	default:
		return s.Performance
	}
}

// key returns the score oriented so lower is always better.
func (s Scores) key(o Objective) float64 {
	v := s.value(o)
	if o.Maximize() {
		return -v
	}
	return v
}

// finite reports whether every score is a usable number. A candidate with
// a NaN or Inf score is infeasible by definition — degenerate electrical
// parameters must never poison the frontier.
func (s Scores) finite() bool {
	for _, v := range [...]float64{s.Cost, s.Area, s.BatteryPower, s.Performance} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Point is one frontier member: the candidate, its scores, and its Key —
// the candidate's index in the kind-major lexicographic enumeration of
// the space, which orders the reported frontier deterministically.
type Point struct {
	Key    int
	Config Config
	Scores Scores
}

// EventKind tags a progress callback.
type EventKind int

// The event kinds Run emits.
const (
	// EventProgress reports evaluation counts after each batch or round.
	EventProgress EventKind = iota
	// EventFrontier reports a candidate entering the Pareto frontier
	// (it may be displaced again later).
	EventFrontier
)

// Event is one incremental report from a running search.
type Event struct {
	Kind         EventKind
	Evaluated    int
	SpaceSize    int
	FrontierSize int
	// Point is the frontier entrant; valid only for EventFrontier.
	Point Point
}

// Result is a finished search: the Pareto frontier sorted by Key, how
// many candidates were scored, the enumerable space size, and the
// strategy that actually ran (Auto resolves to one of the other two).
type Result struct {
	Frontier  []Point
	Evaluated int
	SpaceSize int
	Strategy  Strategy
}

// normalized validates the spec and fills every default, returning the
// runnable copy. All errors wrap ErrInvalidSpec.
func (s Spec) normalized() (Spec, error) {
	if !(s.TDP >= 4 && s.TDP <= 50) {
		return Spec{}, fmt.Errorf("%w: tdp %g outside the modeled 4-50 W axis", ErrInvalidSpec, s.TDP)
	}
	if s.Kinds == nil {
		s.Kinds = append(pdn.Kinds(), pdn.FlexWatts)
	}
	if len(s.Kinds) == 0 {
		return Spec{}, fmt.Errorf("%w: kinds must not be empty", ErrInvalidSpec)
	}
	seenKind := map[pdn.Kind]bool{}
	for _, k := range s.Kinds {
		valid := k == pdn.FlexWatts
		for _, b := range pdn.Kinds() {
			valid = valid || k == b
		}
		if !valid {
			return Spec{}, fmt.Errorf("%w: unknown PDN kind %v", ErrInvalidSpec, k)
		}
		if seenKind[k] {
			return Spec{}, fmt.Errorf("%w: duplicate PDN kind %v", ErrInvalidSpec, k)
		}
		seenKind[k] = true
	}
	var err error
	if s.LoadlineScales, err = checkScales("loadline", s.LoadlineScales, []float64{0.8, 1, 1.25}); err != nil {
		return Spec{}, err
	}
	if s.GuardbandScales, err = checkScales("guardband", s.GuardbandScales, []float64{0.75, 1, 1.25}); err != nil {
		return Spec{}, err
	}
	if s.VRScales, err = checkScales("vr", s.VRScales, []float64{1}); err != nil {
		return Spec{}, err
	}
	if s.Objectives == nil {
		s.Objectives = Objectives()
	}
	if len(s.Objectives) == 0 {
		return Spec{}, fmt.Errorf("%w: objectives must not be empty", ErrInvalidSpec)
	}
	seenObj := map[Objective]bool{}
	for _, o := range s.Objectives {
		if o < Cost || o > Performance {
			return Spec{}, fmt.Errorf("%w: unknown objective %v", ErrInvalidSpec, o)
		}
		if seenObj[o] {
			return Spec{}, fmt.Errorf("%w: duplicate objective %v", ErrInvalidSpec, o)
		}
		seenObj[o] = true
	}
	size := len(s.Kinds) * len(s.LoadlineScales) * len(s.GuardbandScales) * len(s.VRScales)
	if size > MaxSpace {
		return Spec{}, fmt.Errorf("%w: candidate space %d exceeds the %d cap", ErrInvalidSpec, size, MaxSpace)
	}
	switch s.Strategy {
	case Auto:
		if size <= AutoExhaustiveLimit {
			s.Strategy = Exhaustive
		} else {
			s.Strategy = Anneal
		}
	case Exhaustive:
		if size > MaxExhaustive {
			return Spec{}, fmt.Errorf("%w: candidate space %d exceeds the %d exhaustive cap (use anneal)",
				ErrInvalidSpec, size, MaxExhaustive)
		}
	case Anneal:
	default:
		return Spec{}, fmt.Errorf("%w: unknown strategy %v", ErrInvalidSpec, s.Strategy)
	}
	if s.Budget <= 0 {
		s.Budget = DefaultBudget
	}
	if s.Budget > size {
		s.Budget = size
	}
	if s.Chains <= 0 {
		s.Chains = DefaultChains
	}
	if s.Chains > MaxChains {
		s.Chains = MaxChains
	}
	// Field order, so a spec with several non-finite constraints always
	// names the same one.
	for _, c := range [...]struct {
		name string
		v    float64
	}{
		{"max_cost", s.MaxCost}, {"max_area", s.MaxArea},
		{"max_battery_power", s.MaxBatteryPower}, {"min_performance", s.MinPerformance},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return Spec{}, fmt.Errorf("%w: constraint %s must be finite", ErrInvalidSpec, c.name)
		}
	}
	return s, nil
}

// Validate checks the spec without running it — the same rules Run
// applies, exposed so a server can answer 400 before committing a
// streaming status line. All errors wrap ErrInvalidSpec.
func (s Spec) Validate() error {
	_, err := s.normalized()
	return err
}

// checkScales validates one scale axis, substituting def for nil.
func checkScales(name string, scales, def []float64) ([]float64, error) {
	if scales == nil {
		return def, nil
	}
	if len(scales) == 0 {
		return nil, fmt.Errorf("%w: %s scales must not be empty", ErrInvalidSpec, name)
	}
	for _, v := range scales {
		if math.IsNaN(v) || v < scaleMin || v > scaleMax {
			return nil, fmt.Errorf("%w: %s scale %g outside [%g, %g]", ErrInvalidSpec, name, v, scaleMin, scaleMax)
		}
	}
	return scales, nil
}

// feasible applies the spec's constraint ceilings to a finite score set.
func (s Spec) feasible(sc Scores) bool {
	if s.MaxCost > 0 && sc.Cost > s.MaxCost {
		return false
	}
	if s.MaxArea > 0 && sc.Area > s.MaxArea {
		return false
	}
	if s.MaxBatteryPower > 0 && sc.BatteryPower > s.MaxBatteryPower {
		return false
	}
	if s.MinPerformance > 0 && sc.Performance < s.MinPerformance {
		return false
	}
	return true
}

// config decodes a lexicographic key (kind-major, then load-line,
// guardband, VR scale) into its candidate.
func (s Spec) config(key int) Config {
	nv := len(s.VRScales)
	ng := len(s.GuardbandScales)
	nl := len(s.LoadlineScales)
	vi := key % nv
	key /= nv
	gi := key % ng
	key /= ng
	li := key % nl
	ki := key / nl
	return Config{
		Kind:           s.Kinds[ki],
		LoadlineScale:  s.LoadlineScales[li],
		GuardbandScale: s.GuardbandScales[gi],
		VRScale:        s.VRScales[vi],
	}
}

// spaceSize is the enumerable candidate count.
func (s Spec) spaceSize() int {
	return len(s.Kinds) * len(s.LoadlineScales) * len(s.GuardbandScales) * len(s.VRScales)
}

// scaleParams applies a candidate's scales to the base parameter set:
// load-line scale on every rail resistance, guardband scale on the three
// tolerance bands, VR scale on every Iccmax design limit.
func scaleParams(p pdn.Params, c Config) pdn.Params {
	ll, gb, vrs := c.LoadlineScale, c.GuardbandScale, c.VRScale
	p.IVRInLL *= ll
	p.LDOInLL *= ll
	p.CoresLL *= ll
	p.GfxLL *= ll
	p.SALL *= ll
	p.IOLL *= ll
	p.TOBIVR *= gb
	p.TOBMBVR *= gb
	p.TOBLDO *= gb
	p.VINIccmax *= vrs
	p.CoresIccmax *= vrs
	p.GfxIccmax *= vrs
	p.SAIccmax *= vrs
	p.IOIccmax *= vrs
	p.IVRIccmax *= vrs
	return p
}

// costPremium and areaPremium price a candidate's parameter scales as
// first-order multipliers on the kind's normalized cost model: a stiffer
// board (lower load-line) needs more copper and plane layers, a tighter
// tolerance band needs more phases and a faster control loop, and
// oversized VRs (higher Iccmax) are simply bigger parts. Exponents are
// order-of-magnitude engineering judgement, chosen so that electrical
// wins (which the grid kernel prices exactly) trade against plausible
// board-cost penalties instead of being free — without them every
// frontier would collapse to "scale everything down".
func costPremium(c Config) float64 {
	return math.Pow(1/c.LoadlineScale, 0.25) *
		math.Pow(1/c.GuardbandScale, 0.35) *
		math.Pow(c.VRScale, 0.60)
}

func areaPremium(c Config) float64 {
	return math.Pow(1/c.LoadlineScale, 0.30) *
		math.Pow(1/c.GuardbandScale, 0.25) *
		math.Pow(c.VRScale, 0.70)
}
