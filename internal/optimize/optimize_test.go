package optimize

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func testEngine(workers int) *Engine {
	return &Engine{Base: pdn.DefaultParams(), Workers: workers}
}

// smallSpec is a tiny exhaustive space (2 kinds × 2 ll × 2 gb × 1 vr = 8).
func smallSpec() Spec {
	return Spec{
		TDP:             15,
		Kinds:           []pdn.Kind{pdn.IVR, pdn.MBVR},
		LoadlineScales:  []float64{0.9, 1},
		GuardbandScales: []float64{1, 1.25},
		VRScales:        []float64{1},
	}
}

// annealSpec is a space big enough that Auto anneals, with a budget small
// enough to keep the test fast.
func annealSpec() Spec {
	return Spec{
		TDP:             15,
		Kinds:           []pdn.Kind{pdn.IVR, pdn.MBVR, pdn.LDO, pdn.IMBVR, pdn.FlexWatts},
		LoadlineScales:  []float64{0.5, 0.625, 0.75, 0.875, 1, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875, 2, 2.25, 2.5, 2.75},
		GuardbandScales: []float64{0.5, 0.625, 0.75, 0.875, 1, 1.125, 1.25, 1.375},
		VRScales:        []float64{0.8, 1, 1.2, 1.5, 2},
		Strategy:        Anneal,
		Seed:            42,
		Budget:          96,
		Chains:          6,
	}
}

func mustRun(t *testing.T, e *Engine, spec Spec) Result {
	t.Helper()
	res, err := e.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestExhaustiveBasics(t *testing.T) {
	res := mustRun(t, testEngine(0), smallSpec())
	if res.Strategy != Exhaustive {
		t.Fatalf("strategy = %v, want Exhaustive", res.Strategy)
	}
	if res.SpaceSize != 8 || res.Evaluated != 8 {
		t.Fatalf("space/evaluated = %d/%d, want 8/8", res.SpaceSize, res.Evaluated)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i, p := range res.Frontier {
		if i > 0 && res.Frontier[i-1].Key >= p.Key {
			t.Fatalf("frontier not sorted by key: %d then %d", res.Frontier[i-1].Key, p.Key)
		}
		if !p.Scores.finite() {
			t.Fatalf("non-finite frontier scores: %+v", p.Scores)
		}
	}
	// No frontier member may dominate another.
	f := newFrontier(Objectives())
	for _, p := range res.Frontier {
		for _, q := range res.Frontier {
			if p.Key != q.Key && f.dominatesEq(p.Scores, q.Scores) {
				t.Fatalf("frontier member %d dominates member %d", p.Key, q.Key)
			}
		}
	}
}

// TestDeterminismAcrossWorkers pins the byte-identity contract: the worker
// count must not change a single bit of the result.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, spec := range []Spec{smallSpec(), annealSpec()} {
		var want []byte
		for _, workers := range []int{1, 2, 7} {
			got := marshal(t, mustRun(t, testEngine(workers), spec))
			if want == nil {
				want = got
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("workers=%d changed the result (strategy %v)", workers, spec.Strategy)
			}
		}
	}
}

// TestAnnealSeedDeterminism pins seeded reproducibility, and that a
// different seed actually explores differently.
func TestAnnealSeedDeterminism(t *testing.T) {
	e := testEngine(0)
	a := marshal(t, mustRun(t, e, annealSpec()))
	b := marshal(t, mustRun(t, e, annealSpec()))
	if string(a) != string(b) {
		t.Fatal("same seed produced different results")
	}
	other := annealSpec()
	other.Seed = 1729
	c := mustRun(t, e, other)
	var av Result
	if err := json.Unmarshal(a, &av); err != nil {
		t.Fatal(err)
	}
	if av.Evaluated == c.Evaluated && string(marshal(t, c)) == string(a) {
		t.Fatal("different seeds produced byte-identical trajectories (suspicious)")
	}
}

func TestAnnealRespectsBudget(t *testing.T) {
	spec := annealSpec()
	res := mustRun(t, testEngine(0), spec)
	if res.Strategy != Anneal {
		t.Fatalf("strategy = %v, want Anneal", res.Strategy)
	}
	if res.Evaluated < spec.Chains || res.Evaluated > spec.Budget+spec.Chains {
		t.Fatalf("evaluated %d outside [chains, budget+chains] = [%d, %d]",
			res.Evaluated, spec.Chains, spec.Budget+spec.Chains)
	}
	for _, p := range res.Frontier {
		cfg := spec.config(p.Key)
		nspec, err := spec.normalized()
		if err != nil {
			t.Fatal(err)
		}
		if nspec.config(p.Key) != cfg {
			t.Fatalf("key %d decodes inconsistently", p.Key)
		}
		if p.Config != cfg {
			t.Fatalf("frontier point %d carries config %+v, key decodes %+v", p.Key, p.Config, cfg)
		}
	}
}

// TestAutoStrategySelection checks the Auto split point.
func TestAutoStrategySelection(t *testing.T) {
	small, err := smallSpec().normalized()
	if err != nil {
		t.Fatal(err)
	}
	if small.Strategy != Exhaustive {
		t.Fatalf("small Auto → %v, want Exhaustive", small.Strategy)
	}
	big := annealSpec()
	big.Strategy = Auto
	nbig, err := big.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if nbig.Strategy != Anneal {
		t.Fatalf("big Auto → %v, want Anneal (space %d)", nbig.Strategy, nbig.spaceSize())
	}
}

// TestCancellationNoLeak cancels mid-search and checks both the error and
// that no worker goroutines outlive the call.
func TestCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	e := testEngine(4)
	sentinel := errors.New("stop now")
	ctx, cancel := context.WithCancelCause(context.Background())
	n := 0
	_, err := e.Run(ctx, annealSpec(), func(Event) error {
		n++
		if n == 3 {
			cancel(sentinel)
		}
		return nil
	})
	cancel(nil)
	if !errors.Is(err, sentinel) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancel cause", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines: %d before, %d after cancellation", before, g)
	}
}

// TestEmitErrorAborts pins that a failing callback stops the search.
func TestEmitErrorAborts(t *testing.T) {
	sentinel := errors.New("client went away")
	_, err := testEngine(0).Run(context.Background(), smallSpec(), func(Event) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want emit error", err)
	}
}

func TestEvents(t *testing.T) {
	var frontierEvents, progressEvents int
	var lastFrontierSize int
	res, err := testEngine(0).Run(context.Background(), smallSpec(), func(ev Event) error {
		switch ev.Kind {
		case EventFrontier:
			frontierEvents++
			if ev.Point.Scores == (Scores{}) {
				return errors.New("frontier event without point")
			}
			lastFrontierSize = ev.FrontierSize
		case EventProgress:
			progressEvents++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frontierEvents == 0 || progressEvents == 0 {
		t.Fatalf("events: %d frontier, %d progress; want both > 0", frontierEvents, progressEvents)
	}
	if lastFrontierSize < len(res.Frontier) {
		t.Fatalf("last frontier event saw size %d < final %d", lastFrontierSize, len(res.Frontier))
	}
}

// TestConstraintFiltering pins that ceilings exclude candidates and that an
// impossible constraint empties the frontier rather than erroring.
func TestConstraintFiltering(t *testing.T) {
	spec := smallSpec()
	free := mustRun(t, testEngine(0), spec)

	spec.MaxCost = 1e-9
	res := mustRun(t, testEngine(0), spec)
	if len(res.Frontier) != 0 {
		t.Fatalf("impossible MaxCost kept %d frontier points", len(res.Frontier))
	}
	if res.Evaluated != free.Evaluated {
		t.Fatalf("constraints changed evaluation count: %d vs %d", res.Evaluated, free.Evaluated)
	}

	// A binding ceiling must exclude every over-ceiling candidate.
	var maxCost float64
	for _, p := range free.Frontier {
		maxCost = math.Max(maxCost, p.Scores.Cost)
	}
	spec.MaxCost = maxCost * 0.99
	bounded := mustRun(t, testEngine(0), spec)
	for _, p := range bounded.Frontier {
		if p.Scores.Cost > spec.MaxCost {
			t.Fatalf("frontier point violates MaxCost: %g > %g", p.Scores.Cost, spec.MaxCost)
		}
	}
}

// TestObjectiveSubset: with a single objective the frontier is one point
// (the argmin), modulo exact ties.
func TestObjectiveSubset(t *testing.T) {
	spec := smallSpec()
	spec.Objectives = []Objective{BatteryPower}
	res := mustRun(t, testEngine(0), spec)
	if len(res.Frontier) != 1 {
		t.Fatalf("single-objective frontier has %d points, want 1", len(res.Frontier))
	}
	best := res.Frontier[0]
	full := mustRun(t, testEngine(0), smallSpec())
	for _, p := range full.Frontier {
		if p.Scores.BatteryPower < best.Scores.BatteryPower {
			t.Fatalf("frontier missed the battery argmin: %g < %g", p.Scores.BatteryPower, best.Scores.BatteryPower)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"tdp low", func(s *Spec) { s.TDP = 3 }},
		{"tdp high", func(s *Spec) { s.TDP = 51 }},
		{"tdp nan", func(s *Spec) { s.TDP = math.NaN() }},
		{"empty kinds", func(s *Spec) { s.Kinds = []pdn.Kind{} }},
		{"bad kind", func(s *Spec) { s.Kinds = []pdn.Kind{pdn.Kind(99)} }},
		{"dup kind", func(s *Spec) { s.Kinds = []pdn.Kind{pdn.IVR, pdn.IVR} }},
		{"empty scales", func(s *Spec) { s.LoadlineScales = []float64{} }},
		{"scale low", func(s *Spec) { s.GuardbandScales = []float64{0.01} }},
		{"scale high", func(s *Spec) { s.VRScales = []float64{11} }},
		{"scale nan", func(s *Spec) { s.LoadlineScales = []float64{math.NaN()} }},
		{"empty objectives", func(s *Spec) { s.Objectives = []Objective{} }},
		{"dup objective", func(s *Spec) { s.Objectives = []Objective{Cost, Cost} }},
		{"bad objective", func(s *Spec) { s.Objectives = []Objective{Objective(9)} }},
		{"bad strategy", func(s *Spec) { s.Strategy = Strategy(9) }},
		{"nan constraint", func(s *Spec) { s.MaxArea = math.NaN() }},
		{"inf constraint", func(s *Spec) { s.MinPerformance = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec()
			tc.mut(&spec)
			if _, err := spec.normalized(); !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("err = %v, want ErrInvalidSpec", err)
			}
			if _, err := testEngine(0).Run(context.Background(), spec, nil); !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("Run err = %v, want ErrInvalidSpec", err)
			}
		})
	}
}

// TestSpecErrorDeterministic pins which constraint a spec with several
// non-finite constraints is rejected for: the first in field order,
// max_cost, on every call.
func TestSpecErrorDeterministic(t *testing.T) {
	spec := smallSpec()
	spec.MaxCost, spec.MaxArea = math.NaN(), math.Inf(1)
	spec.MaxBatteryPower, spec.MinPerformance = math.Inf(-1), math.NaN()
	want := spec.Validate()
	if !errors.Is(want, ErrInvalidSpec) || !strings.Contains(want.Error(), "max_cost") {
		t.Fatalf("err = %v, want ErrInvalidSpec naming max_cost", want)
	}
	for i := 0; i < 100; i++ {
		if err := spec.Validate(); err.Error() != want.Error() {
			t.Fatalf("call %d: %q, want %q", i, err, want)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	ns, err := (Spec{TDP: 15}).normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.Kinds) != 5 || ns.Kinds[4] != pdn.FlexWatts {
		t.Fatalf("default kinds = %v", ns.Kinds)
	}
	if len(ns.Objectives) != 4 {
		t.Fatalf("default objectives = %v", ns.Objectives)
	}
	if ns.Budget != 45 { // clamped to the 5×3×3×1 space
		t.Fatalf("budget = %d, want clamped 45", ns.Budget)
	}
	if ns.Chains != DefaultChains {
		t.Fatalf("chains = %d", ns.Chains)
	}
	if ns.Strategy != Exhaustive {
		t.Fatalf("strategy = %v", ns.Strategy)
	}
	if ns.spaceSize() > MaxSpace {
		t.Fatal("bad space")
	}
}

func TestExhaustiveCapEnforced(t *testing.T) {
	spec := annealSpec()
	spec.Strategy = Exhaustive
	// 5×16×8×5 = 3200 ≤ MaxExhaustive, so widen until it exceeds.
	for len(spec.VRScales)*len(spec.Kinds)*len(spec.LoadlineScales)*len(spec.GuardbandScales) <= MaxExhaustive {
		spec.VRScales = append(spec.VRScales, spec.VRScales...)
	}
	if _, err := spec.normalized(); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec for oversized exhaustive", err)
	}
}

// TestConfigRoundTrip checks the kind-major key codec against a brute
// enumeration.
func TestConfigRoundTrip(t *testing.T) {
	spec, err := annealSpec().normalized()
	if err != nil {
		t.Fatal(err)
	}
	key := 0
	for _, k := range spec.Kinds {
		for _, ll := range spec.LoadlineScales {
			for _, gb := range spec.GuardbandScales {
				for _, vr := range spec.VRScales {
					want := Config{Kind: k, LoadlineScale: ll, GuardbandScale: gb, VRScale: vr}
					if got := spec.config(key); got != want {
						t.Fatalf("config(%d) = %+v, want %+v", key, got, want)
					}
					key++
				}
			}
		}
	}
	if key != spec.spaceSize() {
		t.Fatalf("enumerated %d, spaceSize %d", key, spec.spaceSize())
	}
}

// TestNeighborStaysInSpace fuzzes the proposal kernel against the key
// codec: every proposal must be a valid key differing on at most one axis.
func TestNeighborStaysInSpace(t *testing.T) {
	spec, err := annealSpec().normalized()
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(1)
	s, err := e.newSearch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := newChainRNG(7, 0)
	size := spec.spaceSize()
	key := size / 3
	for i := 0; i < 2000; i++ {
		next := s.neighbor(key, rng)
		if next < 0 || next >= size {
			t.Fatalf("neighbor(%d) = %d outside [0, %d)", key, next, size)
		}
		a, b := spec.config(key), spec.config(next)
		diff := 0
		if a.Kind != b.Kind {
			diff++
		}
		if a.LoadlineScale != b.LoadlineScale {
			diff++
		}
		if a.GuardbandScale != b.GuardbandScale {
			diff++
		}
		if a.VRScale != b.VRScale {
			diff++
		}
		if diff > 1 {
			t.Fatalf("neighbor changed %d axes: %+v → %+v", diff, a, b)
		}
		key = next
	}
}

// TestScaledCandidatesBypassCache pins the poisoning guard: running a
// search with a shared cache must leave base-parameter entries only, so a
// subsequent direct sweep through the same cache still matches a cacheless
// sweep bit for bit.
func TestScaledCandidatesBypassCache(t *testing.T) {
	cache := sweep.NewCache()
	e := testEngine(0)
	e.Cache = cache
	mustRun(t, e, smallSpec())

	clean := testEngine(0)
	want := marshal(t, mustRun(t, clean, smallSpec()))
	got := marshal(t, mustRun(t, e, smallSpec()))
	if string(got) != string(want) {
		t.Fatal("shared cache changed search results — scaled-candidate poisoning")
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, o := range Objectives() {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseObjective(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := ParseObjective("speed"); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("ParseObjective(speed) err = %v", err)
	}
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if st, err := ParseStrategy(""); err != nil || st != Auto {
		t.Fatalf("ParseStrategy(\"\") = %v, %v", st, err)
	}
	if _, err := ParseStrategy("genetic"); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("ParseStrategy(genetic) err = %v", err)
	}
}

func TestFrontierUnit(t *testing.T) {
	f := newFrontier([]Objective{Cost, Performance})
	mk := func(key int, cost, perf float64) Point {
		return Point{Key: key, Scores: Scores{Cost: cost, Performance: perf}}
	}
	if !f.add(mk(0, 1.0, 1.0)) {
		t.Fatal("first point rejected")
	}
	if f.add(mk(1, 1.0, 1.0)) {
		t.Fatal("exact tie entered (should keep earlier arrival)")
	}
	if f.add(mk(2, 1.1, 0.9)) {
		t.Fatal("dominated point entered")
	}
	if !f.add(mk(3, 0.9, 0.9)) {
		t.Fatal("trade-off point rejected")
	}
	if !f.add(mk(4, 0.8, 1.1)) {
		t.Fatal("dominating point rejected")
	}
	// (4) dominates both (0) and (3): cost lower, perf higher.
	pts := f.sorted()
	if len(pts) != 1 || pts[0].Key != 4 {
		t.Fatalf("frontier after dominance = %+v, want just key 4", pts)
	}
	// Area is not a selected objective here: a point worse on Area but
	// identical on (Cost, Performance) still ties and is rejected.
	p := mk(5, 0.8, 1.1)
	p.Scores.Area = 99
	if f.add(p) {
		t.Fatal("tie on selected objectives entered via unselected objective")
	}
}

func TestScoresFinite(t *testing.T) {
	good := Scores{Cost: 1, Area: 1, BatteryPower: 0.5, Performance: 1}
	if !good.finite() {
		t.Fatal("finite scores reported non-finite")
	}
	for _, bad := range []Scores{
		{Cost: math.NaN(), Area: 1, BatteryPower: 1, Performance: 1},
		{Cost: 1, Area: math.Inf(1), BatteryPower: 1, Performance: 1},
		{Cost: 1, Area: 1, BatteryPower: math.Inf(-1), Performance: 1},
		{Cost: 1, Area: 1, BatteryPower: 1, Performance: math.NaN()},
	} {
		if bad.finite() {
			t.Fatalf("non-finite scores %+v reported finite", bad)
		}
	}
}

// TestExtremeScalesNeverProduceNonFiniteFrontiers drives the search to the
// admitted scale bounds (0.1× and 10× on every axis, both TDP extremes):
// candidates out there may legitimately be infeasible and drop out, but
// any point that reaches a frontier must carry finite, positive scores.
func TestExtremeScalesNeverProduceNonFiniteFrontiers(t *testing.T) {
	for _, tdp := range []float64{4, 50} {
		spec := Spec{
			TDP:             tdp,
			LoadlineScales:  []float64{scaleMin, 1, scaleMax},
			GuardbandScales: []float64{scaleMin, 1, scaleMax},
			VRScales:        []float64{scaleMin, 1, scaleMax},
		}
		res := mustRun(t, testEngine(0), spec)
		if len(res.Frontier) == 0 {
			t.Fatalf("tdp %g: nothing feasible even at base scales", tdp)
		}
		for _, p := range res.Frontier {
			for name, v := range map[string]float64{
				"cost": p.Scores.Cost, "area": p.Scores.Area,
				"battery": p.Scores.BatteryPower, "performance": p.Scores.Performance,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("tdp %g key %d: %s score %g", tdp, p.Key, name, v)
				}
			}
		}
	}
}

// TestFlexWattsScoring pins the oracle-mode bound: FlexWatts battery drain
// must be no worse than both single-mode PDNs it switches between.
func TestFlexWattsScoring(t *testing.T) {
	spec := smallSpec()
	spec.Kinds = []pdn.Kind{pdn.IVR, pdn.LDO, pdn.FlexWatts}
	spec.LoadlineScales = []float64{1}
	spec.GuardbandScales = []float64{1}
	res := mustRun(t, testEngine(0), spec)
	byKind := map[pdn.Kind]Scores{}
	// Frontier may not hold all three; rescore directly.
	e := testEngine(0)
	ns, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.newSearch(context.Background(), ns)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range spec.Kinds {
		cs := s.score(Config{Kind: k, LoadlineScale: 1, GuardbandScale: 1, VRScale: 1})
		if !cs.ok {
			t.Fatalf("kind %v infeasible at base scales", k)
		}
		byKind[k] = cs.sc
	}
	// The hybrid beats pure IVR at idle outright; against pure LDO it pays
	// only the bypassed IVR's residual overhead, so allow a 1% band rather
	// than exact dominance (its LDO mode is LDO-through-the-hybrid, not a
	// pure LDO board).
	fw := byKind[pdn.FlexWatts].BatteryPower
	if fw > byKind[pdn.IVR].BatteryPower {
		t.Fatalf("FlexWatts battery %g worse than IVR %g", fw, byKind[pdn.IVR].BatteryPower)
	}
	if fw > byKind[pdn.LDO].BatteryPower*1.01 {
		t.Fatalf("FlexWatts battery %g far worse than LDO %g", fw, byKind[pdn.LDO].BatteryPower)
	}
	_ = res
}

func BenchmarkOptimizeScore(b *testing.B) {
	e := testEngine(0)
	ns, err := smallSpec().normalized()
	if err != nil {
		b.Fatal(err)
	}
	s, err := e.newSearch(context.Background(), ns)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Kind: pdn.MBVR, LoadlineScale: 0.9, GuardbandScale: 1.25, VRScale: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := s.score(cfg); !cs.ok {
			b.Fatal("infeasible")
		}
	}
}

// TestSearchScoresAtBasePSU pins that a search scores at Base.PSU: a 12 V
// engine's IVR baseline input power, read through each workload's perf
// point, is the IVR model's at 12 V, and differs from the default 7.2 V
// engine's.
func TestSearchScoresAtBasePSU(t *testing.T) {
	p12 := pdn.DefaultParams()
	p12.PSU = 12
	spec, err := smallSpec().normalized()
	if err != nil {
		t.Fatal(err)
	}
	s12, err := (&Engine{Base: p12, Workers: 1}).newSearch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	s72, err := testEngine(1).newSearch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ivr, err := pdn.New(pdn.IVR, p12)
	if err != nil {
		t.Fatal(err)
	}
	plat := domain.NewClientPlatform()
	for i, w := range s12.suite.Workloads {
		sc, err := workload.TDPScenario(plat, spec.TDP, w.Type, w.AR)
		if err != nil {
			t.Fatal(err)
		}
		sc.PSU = 12
		want, err := ivr.Evaluate(sc)
		if err != nil {
			t.Fatal(err)
		}
		got := s12.basePIn[s12.point[i]]
		if got != float64(want.PIn) {
			t.Errorf("%s: 12 V baseline PIn %v, IVR model at 12 V %v", w.Name, got, want.PIn)
		}
		if got == s72.basePIn[s72.point[i]] {
			t.Errorf("%s: 12 V and 7.2 V baselines agree (%v)", w.Name, got)
		}
	}
}
