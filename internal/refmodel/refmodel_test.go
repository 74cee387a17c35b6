package refmodel

import (
	"math"
	"testing"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/workload"
)

func testSetup(t *testing.T) (pdn.Model, pdn.Scenario) {
	t.Helper()
	plat := domain.NewClientPlatform()
	m := pdn.NewIVRModel(pdn.DefaultParams())
	s, err := workload.TDPScenario(plat, 18, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func TestMeasureDeterministic(t *testing.T) {
	m, s := testSetup(t)
	cfg := DefaultConfig()
	cfg.Seed = 42
	a, err := Measure(m, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(m, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ETEE != b.ETEE || a.MeanPIn != b.MeanPIn {
		t.Error("same seed must reproduce the measurement exactly")
	}
	cfg.Seed = 43
	c, _ := Measure(m, s, cfg)
	if c.ETEE == a.ETEE {
		t.Error("different seeds should perturb the measurement")
	}
}

func TestMeasurePlausible(t *testing.T) {
	m, s := testSetup(t)
	pred, err := m.Evaluate(s)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Measure(m, s, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if meas.Steps != 2000 {
		t.Errorf("default config should take 2000 steps, took %d", meas.Steps)
	}
	if !(meas.PeakPIn > meas.MeanPIn) {
		t.Error("peak power must exceed mean under ripple")
	}
	// The closed-form model validates against the reference at the paper's
	// accuracy level (§4.3: 98.6% worst case).
	acc := Accuracy(pred.ETEE, meas.ETEE)
	if acc < 0.975 {
		t.Errorf("validation accuracy %.2f%%, want >= 97.5%%", acc*100)
	}
}

func TestAccuracyAcrossCorpus(t *testing.T) {
	// Average accuracy across workload types, TDPs, ARs and all three PDNs
	// must land near the paper's 99%.
	plat := domain.NewClientPlatform()
	params := pdn.DefaultParams()
	models := []pdn.Model{
		pdn.NewIVRModel(params), pdn.NewMBVRModel(params), pdn.NewLDOModel(params),
	}
	cfg := DefaultConfig()
	cfg.Duration = 1e-3 // shorter runs to keep the test fast
	var sum float64
	n := 0
	for _, m := range models {
		for _, wt := range workload.Types() {
			for _, tdp := range []float64{4, 18, 50} {
				s, err := workload.TDPScenario(plat, tdp, wt, 0.6)
				if err != nil {
					t.Fatal(err)
				}
				pred, err := m.Evaluate(s)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Seed = int64(n + 1)
				meas, err := Measure(m, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				acc := Accuracy(pred.ETEE, meas.ETEE)
				if acc < 0.96 {
					t.Errorf("%v %v %gW: accuracy %.2f%% below 96%%", m.Kind(), wt, tdp, acc*100)
				}
				sum += acc
				n++
			}
		}
	}
	if avg := sum / float64(n); avg < 0.98 {
		t.Errorf("average validation accuracy %.2f%%, want >= 98%%", avg*100)
	}
}

func TestAccuracyHelper(t *testing.T) {
	if got := Accuracy(0.75, 0.75); got != 1 {
		t.Errorf("perfect prediction accuracy %g", got)
	}
	if got := Accuracy(0.74, 0.75); math.Abs(got-(1-0.01/0.75)) > 1e-12 {
		t.Errorf("accuracy %g", got)
	}
}

func TestBadConfigFallsBack(t *testing.T) {
	m, s := testSetup(t)
	if _, err := Measure(m, s, Config{}); err != nil {
		t.Errorf("zero config should fall back to defaults: %v", err)
	}
}

// scalarOnly hides a model's batch kernel, so Measure evaluates it one
// snapshot at a time through Evaluate.
type scalarOnly struct{ pdn.Model }

// TestMeasureKernelMatchesScalar pins Measure's chunked kernel path to the
// per-snapshot Evaluate path bit for bit — same RNG stream, same
// accumulation order — over run lengths that end mid-chunk, and pins that
// an invalid scenario fails with Evaluate's own error on both paths.
func TestMeasureKernelMatchesScalar(t *testing.T) {
	plat := domain.NewClientPlatform()
	params := pdn.DefaultParams()
	ivrMode, ldoMode := pdn.NewFlexWattsModes(params)
	models := []pdn.Model{
		pdn.NewIVRModel(params), pdn.NewMBVRModel(params), pdn.NewLDOModel(params),
		pdn.NewIMBVRModel(params), ivrMode, ldoMode,
	}
	cfg := DefaultConfig()
	for _, m := range models {
		for i, wt := range workload.Types() {
			s, err := workload.TDPScenario(plat, 6+float64(i)*17, wt, 0.55)
			if err != nil {
				t.Fatal(err)
			}
			for _, dur := range []float64{1e-6, 300e-6, 2e-3} {
				cfg.Duration = dur
				cfg.Seed = int64(i + 3)
				got, err := Measure(m, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Measure(scalarOnly{m}, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.ETEE) != math.Float64bits(want.ETEE) ||
					math.Float64bits(got.MeanPIn) != math.Float64bits(want.MeanPIn) ||
					math.Float64bits(got.PeakPIn) != math.Float64bits(want.PeakPIn) ||
					got.Steps != want.Steps {
					t.Errorf("%v %v %gs: kernel %+v, per-snapshot %+v", m.Kind(), wt, dur, got, want)
				}
			}
		}
		bad := pdn.NewScenario()
		bad.Loads[domain.Core0] = pdn.Load{PNom: 2, VNom: 0.8, FL: 0.3, AR: 1.5}
		_, want := m.Evaluate(bad)
		for _, mm := range []pdn.Model{m, scalarOnly{m}} {
			if _, err := Measure(mm, bad, cfg); err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("%v invalid scenario: Measure error %v, want %v", m.Kind(), err, want)
			}
		}
	}
}
