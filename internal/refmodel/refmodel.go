// Package refmodel provides the "measured" reference against which PDNspot
// is validated (paper §4.3), standing in for the paper's instrumented
// Broadwell/Skylake systems and Keysight N6705B power analyzer, which this
// reproduction does not have.
//
// The reference is a time-stepped simulator: it advances in 1 µs steps and
// integrates the instantaneous input power of a PDN while the domain loads
// fluctuate around their nominal values with per-domain ripple tones and
// band-limited noise (the current waveforms a power analyzer would see).
// Because VR efficiency and load-line loss are nonlinear in current, the
// time-average of the instantaneous power flow differs from the power flow
// of the time-averaged load — precisely the second-order effect PDNspot's
// closed-form interval model ignores (§3.4's stated limitation). Validation
// accuracy is therefore a meaningful number rather than a circular identity,
// and lands near the paper's 99 % figures.
package refmodel

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
)

// Config controls the reference simulation.
type Config struct {
	// Step is the integration time step (default 1 µs).
	Step units.Second
	// Duration is the simulated interval (default 2 ms).
	Duration units.Second
	// Ripple is the relative amplitude of each domain's periodic load
	// fluctuation (workload phase behavior, default 4 %).
	Ripple float64
	// Noise is the standard deviation of the band-limited random load
	// component (default 1.5 %).
	Noise float64
	// Seed makes runs deterministic.
	Seed int64
}

// DefaultConfig returns the configuration used for the Fig 4 validation.
func DefaultConfig() Config {
	return Config{
		Step:     units.MicroSecond(1),
		Duration: 2e-3,
		Ripple:   0.04,
		Noise:    0.015,
		Seed:     1,
	}
}

// Measurement is the outcome of a reference run.
type Measurement struct {
	// ETEE is the "measured" end-to-end efficiency: mean nominal power over
	// mean input power.
	ETEE float64
	// MeanPIn is the time-averaged input power.
	MeanPIn units.Watt
	// PeakPIn is the maximum instantaneous input power observed.
	PeakPIn units.Watt
	// Steps is the number of integration steps taken.
	Steps int
}

// tone describes one domain's load fluctuation.
type tone struct {
	w     float64 // angular frequency 2π·freq, rad/s
	phase float64
	noise float64 // AR(1)-filtered noise state
}

// gridModel is a PDN model with a batch kernel, such as every pdn model.
type gridModel interface {
	EvaluateGrid(g *pdn.Grid, out []pdn.Result) error
}

// chunkSteps is how many integration steps Measure evaluates per kernel
// call; arena recycles the chunk grids and result blocks across runs.
const chunkSteps = 256

var arena pdn.GridArena

// Measure runs the reference simulation of the PDN model on the scenario
// and returns the measured ETEE. The same PDN topology evaluates each
// instantaneous load snapshot; the returned figure differs from the
// closed-form prediction by the nonlinearity (Jensen) gap plus ripple-borne
// guardband interactions. Snapshots are evaluated chunkSteps at a time
// through the model's EvaluateGrid when it has one, per snapshot through
// Evaluate otherwise; either way a step's result, and the running sums, are
// what per-step Evaluate calls would produce.
func Measure(m pdn.Model, s pdn.Scenario, cfg Config) (Measurement, error) {
	if cfg.Step <= 0 || cfg.Duration <= 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Tones are assigned in canonical domain order so the RNG stream (and
	// thus the measurement) is reproducible for a given seed; idle domains
	// draw no power and consume no randomness.
	var tones [domain.NumKinds]tone
	var fluctuates [domain.NumKinds]bool
	for k := range s.Loads {
		if !s.Loads[k].Active() {
			continue
		}
		fluctuates[k] = true
		tones[k] = tone{
			// Workload phase frequencies in the tens-of-kHz range, distinct
			// per domain so the fleet doesn't beat in lockstep.
			w:     2 * math.Pi * (20e3 + 60e3*rng.Float64()),
			phase: 2 * math.Pi * rng.Float64(),
		}
	}
	// AR(1) coefficient for band-limited noise with ~50 µs correlation.
	alpha := math.Exp(-cfg.Step / 50e-6)
	sigma := cfg.Noise * math.Sqrt(1-alpha*alpha)

	lease := arena.Get()
	defer lease.Release()
	g := lease.Grid()

	var sumPIn, sumPNom, peak units.Watt
	steps := 0
	n := int(cfg.Duration/cfg.Step + 0.5)
	// One instantaneous scenario is mutated in place every step (Scenario is
	// a value type); only the perturbed PNom fields change.
	inst := s
	for lo := 0; lo < n; lo += chunkSteps {
		g.Reset()
		for step := lo; step < min(lo+chunkSteps, n); step++ {
			t := float64(step) * cfg.Step
			for k := range s.Loads {
				if !fluctuates[k] {
					continue
				}
				tn := &tones[k]
				tn.noise = alpha*tn.noise + sigma*rng.NormFloat64()
				scale := 1 + cfg.Ripple*math.Sin(tn.w*t+tn.phase) + tn.noise
				if scale < 0.05 {
					scale = 0.05
				}
				inst.Loads[k].PNom = s.Loads[k].PNom * scale
			}
			g.Append(inst)
		}
		out := lease.Results(g.Len())
		if err := evaluateChunk(m, g, out); err != nil {
			return Measurement{}, err
		}
		for i := range out {
			r := &out[i]
			sumPIn += r.PIn
			sumPNom += r.PNomTotal
			if r.PIn > peak {
				peak = r.PIn
			}
			steps++
		}
	}
	return Measurement{
		ETEE:    sumPNom / sumPIn,
		MeanPIn: sumPIn / float64(steps),
		PeakPIn: peak,
		Steps:   steps,
	}, nil
}

// evaluateChunk evaluates every snapshot of g into out, through m's kernel
// when it has one. An invalid snapshot fails with the error Evaluate
// returns for it.
func evaluateChunk(m pdn.Model, g *pdn.Grid, out []pdn.Result) error {
	gm, ok := m.(gridModel)
	if !ok {
		for i := range out {
			r, err := m.Evaluate(g.At(i))
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	}
	err := gm.EvaluateGrid(g, out)
	if inner := errors.Unwrap(err); inner != nil {
		// Strip pdn.GridPointError's index framing.
		return inner
	}
	return err
}

// Accuracy returns the validation accuracy of a predicted ETEE against a
// measured one, as the paper reports it: 1 − |predicted − measured| /
// measured.
func Accuracy(predicted, measured float64) float64 {
	return 1 - math.Abs(predicted-measured)/measured
}
