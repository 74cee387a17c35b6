package pdn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/units"
)

// outcome runs one evaluation and returns its result and error text, or
// panicked set with the panic's message.
func outcome(f func() (Result, error)) (r Result, msg string, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			r, msg, panicked = Result{}, fmt.Sprint(p), true
		}
	}()
	r, err := f()
	if err != nil {
		return Result{}, err.Error(), false
	}
	return r, "", false
}

// checkOracle evaluates s on m through Evaluate and through a two-point
// EvaluateGrid of s twice (the second point takes the memo-hit path), and
// requires both to match the oracle bit for bit, error text included.
// Finite values that overflow the loss model (a subnormal voltage, a power
// near MaxFloat64) pass validation and then panic in its unit checks; there
// the kernel must panic too, though the first failing check may differ, as
// the board-rail kernel guardbands every load before its power gates.
func checkOracle(t *testing.T, nm namedGridModel, s Scenario) {
	t.Helper()
	want, wantMsg, wantPanic := outcome(func() (Result, error) { return oracleEvaluate(nm.m, s) })
	got, gotMsg, gotPanic := outcome(func() (Result, error) { return nm.m.Evaluate(s) })
	out := make([]Result, 2)
	_, gridMsg, gridPanic := outcome(func() (Result, error) { return Result{}, nm.m.EvaluateGrid(GridOf([]Scenario{s, s}), out) })
	switch {
	case wantPanic:
		if !gotPanic || !gridPanic {
			t.Fatalf("%s on %+v: oracle panicked (%s), Evaluate %q, EvaluateGrid %q", nm.name, s, wantMsg, gotMsg, gridMsg)
		}
	case gotPanic || gotMsg != wantMsg || !sameBits(got, want):
		t.Fatalf("%s Evaluate(%+v)\n got:    %+v %q\n oracle: %+v %q", nm.name, s, got, gotMsg, want, wantMsg)
	case wantMsg == "":
		if gridMsg != "" || gridPanic || !sameBits(out[0], want) || !sameBits(out[1], want) {
			t.Fatalf("%s EvaluateGrid(%+v) = %q\n got:    %+v\n        %+v\n oracle: %+v", nm.name, s, gridMsg, out[0], out[1], want)
		}
	default:
		if want := GridPointError(0, errors.New(wantMsg)).Error(); gridPanic || gridMsg != want {
			t.Fatalf("%s EvaluateGrid(%+v) = %q, want %q", nm.name, s, gridMsg, want)
		}
	}
}

// randomScenario draws a scenario from plausible ranges: each domain idle
// with probability 1/4, any package state, PSU 7.2, 12 or 19.5 V.
func randomScenario(rng *rand.Rand) Scenario {
	s := NewScenario()
	for k := range s.Loads {
		if rng.Intn(4) == 0 {
			continue
		}
		s.Loads[k] = Load{
			PNom: units.Watt(0.02 + 20*rng.Float64()*rng.Float64()),
			VNom: units.Volt(0.5 + 0.65*rng.Float64()),
			FL:   0.2 + 0.3*rng.Float64(),
			AR:   0.05 + 0.95*rng.Float64(),
		}
	}
	s.CState = domain.CStates()[rng.Intn(len(domain.CStates()))]
	s.PSU = []units.Volt{7.2, 12, 19.5}[rng.Intn(3)]
	return s
}

// TestKernelMatchesOracle pins every kernel to the frozen scalar oracle on
// seeded random scenarios, under the real and the kernel-test parameters:
// per point through Evaluate and the memo-hit grid path, and as grids in
// runs where only the application ratios change, so the stage and rail
// memos replay across points.
func TestKernelMatchesOracle(t *testing.T) {
	for _, p := range []Params{DefaultParams(), gridTestParams()} {
		rng := rand.New(rand.NewSource(7))
		var points []Scenario
		for len(points) < 1000 {
			s := randomScenario(rng)
			points = append(points, s)
			for run := rng.Intn(4); run > 0; run-- {
				for k := range s.Loads {
					s.Loads[k].AR = 0.05 + 0.95*rng.Float64()
				}
				points = append(points, s)
			}
		}
		g := GridOf(points)
		out := make([]Result, g.Len())
		for _, nm := range gridTestModels(t, p) {
			for _, s := range points {
				checkOracle(t, nm, s)
			}
			for _, c := range invalidScenarios(points[0]) {
				checkOracle(t, nm, c.s)
			}
			if err := nm.m.EvaluateGrid(g, out); err != nil {
				t.Fatalf("%s EvaluateGrid: %v", nm.name, err)
			}
			for i, s := range points {
				if want, _ := oracleEvaluate(nm.m, s); !sameBits(out[i], want) {
					t.Fatalf("%s grid point %d differs from the oracle\n grid:   %+v\n oracle: %+v", nm.name, i, out[i], want)
				}
			}
		}
	}
}

// fuzzScenarioBytes is the encoded size of a scenario: every load field,
// then the PSU voltage, as little-endian float64 bits, then the package
// state as a signed byte.
const fuzzScenarioBytes = (4*int(domain.NumKinds)+1)*8 + 1

// encodeScenario is the inverse of decodeScenario.
func encodeScenario(s Scenario) []byte {
	b := make([]byte, 0, fuzzScenarioBytes)
	for _, l := range s.Loads {
		for _, v := range []float64{l.PNom, l.VNom, l.FL, l.AR} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.PSU))
	return append(b, byte(int8(s.CState)))
}

// decodeScenario reads any bytes as a scenario: every field takes
// arbitrary float64 bits, and missing trailing bytes read as zero.
func decodeScenario(data []byte) Scenario {
	var buf [fuzzScenarioBytes]byte
	copy(buf[:], data)
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])) }
	var s Scenario
	for k := range s.Loads {
		s.Loads[k] = Load{PNom: f(4 * k), VNom: f(4*k + 1), FL: f(4*k + 2), AR: f(4*k + 3)}
	}
	s.PSU = f(4 * int(domain.NumKinds))
	s.CState = domain.CState(int8(buf[fuzzScenarioBytes-1]))
	return s
}

// FuzzEvaluateOracle checks the kernels against the frozen scalar oracle on
// arbitrary scenarios — any float bits in every load field and the PSU
// voltage, any package state — for all six models under the real and the
// kernel-test parameters: Evaluate and a two-point EvaluateGrid must match
// the oracle field for field, with the same error text (see checkOracle).
func FuzzEvaluateOracle(f *testing.F) {
	for _, s := range gridTestScenarios() {
		f.Add(encodeScenario(s))
	}
	for _, c := range invalidScenarios(gridTestScenarios()[0]) {
		f.Add(encodeScenario(c.s))
	}
	models := append(gridTestModels(f, DefaultParams()), gridTestModels(f, gridTestParams())...)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeScenario(data)
		for _, nm := range models {
			checkOracle(t, nm, s)
		}
	})
}

// TestScenarioCodec pins the fuzz codec's round trip, so the seed corpus
// decodes to the scenarios it was built from.
func TestScenarioCodec(t *testing.T) {
	for i, s := range gridTestScenarios() {
		if got := decodeScenario(encodeScenario(s)); got != s {
			t.Errorf("scenario %d: round trip %+v, want %+v", i, got, s)
		}
	}
}
