// Package workload defines the workload suites the paper evaluates —
// SPEC CPU2006 (Fig 7), 3DMark06 graphics (Fig 8b), battery-life scenarios
// (Fig 8c) and the power-virus — together with the per-TDP nominal load
// tables used for the ETEE experiments (Fig 4/5) and a synthetic phase-trace
// generator standing in for the paper's ~5000 measured traces.
//
// A workload carries the two quantities PDNspot consumes (§2.4, §3.3): its
// application ratio AR (switching rate relative to the power virus) and its
// performance scalability (performance gained per unit frequency increase).
package workload

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// Type classifies a workload the way the FlexWatts mode predictor does
// (§6): by which domains it stresses.
type Type int

// Workload types distinguished by the PMU (§6, "Runtime Estimation").
const (
	SingleThread Type = iota
	MultiThread
	Graphics
	BatteryLife
)

// Types lists the workload classes of Fig 4.
func Types() []Type { return []Type{SingleThread, MultiThread, Graphics} }

// String names the type as in the paper's figures.
func (t Type) String() string {
	switch t {
	case SingleThread:
		return "Single-Thread"
	case MultiThread:
		return "Multi-Thread"
	case Graphics:
		return "Graphics"
	case BatteryLife:
		return "Battery-Life"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType resolves a workload type name as the figures spell it
// ("Single-Thread", "Multi-Thread", "Graphics", "Battery-Life"),
// case-insensitively and with the hyphen optional, so HTTP clients can
// write "multi-thread" or "MultiThread" alike. It allocates only its error.
func ParseType(s string) (Type, error) {
	for _, t := range []Type{SingleThread, MultiThread, Graphics, BatteryLife} {
		if EqualFoldHyphen(s, t.String()) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown type %q (have Single-Thread, Multi-Thread, Graphics, Battery-Life)", s)
}

// EqualFoldHyphen reports whether s and t are equal once every rune is
// mapped through unicode.ToLower and every hyphen dropped: the comparison
// of strings.ToLower(strings.ReplaceAll(x, "-", "")) for both, without
// building either string. It is narrower than strings.EqualFold, which
// also folds "ſ" to "s".
func EqualFoldHyphen(s, t string) bool {
	i, j := 0, 0
	for {
		for i < len(s) && s[i] == '-' {
			i++
		}
		for j < len(t) && t[j] == '-' {
			j++
		}
		if i == len(s) || j == len(t) {
			return i == len(s) && j == len(t)
		}
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(s[i:])
		}
		q, m := rune(t[j]), 1
		if q >= utf8.RuneSelf {
			q, m = utf8.DecodeRuneInString(t[j:])
		}
		if r != q && unicode.ToLower(r) != unicode.ToLower(q) {
			return false
		}
		i, j = i+n, j+m
	}
}

// Workload is one benchmark with its modeling inputs.
type Workload struct {
	Name string
	Type Type
	// AR is the application ratio of the dominant compute domain.
	AR float64
	// Scalability is the performance-scalability metric of §3.3: the
	// fractional performance improvement per fractional frequency increase
	// (1.0 = perfectly frequency-scalable, memory-bound workloads ≪ 1).
	Scalability float64
}

// Suite is an ordered set of workloads.
type Suite struct {
	Name      string
	Workloads []Workload
}

// Names returns the workload names in order.
func (s Suite) Names() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// MeanScalability returns the average performance scalability of the suite.
func (s Suite) MeanScalability() float64 {
	if len(s.Workloads) == 0 {
		return 0
	}
	var sum float64
	for _, w := range s.Workloads {
		sum += w.Scalability
	}
	return sum / float64(len(s.Workloads))
}

// SPECCPU2006 returns the 29 SPEC CPU2006 benchmarks in Fig 7's order
// (ascending average performance-scalability). The scalability assignments
// follow the published ordering — memory-bound codes (433.milc, 410.bwaves,
// 459.GemsFDTD, ...) scale poorly with frequency, compute-bound codes
// (456.hmmer, 416.gamess) scale almost perfectly — and the AR assignments
// give vectorized/compute-dense codes higher switching activity.
func SPECCPU2006() Suite {
	mk := func(name string, scal, ar float64) Workload {
		return Workload{Name: name, Type: SingleThread, AR: ar, Scalability: scal}
	}
	return Suite{
		Name: "SPEC CPU2006",
		Workloads: []Workload{
			mk("433.milc", 0.26, 0.47),
			mk("410.bwaves", 0.30, 0.52),
			mk("459.GemsFDTD", 0.33, 0.50),
			mk("450.soplex", 0.37, 0.46),
			mk("434.zeusmp", 0.41, 0.55),
			mk("437.leslie3d", 0.44, 0.54),
			mk("471.omnetpp", 0.47, 0.42),
			mk("429.mcf", 0.50, 0.40),
			mk("481.wrf", 0.55, 0.56),
			mk("403.gcc", 0.58, 0.48),
			mk("470.lbm", 0.61, 0.58),
			mk("436.cactusADM", 0.64, 0.57),
			mk("482.sphinx3", 0.68, 0.55),
			mk("462.libquantum", 0.71, 0.60),
			mk("447.dealII", 0.74, 0.58),
			mk("483.xalancbmk", 0.77, 0.50),
			mk("454.calculix", 0.80, 0.62),
			mk("473.astar", 0.82, 0.48),
			mk("435.gromacs", 0.85, 0.64),
			mk("401.bzip2", 0.87, 0.55),
			mk("465.tonto", 0.89, 0.62),
			mk("444.namd", 0.91, 0.66),
			mk("458.sjeng", 0.93, 0.58),
			mk("464.h264ref", 0.95, 0.68),
			mk("445.gobmk", 0.96, 0.56),
			mk("453.povray", 0.97, 0.65),
			mk("400.perlbench", 0.98, 0.60),
			mk("456.hmmer", 0.99, 0.70),
			mk("416.gamess", 1.00, 0.72),
		},
	}
}

// ThreeDMark06 returns the 3DMark06 graphics subtests (§7.1). Graphics
// workloads scale well with GFX frequency; their AR reflects shader
// occupancy.
func ThreeDMark06() Suite {
	mk := func(name string, scal, ar float64) Workload {
		return Workload{Name: name, Type: Graphics, AR: ar, Scalability: scal}
	}
	return Suite{
		Name: "3DMark06",
		Workloads: []Workload{
			mk("GT1 Return to Proxycon", 0.88, 0.62),
			mk("GT2 Firefly Forest", 0.90, 0.66),
			mk("HDR1 Canyon Flight", 0.93, 0.70),
			mk("HDR2 Deep Freeze", 0.95, 0.72),
		},
	}
}

// PowerVirus returns the synthetic maximum-power workload (AR = 1) used to
// size guardbands and Iccmax (§2.4).
func PowerVirus(t Type) Workload {
	return Workload{Name: "power-virus", Type: t, AR: 1, Scalability: 1}
}
