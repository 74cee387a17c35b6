package workload

import (
	"slices"

	"repro/internal/domain"
	"repro/internal/units"
)

// BatteryWorkload is a battery-life scenario described by its package
// power-state residencies (§5 Observation 3, §7.1). During each frame the
// platform cycles through an active burst (C0MIN), a shallow idle during
// which the display controller fetches from memory (C2), and a deep idle
// while the panel is driven from the display controller's local buffer (C8).
type BatteryWorkload struct {
	Name string
	// Residency maps each package state to its fraction of execution time;
	// fractions sum to 1.
	Residency map[domain.CState]float64
}

// BatteryLifeWorkloads returns the four §7.1 battery-life scenarios with
// their C0MIN residencies (video playback 10 %, video conferencing 20 %,
// web browsing 30 %, light gaming 40 %); the video-playback split matches
// the §5 worked example (C0MIN 10 %, C2 5 %, C8 85 %).
func BatteryLifeWorkloads() []BatteryWorkload {
	return []BatteryWorkload{
		{
			Name: "Video Playback",
			Residency: map[domain.CState]float64{
				domain.C0MIN: 0.10, domain.C2: 0.05, domain.C8: 0.85,
			},
		},
		{
			Name: "Video Conf.",
			Residency: map[domain.CState]float64{
				domain.C0MIN: 0.20, domain.C2: 0.08, domain.C8: 0.72,
			},
		},
		{
			Name: "Web Browsing",
			Residency: map[domain.CState]float64{
				domain.C0MIN: 0.30, domain.C2: 0.10, domain.C8: 0.60,
			},
		},
		{
			Name: "Light Gaming",
			Residency: map[domain.CState]float64{
				domain.C0MIN: 0.40, domain.C2: 0.10, domain.C8: 0.50,
			},
		},
	}
}

// AveragePower computes the workload's average platform power drawn from
// the battery given a per-state ETEE evaluator, following the §5 formula
//
//	P = Σ_s P_s · R_s / η_s
//
// where P_s is the state's nominal power, R_s its residency and η_s the
// PDN's ETEE in that state. The nominal powers come from the platform's
// C-state scenario builder so they match the paper's 2.5 W / 1.2 W / 0.13 W
// video-playback example. The states are visited in ascending CState
// order, so the float sum has the same bits on every call.
func (w BatteryWorkload) AveragePower(plat *domain.Platform, etee func(domain.CState) float64) units.Watt {
	states := make([]domain.CState, 0, len(w.Residency))
	for c := range w.Residency {
		states = append(states, c)
	}
	slices.Sort(states)
	var avg units.Watt
	for _, c := range states {
		res := w.Residency[c]
		if res == 0 {
			continue
		}
		s := CStateScenario(plat, c)
		avg += s.TotalNominal() * res / etee(c)
	}
	return avg
}
