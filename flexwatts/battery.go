package flexwatts

import (
	"context"
	"slices"
)

// BatteryWorkload is a battery-life scenario described by its package
// power-state residencies (§5 Observation 3, §7.1): during each frame the
// platform cycles through an active burst (C0MIN), a shallow idle during
// which the display controller fetches from memory (C2), and a deep idle
// while the panel is driven from the display controller's local buffer
// (C8).
type BatteryWorkload struct {
	Name string `json:"name"`
	// Residency maps each package state to its fraction of execution time;
	// fractions sum to 1.
	Residency map[CState]float64 `json:"residency"`
}

// BatteryLifeWorkloads returns the four §7.1 battery-life scenarios —
// video playback, video conferencing, web browsing, light gaming — with
// their C0MIN residencies (10 %, 20 %, 30 %, 40 %); the video-playback
// split matches the §5 worked example (C0MIN 10 %, C2 5 %, C8 85 %).
func BatteryLifeWorkloads() []BatteryWorkload {
	iws := internalBatteryWorkloads()
	out := make([]BatteryWorkload, len(iws))
	for i, iw := range iws {
		out[i] = batteryWorkloadFromInternal(iw)
	}
	return out
}

// BatteryLifePower computes the average platform power the PDN named by k
// draws from the battery while running a battery-life workload, following
// the §5 formula P = Σ_s P_s·R_s/η_s over the workload's resident package
// states — the Fig 8(c) metric. Lower is better. The states are visited
// in ascending CState order, so the result has the same bits on every
// call, and of several states that fail to evaluate the lowest one's
// error is returned.
func (c *Client) BatteryLifePower(ctx context.Context, k Kind, w BatteryWorkload) (Watt, error) {
	if err := ctx.Err(); err != nil {
		return 0, context.Cause(ctx)
	}
	states := make([]CState, 0, len(w.Residency))
	for cs := range w.Residency {
		states = append(states, cs)
	}
	slices.Sort(states)
	var total Watt
	for _, cs := range states {
		res := w.Residency[cs]
		if res == 0 {
			continue
		}
		r, err := c.evaluate(k, Point{PDN: k, CState: cs})
		if err != nil {
			return 0, err
		}
		total += r.PNomTotal * Watt(res) / Watt(r.ETEE)
	}
	return total, nil
}
