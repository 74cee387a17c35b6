package pdn

import (
	"math"
	"testing"

	"repro/internal/domain"
	"repro/internal/units"
	"repro/internal/vr"
)

func computeLoads(p units.Watt, v units.Volt, ar float64) []Load {
	return []Load{
		{PNom: p / 2, VNom: v, FL: 0.22, AR: ar},
		{PNom: p / 2, VNom: v, FL: 0.22, AR: ar},
		{PNom: p / 6, VNom: v, FL: 0.22, AR: ar},
		{}, // idle
	}
}

func TestIVRStage(t *testing.T) {
	ivr := vr.NewIVR("ivr", 45)
	loads := computeLoads(6, 0.8, 0.6)
	out := ivrStage(loads, ivr, units.MilliVolt(20), 1.8, domain.C0)
	var pnom units.Watt
	for _, l := range loads {
		pnom += l.PNom
	}
	if !(out.PIn > pnom) {
		t.Errorf("stage input %g must exceed nominal %g", out.PIn, pnom)
	}
	if out.Breakdown.OnChipVR <= 0 || out.Breakdown.Guardband <= 0 {
		t.Error("stage must report guardband and VR losses")
	}
	// Uniform per-load AR propagates as the group AR.
	if math.Abs(out.AR-0.6) > 1e-9 {
		t.Errorf("group AR %g, want 0.6", out.AR)
	}
	// No active loads: zero stage.
	empty := ivrStage([]Load{{}}, ivr, units.MilliVolt(20), 1.8, domain.C0)
	if empty.PIn != 0 || empty.AR != 1 {
		t.Errorf("empty stage: %+v", empty)
	}
}

func TestLDOStageBypass(t *testing.T) {
	ldo := vr.NewPlatformLDO("ldo", 45)
	// All compute domains at the same voltage: everything runs in bypass,
	// so the on-chip loss is only the tolerance band + bypass drop.
	loads := computeLoads(6, 0.8, 0.6)
	vin, out := ldoStage(loads, ldo, units.MilliVolt(17))
	if math.Abs(vin-(0.8+0.017)) > 1e-9 {
		t.Errorf("rail voltage %g, want 0.817", vin)
	}
	var pnom units.Watt
	for _, l := range loads {
		pnom += l.PNom
	}
	if out.Breakdown.OnChipVR > 0.02*pnom {
		t.Errorf("bypass mode should have tiny on-chip loss, got %g on %g", out.Breakdown.OnChipVR, pnom)
	}
}

func TestLDOStageRegulation(t *testing.T) {
	ldo := vr.NewPlatformLDO("ldo", 45)
	// Cores at 0.55V under a 1.0V GFX rail: the cores pay ~45% conversion
	// loss through their LDO (§5 Observation 2's mechanism).
	loads := []Load{
		{PNom: 2, VNom: 0.55, FL: 0.22, AR: 0.6},
		{PNom: 5, VNom: 1.0, FL: 0.45, AR: 0.6},
	}
	vin, out := ldoStage(loads, ldo, units.MilliVolt(17))
	if vin < 1.0 {
		t.Errorf("rail must follow the max domain voltage, got %g", vin)
	}
	// Cores' LDO loss ≈ 2W * (1 - 0.55/1.017/0.991) ≈ 0.9W.
	if out.Breakdown.OnChipVR < 0.6 {
		t.Errorf("voltage-split LDO loss %g too small", out.Breakdown.OnChipVR)
	}
	// Empty stage.
	vin, empty := ldoStage([]Load{{}}, ldo, units.MilliVolt(17))
	if vin != 0 || empty.PIn != 0 {
		t.Error("empty LDO stage should be zero")
	}
}

func TestVinRailAttribution(t *testing.T) {
	b := vr.NewVinVR(45)
	st := stageOut{PIn: 10, AR: 0.5}
	out := vinRail(b, st, 1.8, units.MilliOhm(1), 7.2, domain.C0, 0.7)
	if out.PIn <= st.PIn {
		t.Error("rail must add loss")
	}
	// The conduction loss splits 70/30 between compute and uncore.
	total := out.Breakdown.CondCompute + out.Breakdown.CondUncore
	if total <= 0 {
		t.Fatal("no conduction loss")
	}
	if math.Abs(out.Breakdown.CondCompute/total-0.7) > 1e-9 {
		t.Errorf("compute share %.2f, want 0.70", out.Breakdown.CondCompute/total)
	}
	if out.Rail.Name != "V_IN" || out.Rail.Current <= 0 || out.Rail.Peak <= out.Rail.Current {
		t.Errorf("rail draw %+v", out.Rail)
	}
	// Zero stage passes through as zero.
	zero := vinRail(b, stageOut{}, 1.8, units.MilliOhm(1), 7.2, domain.C0, 1)
	if zero.PIn != 0 {
		t.Error("zero stage should draw nothing")
	}
}

func TestBoardRailSharingOvervolt(t *testing.T) {
	b := vr.NewBoardVR("V_GFX", 55)
	tob := units.MilliVolt(19)
	rpg := units.MilliOhm(1.5)
	rll := units.MilliOhm(2.5)
	// A lone 0.9V load...
	alone := boardRail(b, []Load{
		{PNom: 5, VNom: 0.9, FL: 0.45, AR: 0.6},
	}, tob, rpg, rll, 7.2, domain.C0, true)
	// ...versus sharing the rail with a 1.1V domain: the 0.9V load gets
	// over-volted and the rail draws strictly more than the sum of parts.
	shared := boardRail(b, []Load{
		{PNom: 5, VNom: 0.9, FL: 0.45, AR: 0.6},
		{PNom: 1, VNom: 1.1, FL: 0.22, AR: 0.6},
	}, tob, rpg, rll, 7.2, domain.C0, true)
	llcAlone := boardRail(b, []Load{
		{PNom: 1, VNom: 1.1, FL: 0.22, AR: 0.6},
	}, tob, rpg, rll, 7.2, domain.C0, true)
	if !(shared.PIn > alone.PIn+llcAlone.PIn-0.3) { // fixed losses amortize; overvolt dominates
		t.Errorf("sharing with a higher-voltage domain should cost: %.2f vs %.2f+%.2f",
			shared.PIn, alone.PIn, llcAlone.PIn)
	}
	if shared.Rail.VOut <= 1.1 {
		t.Errorf("shared rail voltage %.3f should sit above the max domain voltage", shared.Rail.VOut)
	}
	// Empty rail.
	empty := boardRail(b, []Load{{}}, tob, rpg, rll, 7.2, domain.C0, false)
	if empty.PIn != 0 {
		t.Error("empty rail should draw nothing")
	}
}
