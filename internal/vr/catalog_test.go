package vr

import (
	"testing"

	"repro/internal/units"
)

// These tests pin the calibration promises made in catalog.go for each
// concrete part.

func TestVinVRNamedCorrectly(t *testing.T) {
	if got := NewVinVR(45).Name(); got != "V_IN" {
		t.Errorf("name %q", got)
	}
	if got := NewBoardVR("V_Cores", 60).Name(); got != "V_Cores" {
		t.Errorf("name %q", got)
	}
}

func TestSmallRailEfficientAtLightLoad(t *testing.T) {
	// The SA/IO rails exist because they are efficient at sub-ampere
	// loads where a big board VR would waste its fixed losses.
	small := NewSmallRailVR("V_SA", 6)
	big := NewBoardVR("V_Cores", 60)
	op := OperatingPoint{Vin: 7.2, Vout: 0.85, Iout: 0.9, State: PS0}
	if !(small.Efficiency(op) > big.Efficiency(op)) {
		t.Errorf("small rail %.3f should beat big rail %.3f at 0.9A",
			small.Efficiency(op), big.Efficiency(op))
	}
}

func TestIVRLowFixedLossShare(t *testing.T) {
	// The IVR's fixed losses matter at light load: at 0.5A its efficiency
	// must still be usable in PS1 (the C0MIN regime).
	ivr := NewIVR("ivr", 45)
	eta := ivr.Efficiency(OperatingPoint{Vin: 1.8, Vout: 0.6, Iout: 0.5, State: PS1})
	if eta < 0.55 {
		t.Errorf("IVR PS1 light-load efficiency %.3f too low", eta)
	}
}

func TestLDOBetterThanIVRNearUnityRatio(t *testing.T) {
	// §2.2: an LDO beats an SVR when input and output voltages are close.
	ldo := NewPlatformLDO("ldo", 45)
	ivr := NewIVR("ivr", 45)
	op := OperatingPoint{Vin: 1.0, Vout: 0.9, Iout: 10, State: PS0}
	if !(ldo.Efficiency(op) > ivr.Efficiency(op)) {
		t.Errorf("LDO %.3f should beat IVR %.3f at 1.0V->0.9V",
			ldo.Efficiency(op), ivr.Efficiency(op))
	}
	// ...and loses badly on a large ratio.
	opBig := OperatingPoint{Vin: 1.0, Vout: 0.5, Iout: 10, State: PS0}
	if !(ivr.Efficiency(opBig) > ldo.Efficiency(opBig)) {
		t.Errorf("IVR %.3f should beat LDO %.3f at 1.0V->0.5V",
			ivr.Efficiency(opBig), ldo.Efficiency(opBig))
	}
}

func TestVoutOrderingAtModerateLoad(t *testing.T) {
	// Fig 3: at a given current, higher output voltage converts more
	// efficiently (same loss amortized over more power).
	b := NewVinVR(45)
	prev := 0.0
	for _, vout := range []units.Volt{0.6, 0.7, 1.0, 1.8} {
		eta := b.Efficiency(OperatingPoint{Vin: 7.2, Vout: vout, Iout: 3, State: PS0})
		if eta <= prev {
			t.Errorf("Vout %.1f: eta %.3f not above lower-voltage curve", vout, eta)
		}
		prev = eta
	}
}

func TestIccmaxPropagates(t *testing.T) {
	if NewVinVR(45).Params().Iccmax != 45 {
		t.Error("VIN Iccmax")
	}
	if NewSmallRailVR("x", 6).Params().Iccmax != 6 {
		t.Error("small rail Iccmax")
	}
	if NewPlatformLDO("x", 40).Params().Iccmax != 40 {
		t.Error("LDO Iccmax")
	}
}
