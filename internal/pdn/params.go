package pdn

import "repro/internal/units"

// Params carries the PDN model constants of Table 2. The zero value is not
// usable; start from DefaultParams.
type Params struct {
	// PSU is the battery/PSU voltage feeding the motherboard VRs (7.2–20 V;
	// 7.2 V matches the measured curves of Fig 3). Each scenario carries its
	// own supply voltage (Scenario.PSU); the models compile their board VRs
	// at this one when built, and a scenario at another voltage compiles
	// the one VR power state it needs per evaluation.
	PSU units.Volt
	// VINLevel is the first-stage output in the IVR PDN (typically 1.8 V).
	VINLevel units.Volt

	// Tolerance bands per PDN (Table 2: IVR 18–22 mV, MBVR 18–20 mV,
	// LDO 16–18 mV); the models use the mid-points.
	TOBIVR, TOBMBVR, TOBLDO units.Volt

	// RPG is the power-gate impedance (Table 2: 1–2 mΩ).
	RPG units.Ohm

	// Load-line impedances (Table 2).
	IVRInLL units.Ohm // IVR PDN: V_IN rail, 1 mΩ
	LDOInLL units.Ohm // LDO PDN: V_IN rail, 1.25 mΩ
	CoresLL units.Ohm // MBVR: V_Cores rail, 2.5 mΩ
	GfxLL   units.Ohm // MBVR: V_GFX rail, 2.5 mΩ
	SALL    units.Ohm // SA rail, 7 mΩ
	IOLL    units.Ohm // IO rail, 4 mΩ

	// FlexSharePenalty scales FlexWatts' input load-line relative to the
	// PDN it mimics in each mode; the hybrid VR shares routing between its
	// IVR and LDO halves, so its load-line is slightly higher (§7.1: "less
	// than 1% performance degradation ... due to FlexWatts's higher
	// load-line").
	FlexSharePenalty float64

	// Iccmax design limits used when instantiating regulators.
	VINIccmax, CoresIccmax, GfxIccmax, SAIccmax, IOIccmax, IVRIccmax units.Amp
}

// DefaultParams returns the Table 2 calibration.
func DefaultParams() Params {
	return Params{
		PSU:      7.2,
		VINLevel: 1.8,

		TOBIVR:  units.MilliVolt(20),
		TOBMBVR: units.MilliVolt(19),
		TOBLDO:  units.MilliVolt(17),

		RPG: units.MilliOhm(1.5),

		IVRInLL: units.MilliOhm(1.0),
		LDOInLL: units.MilliOhm(1.25),
		CoresLL: units.MilliOhm(2.5),
		GfxLL:   units.MilliOhm(2.5),
		SALL:    units.MilliOhm(7),
		IOLL:    units.MilliOhm(4),

		FlexSharePenalty: 1.10,

		VINIccmax:   45,
		CoresIccmax: 60,
		GfxIccmax:   55,
		SAIccmax:    6,
		IOIccmax:    4,
		IVRIccmax:   45,
	}
}
