package flexwatts

// Params carries the PDN model constants of the paper's Table 2. The zero
// value is not usable; start from DefaultParams and tweak fields for
// design-space exploration (load-lines, tolerance bands, sharing
// penalties).
//
// The struct is field-for-field identical to the internal model's
// parameter block — the conversion in convert.go is a plain struct
// conversion, so the two can never drift without a compile error. All
// quantities are SI base units (volts, ohms, amperes, watts).
type Params struct {
	// PSU is the battery/PSU voltage feeding the motherboard VRs (7.2–20 V;
	// 7.2 V matches the measured curves of Fig 3). Every point a Client
	// evaluates, and every candidate Optimize scores, runs at this
	// voltage; Algorithm 1's firmware tables stay characterized at 7.2 V.
	PSU float64
	// VINLevel is the first-stage output in the IVR PDN (typically 1.8 V).
	VINLevel float64

	// Tolerance bands per PDN (Table 2: IVR 18–22 mV, MBVR 18–20 mV,
	// LDO 16–18 mV); the models use the mid-points.
	TOBIVR, TOBMBVR, TOBLDO float64

	// RPG is the power-gate impedance (Table 2: 1–2 mΩ).
	RPG float64

	// Load-line impedances (Table 2).
	IVRInLL float64 // IVR PDN: V_IN rail, 1 mΩ
	LDOInLL float64 // LDO PDN: V_IN rail, 1.25 mΩ
	CoresLL float64 // MBVR: V_Cores rail, 2.5 mΩ
	GfxLL   float64 // MBVR: V_GFX rail, 2.5 mΩ
	SALL    float64 // SA rail, 7 mΩ
	IOLL    float64 // IO rail, 4 mΩ

	// FlexSharePenalty scales FlexWatts' input load-line relative to the
	// PDN it mimics in each mode; the hybrid VR shares routing between its
	// IVR and LDO halves, so its load-line is slightly higher (§7.1).
	FlexSharePenalty float64

	// Iccmax design limits used when instantiating regulators.
	VINIccmax, CoresIccmax, GfxIccmax, SAIccmax, IOIccmax, IVRIccmax float64
}

// DefaultParams returns the Table 2 calibration.
func DefaultParams() Params { return paramsFromInternal(defaultInternalParams()) }
