package flexwatts_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/flexwatts"
)

var ctx = context.Background()

func newClient(t *testing.T) *flexwatts.Client {
	t.Helper()
	c, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestModeSelection(t *testing.T) {
	c := newClient(t)
	low, err := c.Evaluate(ctx, flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if low.Mode != flexwatts.LDOMode {
		t.Errorf("4W should select LDO-Mode, got %v", low.Mode)
	}
	if low.PDN != flexwatts.FlexWatts {
		t.Errorf("default PDN should be FlexWatts, got %v", low.PDN)
	}
	high, err := c.Evaluate(ctx, flexwatts.Point{TDP: 50, Workload: flexwatts.MultiThread, AR: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if high.Mode != flexwatts.IVRMode {
		t.Errorf("50W MT should select IVR-Mode, got %v", high.Mode)
	}
}

func TestBeatsIVRAtLowTDP(t *testing.T) {
	c := newClient(t)
	pt := flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6}
	ivr, err := c.EvaluateKind(ctx, flexwatts.IVR, pt)
	if err != nil {
		t.Fatal(err)
	}
	if ivr.Mode != flexwatts.ModeNone {
		t.Errorf("static PDN result carries mode %v", ivr.Mode)
	}
	flex, err := c.Evaluate(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !(flex.ETEE > ivr.ETEE+0.05) {
		t.Errorf("FlexWatts %.3f should beat IVR %.3f by >5%% at 4W", flex.ETEE, ivr.ETEE)
	}
}

func TestEvaluateModeForced(t *testing.T) {
	c := newClient(t)
	pt := flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6}
	ri, err := c.EvaluateMode(ctx, pt, flexwatts.IVRMode)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := c.EvaluateMode(ctx, pt, flexwatts.LDOMode)
	if err != nil {
		t.Fatal(err)
	}
	if !(rl.ETEE > ri.ETEE) {
		t.Error("forced-mode evaluation disagrees with mode selection at 4W")
	}
	if _, err := c.EvaluateMode(ctx, pt, flexwatts.ModeNone); err == nil {
		t.Error("ModeNone should not be evaluable")
	}
}

func TestCStatePoint(t *testing.T) {
	c := newClient(t)
	r, err := c.Evaluate(ctx, flexwatts.Point{CState: flexwatts.C8})
	if err != nil {
		t.Fatal(err)
	}
	if !(r.ETEE > 0.7) {
		t.Errorf("C8 ETEE %.3f implausible", r.ETEE)
	}
	if r.CState != flexwatts.C8 {
		t.Errorf("result cstate %v", r.CState)
	}
}

// mixedBatch covers all five PDN kinds at active points across the TDP,
// workload and AR axes and at every package idle state; its FlexWatts
// points span both hybrid modes.
func mixedBatch() []flexwatts.Point {
	var pts []flexwatts.Point
	for _, k := range append([]flexwatts.Kind{flexwatts.FlexWatts}, flexwatts.Kinds()...) {
		for _, tdp := range []flexwatts.Watt{4, 9, 18, 35, 50} {
			for _, wt := range flexwatts.WorkloadTypes() {
				for _, ar := range []float64{0.25, 0.6, 1} {
					pts = append(pts, flexwatts.Point{PDN: k, TDP: tdp, Workload: wt, AR: ar})
				}
			}
		}
		for _, cs := range flexwatts.CStates()[1:] {
			pts = append(pts, flexwatts.Point{PDN: k, CState: cs})
		}
	}
	return pts
}

// TestEvaluateBatchMatchesSerial pins the batch kernel pass against its
// oracle, per-point scalar Evaluate: every Result field bit for bit, over
// a mixed batch whose FlexWatts points land in both hybrid modes.
func TestEvaluateBatchMatchesSerial(t *testing.T) {
	c := newClient(t)
	pts := mixedBatch()
	batch, err := c.EvaluateBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(pts) {
		t.Fatalf("%d results for %d points", len(batch), len(pts))
	}
	modes := map[flexwatts.Mode]bool{}
	for i, pt := range pts {
		serial, err := c.Evaluate(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		if pt.PDN == flexwatts.FlexWatts {
			modes[serial.Mode] = true
		}
		// %v prints every float in its shortest round-trip form, so equal
		// renderings mean equal bits (signed zeros included).
		if got, want := fmt.Sprintf("%+v", batch[i]), fmt.Sprintf("%+v", serial); got != want {
			t.Errorf("point %d (%+v): batch %s != serial %s", i, pt, got, want)
		}
	}
	if !modes[flexwatts.IVRMode] || !modes[flexwatts.LDOMode] {
		t.Errorf("FlexWatts points predicted into modes %v, want both", modes)
	}
}

func TestEvaluateBatchReportsInvalidPoint(t *testing.T) {
	c, err := flexwatts.NewClient(flexwatts.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	good := flexwatts.Point{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 0.6}
	unset := flexwatts.Point{PDN: flexwatts.IVR, TDP: 18}
	for i, bad := range []flexwatts.Point{
		{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 7},
		unset,
		{PDN: flexwatts.IVR, CState: flexwatts.CState(42)},
		{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.WorkloadType(42), AR: 0.5},
	} {
		// bad sits at index i+1; the error names it, not the later one.
		pts := []flexwatts.Point{good, good, good, good, good, unset}
		pts[i+1] = bad
		_, err := c.EvaluateBatch(ctx, pts)
		if !errors.Is(err, flexwatts.ErrInvalidPoint) {
			t.Fatalf("%+v: err = %v, want ErrInvalidPoint", bad, err)
		}
		if want := fmt.Sprintf("point %d: ", i+1); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%+v: err %q, want it to name %q", bad, err, want)
		}
	}
}

// TestEvaluateBatchCancelled is the cancellation smoke: a batch submitted
// with an already-cancelled context must return promptly with
// context.Canceled, not evaluate 4096 points first.
func TestEvaluateBatchCancelled(t *testing.T) {
	c := newClient(t)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := make([]flexwatts.Point, 4096)
	for i := range pts {
		pts[i] = flexwatts.Point{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 0.6}
	}
	start := time.Now()
	_, err := c.EvaluateBatch(cctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled batch took %v", d)
	}
	if _, err := c.Evaluate(cctx, pts[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Evaluate on cancelled ctx: %v", err)
	}
}

func TestInvalidPoints(t *testing.T) {
	c := newClient(t)
	cases := map[string]flexwatts.Point{
		"no workload":        {TDP: 18},
		"bad ar":             {TDP: 18, Workload: flexwatts.MultiThread, AR: 1.5},
		"bad tdp":            {TDP: 900, Workload: flexwatts.MultiThread, AR: 0.5},
		"idle with workload": {CState: flexwatts.C6, Workload: flexwatts.MultiThread, AR: 0.6},
		// Unnamed enum values must not score as C0 or Multi-Thread.
		"unnamed cstate":    {PDN: flexwatts.IVR, CState: flexwatts.CState(42)},
		"negative cstate":   {PDN: flexwatts.IVR, CState: -1},
		"unnamed workload":  {PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.WorkloadType(42), AR: 0.5},
		"negative workload": {PDN: flexwatts.IVR, TDP: 18, Workload: -1, AR: 0.5},
	}
	for name, pt := range cases {
		if _, err := c.Evaluate(ctx, pt); !errors.Is(err, flexwatts.ErrInvalidPoint) {
			t.Errorf("%s: err = %v, want ErrInvalidPoint", name, err)
		}
	}
}

func TestWithOptions(t *testing.T) {
	p := flexwatts.DefaultParams()
	p.CoresLL *= 2
	c, err := flexwatts.NewClient(
		flexwatts.WithParams(p),
		flexwatts.WithWorkers(2),
		flexwatts.WithCache(false),
		flexwatts.WithPlatform(flexwatts.DefaultPlatform()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Params().CoresLL != p.CoresLL {
		t.Error("WithParams not applied")
	}
	base := newClient(t)
	pt := flexwatts.Point{PDN: flexwatts.MBVR, TDP: 50, Workload: flexwatts.MultiThread, AR: 0.6}
	r1, err := c.Evaluate(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := base.Evaluate(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if !(r1.ETEE < r0.ETEE) {
		t.Error("doubled load-line should reduce MBVR ETEE")
	}
}

func TestSimulateTrace(t *testing.T) {
	c := newClient(t)
	// A bursty multi-threaded trace with idle gaps, built from the public
	// vocabulary alone.
	tr := flexwatts.Trace{Name: "bursty"}
	for i := 0; i < 40; i++ {
		tr.Phases = append(tr.Phases,
			flexwatts.Phase{Duration: 0.01, Workload: flexwatts.MultiThread, AR: 0.3 + 0.5*float64(i%2)},
			flexwatts.Phase{Duration: 0.005, CState: flexwatts.C6},
		)
	}
	rep, err := c.SimulateTrace(flexwatts.FlexWatts, 18, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy <= 0 || rep.Duration <= 0 {
		t.Error("empty simulation report")
	}
	if rep.PDN != flexwatts.FlexWatts {
		t.Errorf("report PDN %v", rep.PDN)
	}
	stat, err := c.SimulateTrace(flexwatts.IVR, 18, tr, flexwatts.NewSensor(7))
	if err != nil {
		t.Fatal(err)
	}
	if stat.ModeSwitches != 0 || stat.ModeTime != nil {
		t.Errorf("static PDN reports hybrid state: %+v", stat)
	}
}

func TestVocabularyRoundTrips(t *testing.T) {
	for _, k := range flexwatts.AllKinds() {
		got, err := flexwatts.ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, wt := range flexwatts.WorkloadTypes() {
		got, err := flexwatts.ParseWorkloadType(wt.String())
		if err != nil || got != wt {
			t.Errorf("ParseWorkloadType(%q) = %v, %v", wt.String(), got, err)
		}
	}
	for _, c := range flexwatts.CStates() {
		got, err := flexwatts.ParseCState(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCState(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, m := range flexwatts.Modes() {
		got, err := flexwatts.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if w, err := flexwatts.ParseWatt("250mW"); err != nil || w != 0.25 {
		t.Errorf("ParseWatt = %v, %v", w, err)
	}
	if _, err := flexwatts.ParseKind("XVR"); err == nil {
		t.Error("ParseKind accepted junk")
	}
}

// parseWorkloadTypeReference is ParseWorkloadType as it was before it
// compared names in place, normalizing the input into a new string;
// frozen as the reference the allocation-free comparison must agree with.
func parseWorkloadTypeReference(s string) (flexwatts.WorkloadType, error) {
	norm := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), "-", ""))
	switch norm {
	case "":
		return flexwatts.WorkloadUnset, nil
	case "st", "singlethread":
		return flexwatts.SingleThread, nil
	case "mt", "multithread":
		return flexwatts.MultiThread, nil
	case "gfx", "graphics":
		return flexwatts.Graphics, nil
	case "batterylife":
		return flexwatts.BatteryLife, nil
	}
	return 0, fmt.Errorf("flexwatts: unknown workload type %q (have Single-Thread, Multi-Thread, Graphics, Battery-Life)", s)
}

// workloadTypeNames are spellings on both sides of ParseWorkloadType's
// accepted set.
var workloadTypeNames = []string{
	"Multi-Thread", "multi-thread", " MT ", "m-t", "GFX", "St", "-graphics-", "SİNGLE-THREAD",
	"ſingle-thread", "ſt", "Battery-Life", "", " ", "-", " - ", "mining", "multi thread",
	"graphics\xff", "\u212a", "\t\nGraphics\r", "\u00a0gfx", "gfx\u0085",
}

// TestParseWorkloadTypeMatchesReference pins ParseWorkloadType to its
// frozen reference, result and error text, and pins that it allocates
// nothing on success.
func TestParseWorkloadTypeMatchesReference(t *testing.T) {
	for _, s := range workloadTypeNames {
		got, err := flexwatts.ParseWorkloadType(s)
		want, wantErr := parseWorkloadTypeReference(s)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("ParseWorkloadType(%q) = %v, %v; reference %v, %v", s, got, err, want, wantErr)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := flexwatts.ParseWorkloadType("Multi-Thread"); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ParseWorkloadType: %.1f allocs, want 0", avg)
	}
}

// FuzzParseWorkloadType compares ParseWorkloadType with its frozen
// reference on any string.
func FuzzParseWorkloadType(f *testing.F) {
	for _, s := range workloadTypeNames {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := flexwatts.ParseWorkloadType(s)
		want, wantErr := parseWorkloadTypeReference(s)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParseWorkloadType(%q) = %v, %v; reference %v, %v", s, got, err, want, wantErr)
		}
	})
}

func TestPointJSONRoundTrip(t *testing.T) {
	pt := flexwatts.Point{PDN: flexwatts.LDO, TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6}
	b, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"pdn":"LDO","tdp":4,"workload":"Multi-Thread","ar":0.6}`
	if string(b) != want {
		t.Errorf("point JSON %s, want %s", b, want)
	}
	var back flexwatts.Point
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != pt {
		t.Errorf("round trip %+v != %+v", back, pt)
	}
	// Idle points omit the active fields and keep the wire vocabulary
	// case-insensitive.
	var idle flexwatts.Point
	if err := json.Unmarshal([]byte(`{"pdn":"ivr","cstate":"c6"}`), &idle); err != nil {
		t.Fatal(err)
	}
	if idle.PDN != flexwatts.IVR || idle.CState != flexwatts.C6 {
		t.Errorf("lenient parse %+v", idle)
	}
	b, err = json.Marshal(flexwatts.Point{PDN: flexwatts.IVR, CState: flexwatts.C6})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"pdn":"IVR","cstate":"C6"}` {
		t.Errorf("idle point JSON %s", b)
	}
}

func TestResultJSON(t *testing.T) {
	c := newClient(t)
	r, err := c.Evaluate(ctx, flexwatts.Point{TDP: 4, Workload: flexwatts.MultiThread, AR: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back flexwatts.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("result round trip %+v != %+v", back, r)
	}
	if back.Mode != flexwatts.LDOMode || back.Loss() <= 0 {
		t.Errorf("decoded result %+v", back)
	}
}

func TestSuites(t *testing.T) {
	spec := flexwatts.SPECCPU2006()
	if len(spec) != 29 || spec[0].Name != "433.milc" {
		t.Errorf("SPEC suite %d workloads, first %q", len(spec), spec[0].Name)
	}
	gfx := flexwatts.ThreeDMark06()
	if len(gfx) != 4 || gfx[0].Type != flexwatts.Graphics {
		t.Errorf("3DMark06 suite %+v", gfx)
	}
	pv := flexwatts.PowerVirus(flexwatts.MultiThread)
	if pv.AR != 1 || pv.Scalability != 1 {
		t.Errorf("power virus %+v", pv)
	}
}

func TestStandardTDPs(t *testing.T) {
	tdps := flexwatts.StandardTDPs()
	if len(tdps) < 5 || tdps[0] != 4 || tdps[len(tdps)-1] != 50 {
		t.Errorf("TDP grid %v", tdps)
	}
}

// TestBatteryLifePower pins the §5 worked example: video playback on a
// lossless PDN would draw ~0.5 W; real PDNs land above that, and the
// LDO-friendly PDNs beat IVR (the Fig 8(c) ordering).
func TestBatteryLifePower(t *testing.T) {
	c := newClient(t)
	bws := flexwatts.BatteryLifeWorkloads()
	if len(bws) != 4 || bws[0].Name != "Video Playback" {
		t.Fatalf("battery workloads %+v", bws)
	}
	var sum float64
	for _, res := range bws[0].Residency {
		sum += res
	}
	if !(sum > 0.999 && sum < 1.001) {
		t.Errorf("video playback residencies sum to %g", sum)
	}
	ivr, err := c.BatteryLifePower(ctx, flexwatts.IVR, bws[0])
	if err != nil {
		t.Fatal(err)
	}
	flex, err := c.BatteryLifePower(ctx, flexwatts.FlexWatts, bws[0])
	if err != nil {
		t.Fatal(err)
	}
	if !(ivr > 0.5 && ivr < 0.8) {
		t.Errorf("IVR video playback power %v implausible", ivr)
	}
	// FlexWatts (in LDO-Mode) cuts video playback power by ~11-12 % vs IVR.
	if !(float64(flex) < float64(ivr)*0.92) {
		t.Errorf("FlexWatts %v should undercut IVR %v by >8%%", flex, ivr)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.BatteryLifePower(cctx, flexwatts.IVR, bws[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: %v", err)
	}
}

// TestBatteryLifePowerDeterministic pins the order of the §5 sum: for every
// (workload, PDN) pair, repeated calls give one result, bit-equal to the
// sum over the resident states in ascending CState order (the order
// CStates lists them in).
func TestBatteryLifePowerDeterministic(t *testing.T) {
	c := newClient(t)
	for _, w := range flexwatts.BatteryLifeWorkloads() {
		for _, k := range flexwatts.AllKinds() {
			var want flexwatts.Watt
			for _, cs := range flexwatts.CStates() {
				res := w.Residency[cs]
				if res == 0 {
					continue
				}
				r, err := c.Evaluate(ctx, flexwatts.Point{PDN: k, CState: cs})
				if err != nil {
					t.Fatal(err)
				}
				want += r.PNomTotal * flexwatts.Watt(res) / flexwatts.Watt(r.ETEE)
			}
			for i := 0; i < 50; i++ {
				got, err := c.BatteryLifePower(ctx, k, w)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Fatalf("%s on %v, call %d: %v W, ascending-order sum %v W", w.Name, k, i, float64(got), float64(want))
				}
			}
		}
	}
	// Every key still reaches the evaluation: C0 is not an idle state and
	// CState(42) is no state at all, so a workload resident in either
	// fails on every call.
	for _, cs := range []flexwatts.CState{flexwatts.C0, flexwatts.CState(42)} {
		bad := flexwatts.BatteryWorkload{Name: "bad", Residency: map[flexwatts.CState]float64{
			cs: 0.25, flexwatts.C2: 0.25, flexwatts.C8: 0.5,
		}}
		for i := 0; i < 20; i++ {
			if _, err := c.BatteryLifePower(ctx, flexwatts.IVR, bad); !errors.Is(err, flexwatts.ErrInvalidPoint) {
				t.Fatalf("%v residency, call %d: error %v, want ErrInvalidPoint", cs, i, err)
			}
		}
	}
}

// TestAllocate drives the PBM loop through the public surface: a
// higher-ETEE PDN sustains a higher core clock from the same TDP (§3.3),
// and cTDP-down lowers the sustained clock.
func TestAllocate(t *testing.T) {
	c := newClient(t)
	ivr, err := c.Allocate(ctx, flexwatts.IVR, 10, flexwatts.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ldo, err := c.Allocate(ctx, flexwatts.LDO, 10, flexwatts.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !(ldo.ETEE > ivr.ETEE && ldo.CoreFreq >= ivr.CoreFreq) {
		t.Errorf("LDO alloc %+v should beat IVR alloc %+v at 10W", ldo, ivr)
	}
	if !(ivr.PIn <= 10 && ldo.PIn <= 10) {
		t.Errorf("allocations exceed the TDP: IVR %g, LDO %g", ivr.PIn, ldo.PIn)
	}
	down, err := c.Allocate(ctx, flexwatts.LDO, 4, flexwatts.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !(down.CoreFreq < ldo.CoreFreq) {
		t.Error("cTDP-down did not lower the sustained core clock")
	}
	if _, err := c.Allocate(ctx, flexwatts.LDO, 10, flexwatts.WorkloadUnset, 0.6); !errors.Is(err, flexwatts.ErrInvalidPoint) {
		t.Errorf("unset workload type: %v", err)
	}
	if _, err := c.Allocate(ctx, flexwatts.LDO, 10, flexwatts.MultiThread, 7); !errors.Is(err, flexwatts.ErrInvalidPoint) {
		t.Errorf("bad AR: %v", err)
	}
}

func TestTraceHelpers(t *testing.T) {
	st := flexwatts.SteadyTrace("steady", flexwatts.Graphics, 0.5, 2)
	if len(st.Phases) != 1 || st.Duration() != 2 || st.Phases[0].Workload != flexwatts.Graphics {
		t.Errorf("steady trace %+v", st)
	}
	bt := flexwatts.BatteryTrace(flexwatts.BatteryLifeWorkloads()[0], 3, 1.0/60)
	if len(bt.Phases) != 9 { // video playback has 3 resident states per frame
		t.Errorf("battery trace has %d phases, want 9", len(bt.Phases))
	}
	if d := bt.Duration(); !(d > 0.049 && d < 0.051) {
		t.Errorf("battery trace duration %g, want ~3 frames at 60Hz", d)
	}
	a := flexwatts.NewTraceGenerator(7).Mixed("m", flexwatts.MultiThread, 100, 0.3, 0.8, 0.25)
	b := flexwatts.NewTraceGenerator(7).Mixed("m", flexwatts.MultiThread, 100, 0.3, 0.8, 0.25)
	if len(a.Phases) != 100 {
		t.Fatalf("mixed trace has %d phases", len(a.Phases))
	}
	for i := range a.Phases {
		if a.Phases[i] != b.Phases[i] {
			t.Fatal("equal seeds produced different traces")
		}
	}
	idle := 0
	for _, ph := range a.Phases {
		if ph.CState != flexwatts.C0 {
			idle++
		}
	}
	if idle == 0 || idle == len(a.Phases) {
		t.Errorf("%d idle phases of %d", idle, len(a.Phases))
	}
}

// TestSimulateTraceRejectsInvalidPhases: a phase whose package state or
// workload class is not a named value, or an active phase without a
// workload class, must fail with ErrInvalidPoint rather than run as a
// Multi-Thread phase at C0.
func TestSimulateTraceRejectsInvalidPhases(t *testing.T) {
	c := newClient(t)
	for name, ph := range map[string]flexwatts.Phase{
		"unnamed cstate":      {Duration: 0.01, CState: flexwatts.CState(42), AR: 0.5},
		"unnamed workload":    {Duration: 0.01, Workload: flexwatts.WorkloadType(42), AR: 0.5},
		"active, no workload": {Duration: 0.01, AR: 0.5},
	} {
		tr := flexwatts.Trace{Name: name, Phases: []flexwatts.Phase{
			{Duration: 0.01, Workload: flexwatts.MultiThread, AR: 0.5}, ph,
		}}
		for _, k := range []flexwatts.Kind{flexwatts.FlexWatts, flexwatts.IVR} {
			if rep, err := c.SimulateTrace(k, 18, tr, nil); !errors.Is(err, flexwatts.ErrInvalidPoint) {
				t.Errorf("%s on %v: report %+v, err %v, want ErrInvalidPoint", name, k, rep, err)
			}
		}
	}
	// Idle phases may leave the workload unset or carry one.
	tr := flexwatts.Trace{Name: "idle", Phases: []flexwatts.Phase{
		{Duration: 0.01, CState: flexwatts.C8},
		{Duration: 0.01, CState: flexwatts.C0MIN, AR: 0.18},
		{Duration: 0.01, CState: flexwatts.C2, Workload: flexwatts.BatteryLife, AR: 0.18},
	}}
	if _, err := c.SimulateTrace(flexwatts.FlexWatts, 18, tr, nil); err != nil {
		t.Errorf("idle trace: %v", err)
	}
}

// TestRelativePerformanceRejectsUnnamedWorkloadType: a benchmark must name
// its workload class; an unset or unnamed one is not scored as
// Multi-Thread.
func TestRelativePerformanceRejectsUnnamedWorkloadType(t *testing.T) {
	c := newClient(t)
	kinds := []flexwatts.Kind{flexwatts.LDO, flexwatts.FlexWatts}
	for _, typ := range []flexwatts.WorkloadType{flexwatts.WorkloadUnset, flexwatts.WorkloadType(42)} {
		w := flexwatts.Workload{Name: "untyped", Type: typ, AR: 0.6, Scalability: 0.8}
		if res, err := c.RelativePerformance(ctx, 18, w, kinds); !errors.Is(err, flexwatts.ErrInvalidPoint) {
			t.Errorf("type %v: result %+v, err %v, want ErrInvalidPoint", typ, res, err)
		}
		suite := append(flexwatts.SPECCPU2006()[:2], w)
		if res, err := c.SuiteRelativePerformance(ctx, 18, suite, kinds); !errors.Is(err, flexwatts.ErrInvalidPoint) {
			t.Errorf("type %v in a suite: result %v, err %v, want ErrInvalidPoint", typ, res, err)
		}
	}
}
