package flexwatts_test

import (
	"fmt"
	"math"
	"testing"

	"repro/flexwatts"
)

// FuzzEvaluateBatch drives the public Point → Result path with arbitrary
// two-point batches (any float for TDP and AR, any kind, workload and
// package state, plus one unknown kind). EvaluateBatch must fail exactly
// where a serial loop of Evaluate calls first fails, with the same error,
// or return finite results identical bit for bit to per-point Evaluate.
func FuzzEvaluateBatch(f *testing.F) {
	c, err := flexwatts.NewClient()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), 4.0, uint8(2), 0.6, uint8(0), uint8(1), 50.0, uint8(3), 1.0, uint8(0))
	f.Add(uint8(2), 18.0, uint8(1), 1e-9, uint8(0), uint8(0), 0.0, uint8(0), 0.0, uint8(4))
	f.Add(uint8(4), 25.0, uint8(3), 0.45, uint8(0), uint8(3), 9.0, uint8(2), 1e-49, uint8(0))
	f.Add(uint8(5), 18.0, uint8(2), 0.6, uint8(0), uint8(1), math.NaN(), uint8(2), 0.6, uint8(0))

	f.Fuzz(func(t *testing.T, k1 uint8, tdp1 float64, w1 uint8, ar1 float64, c1 uint8,
		k2 uint8, tdp2 float64, w2 uint8, ar2 float64, c2 uint8) {
		point := func(k uint8, tdp float64, w uint8, ar float64, cs uint8) flexwatts.Point {
			return flexwatts.Point{
				PDN:      flexwatts.Kind(k % 6), // 5 is no kind
				TDP:      flexwatts.Watt(tdp),
				Workload: flexwatts.WorkloadType(w % 5),
				AR:       ar,
				CState:   flexwatts.CStates()[int(cs)%len(flexwatts.CStates())],
			}
		}
		pts := []flexwatts.Point{point(k1, tdp1, w1, ar1, c1), point(k2, tdp2, w2, ar2, c2)}
		got, err := c.EvaluateBatch(ctx, pts)
		want := make([]flexwatts.Result, len(pts))
		for i, pt := range pts {
			var werr error
			if want[i], werr = c.Evaluate(ctx, pt); werr != nil {
				if wantErr := fmt.Sprintf("point %d: %v", i, werr); err == nil || err.Error() != wantErr {
					t.Fatalf("batch error %v, want %s", err, wantErr)
				}
				return
			}
		}
		if err != nil {
			t.Fatalf("batch failed (%v) but every point evaluates serially", err)
		}
		for i, w := range want {
			for _, v := range []float64{w.ETEE, float64(w.PIn), float64(w.PNomTotal), w.ChipInputCurrent} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("point %d (%+v): non-finite result %+v", i, pts[i], w)
				}
			}
			// %v prints every float in its shortest round-trip form, so
			// equal renderings mean equal bits.
			if gs, ws := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", w); gs != ws {
				t.Fatalf("point %d (%+v): batch %s, serial %s", i, pts[i], gs, ws)
			}
		}
	})
}
