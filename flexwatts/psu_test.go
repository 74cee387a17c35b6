package flexwatts_test

import (
	"fmt"
	"math"
	"testing"

	"repro/flexwatts"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// TestWithParamsPSU pins that a client evaluates at its Params.PSU: a
// 12 V client's Evaluate and EvaluateBatch results equal the internal
// model's on the same scenario at 12 V, bit for bit, and differ from the
// default 7.2 V client's.
func TestWithParamsPSU(t *testing.T) {
	p := flexwatts.DefaultParams()
	p.PSU = 12
	c12, err := flexwatts.NewClient(flexwatts.WithParams(p))
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(t)
	ip := pdn.Params(p)
	plat := domain.NewClientPlatform()

	type pointCase struct {
		pt   flexwatts.Point
		kind pdn.Kind
		s    pdn.Scenario
	}
	var cases []pointCase
	kinds := map[flexwatts.Kind]pdn.Kind{
		flexwatts.IVR: pdn.IVR, flexwatts.MBVR: pdn.MBVR, flexwatts.LDO: pdn.LDO, flexwatts.IMBVR: pdn.IMBVR,
	}
	for pk, ik := range kinds {
		s, err := workload.TDPScenario(plat, 18, workload.MultiThread, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			pointCase{flexwatts.Point{PDN: pk, TDP: 18, Workload: flexwatts.MultiThread, AR: 0.6}, ik, s},
			pointCase{flexwatts.Point{PDN: pk, CState: flexwatts.C6}, ik, workload.CStateScenario(plat, domain.C6)})
	}
	pts := make([]flexwatts.Point, len(cases))
	for i, pc := range cases {
		pts[i] = pc.pt
	}
	batch, err := c12.EvaluateBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range cases {
		m, err := pdn.New(pc.kind, ip)
		if err != nil {
			t.Fatal(err)
		}
		pc.s.PSU = 12
		want, err := m.Evaluate(pc.s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c12.Evaluate(ctx, pc.pt)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]flexwatts.Result{"Evaluate": got, "EvaluateBatch": batch[i]} {
			if math.Float64bits(float64(r.PIn)) != math.Float64bits(want.PIn) ||
				math.Float64bits(r.ETEE) != math.Float64bits(want.ETEE) ||
				math.Float64bits(r.ChipInputCurrent) != math.Float64bits(want.ChipInputCurrent) {
				t.Errorf("%+v %s at 12 V: PIn %v ETEE %v, internal model %v %v", pc.pt, name, r.PIn, r.ETEE, want.PIn, want.ETEE)
			}
		}
		def, err := c.Evaluate(ctx, pc.pt)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(def) == fmt.Sprint(got) {
			t.Errorf("%+v: the 12 V client returned the 7.2 V result %+v", pc.pt, def)
		}
	}
}
