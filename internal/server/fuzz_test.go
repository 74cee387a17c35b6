package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/flexwatts/api"
	"repro/internal/experiments"
)

// FuzzEvaluateRequest throws arbitrary bytes at the evaluate request
// decoder — the daemon's main untrusted input surface — and pins that it
// always terminates in one of two states: validated jobs, or a written
// 4xx error envelope. No input may panic, and no failure may leave the
// response unwritten (a hung client).
//
// A body the decoder accepts is then served by the full handler — the
// kernel pass and the encode — which must answer 200 with one result per
// point or a 4xx error envelope (422 for a point that fails to evaluate).
// A 5xx fails the target: a recovered panic answers 500, and so does a
// NaN result, which JSON cannot encode.
func FuzzEvaluateRequest(f *testing.F) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		f.Fatal(envErr)
	}
	s := New(envVal, Options{})
	h := s.Handler()

	f.Add([]byte(`{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]}`))
	f.Add([]byte(`{"points":[{"pdn":"FlexWatts","tdp":4,"workload":"single-thread","ar":0.5}]}`))
	f.Add([]byte(`{"points":[{"pdn":"LDO","cstate":"C6"}]}`))
	f.Add([]byte(`{"points":[{"pdn":"FlexWatts","tdp":50,"workload":"graphics","ar":1},{"pdn":"I+MBVR","tdp":4,"workload":"multi-thread","ar":1e-9},{"pdn":"MBVR","cstate":"C0MIN"}]}`))
	f.Add([]byte(`{"points":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"points":[{"pdn":"IVR","tdp":-1e308,"workload":"multi-thread","ar":2}]}`))
	f.Add([]byte(`{"points":[{"pdn":"MBVR","tdp":14,"workload":"single-thread","ar":1e-49}]}`))
	f.Add([]byte(`{"pts":"nope"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		req, ok := s.decodeEvalRequest(w, r)
		if !ok {
			if w.Body.Len() == 0 {
				t.Fatal("rejected without writing an error envelope")
			}
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("rejection status %d, want 4xx", w.Code)
			}
			return
		}
		jobs := len(req.jobs)
		req.release()
		if jobs == 0 {
			t.Fatal("ok with zero jobs")
		}
		if w.Body.Len() != 0 {
			t.Fatalf("ok but response written: %s", w.Body.String())
		}

		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body)))
		if w.Code == http.StatusOK {
			var resp api.EvalResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not an evaluate response: %v", err)
			}
			if len(resp.Results) != jobs {
				t.Fatalf("%d results for %d accepted points", len(resp.Results), jobs)
			}
			return
		}
		var e api.Error
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Code == "" {
			t.Fatalf("status %d without the error envelope: %s", w.Code, w.Body.String())
		}
		if w.Code < 400 || w.Code >= 500 {
			t.Fatalf("served status %d (%s), want 200 or 4xx", w.Code, w.Body.String())
		}
	})
}

// FuzzOptimizeRequest serves arbitrary bodies on /v1/optimize, the other
// untrusted request the daemon parses, each under a 100 ms request
// deadline so a large search is cancelled rather than run out. Every
// answer must be one of three: a 4xx error envelope; a 200 whose frontier
// is sorted by key, with finite scores and no more candidates evaluated
// than the space holds; or an empty body, and only once the deadline has
// cancelled the search. A 5xx or a panic fails the target.
func FuzzOptimizeRequest(f *testing.F) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		f.Fatal(envErr)
	}
	h := New(envVal, Options{}).Handler()

	const small = `"tdp":18,"loadline_scales":[1],"guardband_scales":[1]`
	f.Add([]byte(`{` + small + `,"seed":1}`))
	f.Add([]byte(`{"tdp":15,"pdns":["IVR","MBVR"],"loadline_scales":[0.9,1],"guardband_scales":[1,1.25]}`))
	f.Add([]byte(`{"tdp":1e308}`))
	for _, field := range []string{"seed", "budget", "chains", "max_cost", "max_area", "max_battery_power", "min_performance"} {
		f.Add([]byte(fmt.Sprintf(`{%s,%q:1e308}`, small, field)))
	}
	for _, scale := range []string{"1e308", "5e-324", "0.05", "10.5", "-1"} {
		for _, axis := range []string{"loadline_scales", "guardband_scales", "vr_scales"} {
			f.Add([]byte(fmt.Sprintf(`{"tdp":18,%q:[%s]}`, axis, scale)))
		}
	}
	// A 6,859-candidate anneal with a huge budget and chain count: the
	// deadline cancels it.
	var scales []string
	for i := 0; i < 19; i++ {
		scales = append(scales, fmt.Sprint(0.5+0.05*float64(i)))
	}
	nineteen := "[" + strings.Join(scales, ",") + "]"
	f.Add([]byte(fmt.Sprintf(`{"tdp":18,"pdns":["FlexWatts"],"loadline_scales":%[1]s,"guardband_scales":%[1]s,"vr_scales":%[1]s,"strategy":"anneal","budget":1000000000,"chains":1000000000,"seed":7}`, nineteen)))
	f.Add([]byte(`{"tdp":18,"pdns":["IVR","IVR"]}`))
	f.Add([]byte(`{"tdp":18,"objectives":["speed"]}`))
	f.Add([]byte(`{"tdp":18,"strategy":"greedy"}`))
	f.Add([]byte(`{"tdp":18,"pdns":["IV`))
	f.Add([]byte(`{"tdp":18,"bogus":1}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, api.PathOptimize, bytes.NewReader(body)).WithContext(ctx))
		switch {
		case w.Code == http.StatusOK && w.Body.Len() == 0:
			if ctx.Err() == nil {
				t.Fatal("empty 200 body, but the deadline has not passed")
			}
		case w.Code == http.StatusOK:
			var resp api.OptimizeResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not an optimize response: %v\n%s", err, w.Body.String())
			}
			if resp.Evaluated > resp.SpaceSize {
				t.Fatalf("evaluated %d of a %d-candidate space", resp.Evaluated, resp.SpaceSize)
			}
			for i, p := range resp.Frontier {
				if i > 0 && p.Key <= resp.Frontier[i-1].Key {
					t.Fatalf("frontier key %d follows %d", p.Key, resp.Frontier[i-1].Key)
				}
				for _, v := range []float64{p.Scores.Cost, p.Scores.Area, p.Scores.BatteryPower, p.Scores.Performance} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("frontier key %d has non-finite scores %+v", p.Key, p.Scores)
					}
				}
			}
		default:
			var e api.Error
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Code == "" {
				t.Fatalf("status %d without the error envelope: %s", w.Code, w.Body.String())
			}
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("served status %d (%s), want 200 or 4xx", w.Code, w.Body.String())
			}
		}
	})
}
