package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
		jobs, ok := s.decodeEvalRequest(w, r)
		if !ok {
			if w.Body.Len() == 0 {
				t.Fatal("rejected without writing an error envelope")
			}
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("rejection status %d, want 4xx", w.Code)
			}
			return
		}
		if len(jobs) == 0 {
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
			if len(resp.Results) != len(jobs) {
				t.Fatalf("%d results for %d accepted points", len(resp.Results), len(jobs))
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
