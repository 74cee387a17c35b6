package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/flexwatts/api"
	"repro/flexwatts/report"
	"repro/internal/experiments"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// testEnv builds one shared evaluation environment; predictor
// characterization dominates its cost.
var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	ts := httptest.NewServer(New(envVal, Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	code, body, _ := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var h api.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Experiments == 0 || h.Workers == 0 {
		t.Errorf("health = %+v", h)
	}
}

func TestListExperiments(t *testing.T) {
	ts := testServer(t)
	code, body, _ := get(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var listing struct {
		Experiments []api.ExperimentInfo `json:"experiments"`
		Formats     []report.Format      `json:"formats"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Experiments) != len(experiments.IDs()) {
		t.Errorf("%d experiments listed, want %d", len(listing.Experiments), len(experiments.IDs()))
	}
	if len(listing.Formats) != 3 {
		t.Errorf("formats = %v", listing.Formats)
	}
}

// TestExperimentASCIIMatchesGolden pins the served ASCII body to the same
// golden files the CLI is pinned to: the HTTP surface and `flexwatts -exp
// {id}` must be byte-identical.
func TestExperimentASCIIMatchesGolden(t *testing.T) {
	ts := testServer(t)
	for _, id := range []string{"tab1", "fig4j", "fig5"} {
		code, body, hdr := get(t, ts, "/v1/experiments/"+id+"?format=ascii")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, code, body)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: content type %q", id, ct)
		}
		golden, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(body), golden) {
			t.Errorf("%s: served ASCII differs from golden", id)
		}
	}
}

func TestExperimentJSONAndCSV(t *testing.T) {
	ts := testServer(t)
	code, body, hdr := get(t, ts, "/v1/experiments/tab2?format=json")
	if code != http.StatusOK {
		t.Fatalf("json status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json content type %q", ct)
	}
	var d report.Dataset
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("body is not a dataset: %v", err)
	}
	if d.ID != "tab2" {
		t.Errorf("dataset id %q", d.ID)
	}

	code, body, hdr = get(t, ts, "/v1/experiments/tab2?format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv content type %q", ct)
	}
	if !strings.Contains(body, "Parameter,IVR,MBVR,LDO\n") {
		t.Errorf("csv body missing header: %q", body)
	}
}

func TestExperimentErrors(t *testing.T) {
	ts := testServer(t)
	if code, body, _ := get(t, ts, "/v1/experiments/fig99"); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d: %s", code, body)
	}
	if code, body, _ := get(t, ts, "/v1/experiments/tab1?format=xml"); code != http.StatusBadRequest {
		t.Errorf("bad format: status %d: %s", code, body)
	}
	if code, body, _ := get(t, ts, "/v1/experiments/tab1/extra"); code != http.StatusNotFound {
		t.Errorf("nested path: status %d: %s", code, body)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/experiments/tab1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to experiment: status %d", resp.StatusCode)
	}
}

// TestConcurrentClientsIdenticalBodies is the serving determinism contract:
// parallel clients requesting the same experiment must receive byte-identical
// bodies in every format (run under -race in CI, doubling as the server's
// data-race gate over the shared env and dataset memo).
func TestConcurrentClientsIdenticalBodies(t *testing.T) {
	ts := testServer(t)
	const clients = 8
	for _, format := range []string{"ascii", "json", "csv"} {
		format := format
		t.Run(format, func(t *testing.T) {
			bodies := make([]string, clients)
			var wg sync.WaitGroup
			wg.Add(clients)
			for i := 0; i < clients; i++ {
				i := i
				go func() {
					defer wg.Done()
					resp, err := ts.Client().Get(ts.URL + "/v1/experiments/fig5?format=" + format)
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					b, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("status %d: %s", resp.StatusCode, b)
						return
					}
					bodies[i] = string(b)
				}()
			}
			wg.Wait()
			for i := 1; i < clients; i++ {
				if bodies[i] != bodies[0] {
					t.Fatalf("client %d body differs from client 0", i)
				}
			}
		})
	}
}

func postEvaluate(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestEvaluateBatch posts a mixed batch — baselines, FlexWatts, an idle
// state — and cross-checks the served numbers against direct evaluation.
func TestEvaluateBatch(t *testing.T) {
	ts := testServer(t)
	code, body := postEvaluate(t, ts, `{"points":[
		{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6},
		{"pdn":"MBVR","tdp":18,"workload":"multi-thread","ar":0.6},
		{"pdn":"FlexWatts","tdp":4,"workload":"single-thread","ar":0.5},
		{"pdn":"LDO","cstate":"C6"}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp api.EvalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results, want 4", len(resp.Results))
	}
	// Cross-check the first point against a direct evaluation.
	s, err := workload.TDPScenario(envVal.Platform, 18, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := envVal.Eval(pdn.IVR, s)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Results[0]
	if got.PDN != "IVR" || got.ETEE != want.ETEE || got.PIn != want.PIn {
		t.Errorf("served result %+v, want ETEE %g PIn %g", got, want.ETEE, want.PIn)
	}
	if resp.Results[3].CState != "C6" {
		t.Errorf("idle point cstate %q", resp.Results[3].CState)
	}
	for i, r := range resp.Results {
		if !(r.ETEE > 0 && r.ETEE < 1) || r.Loss <= 0 {
			t.Errorf("result %d implausible: %+v", i, r)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"empty", `{"points":[]}`, http.StatusBadRequest},
		{"malformed", `{`, http.StatusBadRequest},
		{"unknown field", `{"pts":[]}`, http.StatusBadRequest},
		{"bad pdn", `{"points":[{"pdn":"XVR","tdp":4,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest},
		{"bad workload", `{"points":[{"pdn":"IVR","tdp":4,"workload":"mining","ar":0.5}]}`, http.StatusBadRequest},
		{"bad cstate", `{"points":[{"pdn":"IVR","cstate":"C99"}]}`, http.StatusBadRequest},
		{"bad tdp", `{"points":[{"pdn":"IVR","tdp":900,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest},
		{"contradictory idle+active", `{"points":[{"pdn":"IVR","cstate":"C6","workload":"multi-thread","ar":0.6}]}`, http.StatusBadRequest},
		{"ar below the modeled floor", `{"points":[{"pdn":"MBVR","tdp":14,"workload":"single-thread","ar":1e-300}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := postEvaluate(t, ts, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.wantCode, body)
		}
	}
}

// TestEvaluateEnvelopes pins the exact status and body bytes both evaluate
// routes answer for malformed, unusual and oversized request bodies. Error
// envelopes are the same on both routes; a 200 is the indented response on
// /v1/evaluate and NDJSON lines on /v1/evaluate/stream. Names in mixed
// case, padded or aliased answer as the library's parsers read them, and
// an unknown name fails the first point that carries one, after every
// earlier point has validated. The server caps bodies at 512 bytes, so the
// last three bodies run past the limit: one holds a complete value inside
// it (answered as if the limit were not there), one is cut by it (413),
// and one has a syntax error inside it.
func TestEvaluateEnvelopes(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	h := New(envVal, Options{Workers: 2, MaxBodyBytes: 512}).Handler()
	pad := strings.Repeat(" ", 600)
	point := `{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}`
	cases := []struct {
		name, body string
		status     int
		want       string
		// stream is /v1/evaluate/stream's body on a 200; an error
		// envelope is want on both routes.
		stream string
	}{
		{"truncated", `{`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: unexpected EOF\"\n}\n", ""},
		{"empty body", ``, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: EOF\"\n}\n", ""},
		{"unknown top-level key", `{"pts":[]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: json: unknown field \\\"pts\\\"\"\n}\n", ""},
		{"no points", `{"points":[]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: request has no points\"\n}\n", ""},
		{"null points", `{"points":null}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: request has no points\"\n}\n", ""},
		{"case-folded keys", `{"Points":[{"PDN":"ivr","TDP":18,"Workload":"multi-thread","AR":0.6}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"IVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7009583832253126,\n      \"p_nom\": 11.350000000000001,\n      \"p_in\": 16.19211678127789,\n      \"loss\": 4.842116781277888\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"IVR\",\"cstate\":\"C0\",\"etee\":0.7009583832253126,\"p_nom\":11.350000000000001,\"p_in\":16.19211678127789,\"loss\":4.842116781277888}}\n"},
		{"bare string", `"I+MBVR"`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: json: cannot unmarshal string into Go value of type api.EvalRequest\"\n}\n", ""},
		{"I+MBVR point", `{"points":[{"pdn":"I+MBVR","tdp":18,"workload":"Multi-Thread","ar":0.6}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"I+MBVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7117837531591176,\n      \"p_nom\": 11.350000000000001,\n      \"p_in\": 15.94585427052131,\n      \"loss\": 4.5958542705213095\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"I+MBVR\",\"cstate\":\"C0\",\"etee\":0.7117837531591176,\"p_nom\":11.350000000000001,\"p_in\":15.94585427052131,\"loss\":4.5958542705213095}}\n"},
		{"escaped I+MBVR", `{"points":[{"pdn":"I\u002bMBVR","tdp":18,"workload":"Multi-Thread","ar":0.6}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"I+MBVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7117837531591176,\n      \"p_nom\": 11.350000000000001,\n      \"p_in\": 15.94585427052131,\n      \"loss\": 4.5958542705213095\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"I+MBVR\",\"cstate\":\"C0\",\"etee\":0.7117837531591176,\"p_nom\":11.350000000000001,\"p_in\":15.94585427052131,\"loss\":4.5958542705213095}}\n"},
		{"duplicate key", `{"points":[{"pdn":"IVR","pdn":"LDO","tdp":18,"workload":"graphics","ar":0.5}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"LDO\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.6599935105930148,\n      \"p_nom\": 13.05,\n      \"p_in\": 19.7729216886911,\n      \"loss\": 6.722921688691098\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"LDO\",\"cstate\":\"C0\",\"etee\":0.6599935105930148,\"p_nom\":13.05,\"p_in\":19.7729216886911,\"loss\":6.722921688691098}}\n"},
		{"null fields", `{"points":[{"pdn":"MBVR","tdp":10,"workload":"single-thread","ar":0.7,"cstate":null}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"MBVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7412379678242486,\n      \"p_nom\": 3.9350000000000005,\n      \"p_in\": 5.3086865093411,\n      \"loss\": 1.3736865093410993\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"MBVR\",\"cstate\":\"C0\",\"etee\":0.7412379678242486,\"p_nom\":3.9350000000000005,\"p_in\":5.3086865093411,\"loss\":1.3736865093410993}}\n"},
		{"null point", `{"points":[null]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 0: invalid point: invalid point: flexwatts: unknown PDN kind \\\"\\\" (have IVR, MBVR, LDO, I+MBVR, FlexWatts)\"\n}\n", ""},
		{"string tdp", `{"points":[{"pdn":"IVR","tdp":"18","workload":"graphics","ar":0.5}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: json: cannot unmarshal string into Go struct field EvalPoint.points.tdp of type float64\"\n}\n", ""},
		{"tdp 1e400", `{"points":[{"pdn":"IVR","tdp":1e400,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: json: cannot unmarshal number 1e400 into Go struct field EvalPoint.points.tdp of type float64\"\n}\n", ""},
		{"ar 1e-400", `{"points":[{"pdn":"IVR","tdp":18,"workload":"graphics","ar":1e-400}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 0: invalid point: flexwatts: invalid point: AR 0 outside (0,1]\"\n}\n", ""},
		{"non-UTF-8 pdn", "{\"points\":[{\"pdn\":\"IV\xffR\",\"tdp\":18,\"workload\":\"graphics\",\"ar\":0.5}]}", http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 0: invalid point: invalid point: flexwatts: unknown PDN kind \\\"IV�R\\\" (have IVR, MBVR, LDO, I+MBVR, FlexWatts)\"\n}\n", ""},
		{"unknown point key", `{"points":[{"pdn":"IVR","tdp":18,"workload":"graphics","ar":0.5,"vr":1}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: json: unknown field \\\"vr\\\"\"\n}\n", ""},
		{"trailing bytes", `{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]} trailing{`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"IVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7009583832253126,\n      \"p_nom\": 11.350000000000001,\n      \"p_in\": 16.19211678127789,\n      \"loss\": 4.842116781277888\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"IVR\",\"cstate\":\"C0\",\"etee\":0.7009583832253126,\"p_nom\":11.350000000000001,\"p_in\":16.19211678127789,\"loss\":4.842116781277888}}\n"},
		{"idle and whitespace", "\n{ \"points\" : [ {\"pdn\":\"LDO\",\"cstate\":\"C8\"},\t{\"pdn\":\"FlexWatts\",\"tdp\":4,\"workload\":\"graphics\",\"ar\":0.25} ] }\n", http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"LDO\",\n      \"cstate\": \"C8\",\n      \"etee\": 0.8244809048688281,\n      \"p_nom\": 0.13,\n      \"p_in\": 0.15767496764607608,\n      \"loss\": 0.027674967646076076\n    },\n    {\n      \"pdn\": \"FlexWatts\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7313301439355002,\n      \"p_nom\": 2.9300000000000006,\n      \"p_in\": 4.0063985113929785,\n      \"loss\": 1.076398511392978\n    }\n  ],\n  \"workers\": 2\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"LDO\",\"cstate\":\"C8\",\"etee\":0.8244809048688281,\"p_nom\":0.13,\"p_in\":0.15767496764607608,\"loss\":0.027674967646076076}}\n{\"index\":1,\"result\":{\"pdn\":\"FlexWatts\",\"cstate\":\"C0\",\"etee\":0.7313301439355002,\"p_nom\":2.9300000000000006,\"p_in\":4.0063985113929785,\"loss\":1.076398511392978}}\n"},
		{"unknown workload", `{"points":[{"pdn":"IVR","tdp":18,"workload":"mining","ar":0.6}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 0: invalid point: invalid point: flexwatts: unknown workload type \\\"mining\\\" (have Single-Thread, Multi-Thread, Graphics, Battery-Life)\"\n}\n", ""},
		{"unknown cstate", `{"points":[{"pdn":"LDO","cstate":"C99"}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 0: invalid point: invalid point: flexwatts: unknown package state \\\"C99\\\" (have C0, C0MIN, C2, C3, C6, C7, C8)\"\n}\n", ""},
		{"unknown pdn after a good point", `{"points":[{"pdn":"IVR","tdp":18,"workload":"graphics","ar":0.5},{"pdn":"XVR","tdp":18,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 1: invalid point: invalid point: flexwatts: unknown PDN kind \\\"XVR\\\" (have IVR, MBVR, LDO, I+MBVR, FlexWatts)\"\n}\n", ""},
		{"invalid point before an unknown pdn", `{"points":[{"pdn":"IVR","tdp":18,"workload":"graphics","ar":2},{"pdn":"XVR"}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 0: invalid point: flexwatts: invalid point: AR 2 outside (0,1]\"\n}\n", ""},
		{"mixed-case pdn", `{"points":[{"pdn":"Ivr","tdp":18,"workload":"multi-thread","ar":0.6}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"IVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7009583832253126,\n      \"p_nom\": 11.350000000000001,\n      \"p_in\": 16.19211678127789,\n      \"loss\": 4.842116781277888\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"IVR\",\"cstate\":\"C0\",\"etee\":0.7009583832253126,\"p_nom\":11.350000000000001,\"p_in\":16.19211678127789,\"loss\":4.842116781277888}}\n"},
		{"IMBVR alias", `{"points":[{"pdn":"imbvr","tdp":18,"workload":"Multi-Thread","ar":0.6}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"I+MBVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7117837531591176,\n      \"p_nom\": 11.350000000000001,\n      \"p_in\": 15.94585427052131,\n      \"loss\": 4.5958542705213095\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"I+MBVR\",\"cstate\":\"C0\",\"etee\":0.7117837531591176,\"p_nom\":11.350000000000001,\"p_in\":15.94585427052131,\"loss\":4.5958542705213095}}\n"},
		{"padded workload", `{"points":[{"pdn":"MBVR","tdp":10,"workload":" Graphics","ar":0.7}]}`, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"MBVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7119891441827003,\n      \"p_nom\": 5.85,\n      \"p_in\": 8.216417410008793,\n      \"loss\": 2.3664174100087934\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"MBVR\",\"cstate\":\"C0\",\"etee\":0.7119891441827003,\"p_nom\":5.85,\"p_in\":8.216417410008793,\"loss\":2.3664174100087934}}\n"},
		{"battery-life at C0", `{"points":[{"pdn":"IVR","tdp":18,"workload":"Battery-Life","ar":0.6}]}`, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"point 0: invalid point: workload: TDPScenario does not model Battery-Life\"\n}\n", ""},
		{"past limit, value inside", `{"points":[{"pdn":"MBVR","tdp":25,"workload":"multi-thread","ar":0.9}]}` + pad, http.StatusOK,
			"{\n  \"results\": [\n    {\n      \"pdn\": \"MBVR\",\n      \"cstate\": \"C0\",\n      \"etee\": 0.7225738634943363,\n      \"p_nom\": 15.55,\n      \"p_in\": 21.520291261021907,\n      \"loss\": 5.970291261021906\n    }\n  ],\n  \"workers\": 1\n}\n",
			"{\"index\":0,\"result\":{\"pdn\":\"MBVR\",\"cstate\":\"C0\",\"etee\":0.7225738634943363,\"p_nom\":15.55,\"p_in\":21.520291261021907,\"loss\":5.970291261021906}}\n"},
		{"past limit, value cut", `{"points":[` + strings.Repeat(point+",", 12) + point + `]}`, http.StatusRequestEntityTooLarge,
			"{\n  \"code\": \"batch_too_large\",\n  \"error\": \"batch too large: request body exceeds 512 bytes\"\n}\n", ""},
		{"past limit, syntax error inside", `{"points":[{]}` + pad, http.StatusBadRequest,
			"{\n  \"code\": \"invalid_point\",\n  \"error\": \"invalid point: bad request body: invalid character ']' looking for beginning of object key string\"\n}\n", ""},
	}
	for _, tc := range cases {
		for _, path := range []string{api.PathEvaluate, api.PathEvaluateStream} {
			want := tc.want
			if path == api.PathEvaluateStream && tc.status == http.StatusOK {
				want = tc.stream
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body)))
			if w.Code != tc.status || w.Body.String() != want {
				t.Errorf("%s %s: status %d, body\n%q\nwant %d, body\n%q", tc.name, path, w.Code, w.Body.String(), tc.status, want)
			}
		}
	}
}

func TestEvaluateBatchCap(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	ts := httptest.NewServer(New(envVal, Options{MaxBatch: 2}).Handler())
	defer ts.Close()
	var pts []string
	for i := 0; i < 3; i++ {
		pts = append(pts, `{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}`)
	}
	body := fmt.Sprintf(`{"points":[%s]}`, strings.Join(pts, ","))
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

// TestEvaluateLeavesCacheUnchanged pins that evaluate traffic recomputes
// through the kernels instead of growing the shared cache, which never
// evicts: a non-repeating 4096-point baseline batch on each evaluate
// endpoint leaves the cache's keys and counters exactly as they were.
func TestEvaluateLeavesCacheUnchanged(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(env, Options{}).Handler())
	t.Cleanup(ts.Close)
	kinds := []string{"IVR", "MBVR", "LDO", "I+MBVR"}
	var pts []string
	for i := 0; i < DefaultMaxBatch; i++ {
		pts = append(pts, fmt.Sprintf(`{"pdn":%q,"tdp":%g,"workload":"multi-thread","ar":%.6f}`,
			kinds[i%4], 4+float64(i/4%8)*6, 0.2+0.8*float64(i/32+1)/float64(DefaultMaxBatch/32)))
	}
	body := fmt.Sprintf(`{"points":[%s]}`, strings.Join(pts, ","))
	if code, _, _ := get(t, ts, "/v1/experiments/fig5"); code != http.StatusOK {
		t.Fatal("experiment request failed")
	}
	keys := env.Cache.Len()
	hits, misses := env.Cache.Stats()

	if code, b := postEvaluate(t, ts, body); code != http.StatusOK {
		t.Fatalf("evaluate status %d: %.200s", code, b)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || bytes.Count(lines, []byte("\n")) != DefaultMaxBatch {
		t.Fatalf("stream status %d, %d lines, err %v", resp.StatusCode, bytes.Count(lines, []byte("\n")), err)
	}
	if env.Cache.Len() != keys {
		t.Errorf("evaluate traffic grew the cache from %d to %d keys", keys, env.Cache.Len())
	}
	if h, m := env.Cache.Stats(); h != hits || m != misses {
		t.Errorf("evaluate traffic moved the cache counters from (%d hits, %d misses) to (%d, %d)", hits, misses, h, m)
	}
}

// TestEvaluateC0WithoutWorkloadExplains pins the error ergonomics: a bare
// cstate "C0" point must say what an active point requires, not complain
// about an unknown empty workload type.
func TestEvaluateC0WithoutWorkloadExplains(t *testing.T) {
	ts := testServer(t)
	code, body := postEvaluate(t, ts, `{"points":[{"pdn":"IVR","cstate":"C0"}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(body, "requires tdp, workload and ar") {
		t.Errorf("error does not explain the active-point fields: %s", body)
	}
}

// TestMethodNotAllowed is the wrong-method table: every endpoint must
// answer 405 with an Allow header naming its permitted methods (RFC 9110
// §15.5.6) and the uniform JSON error envelope — not fall through to a
// handler or a bare 404.
func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodDelete, "/healthz", "GET"},
		{http.MethodPost, "/v1/experiments", "GET"},
		{http.MethodPut, "/v1/experiments", "GET"},
		{http.MethodPost, "/v1/experiments/tab1", "GET"},
		{http.MethodDelete, "/v1/experiments/tab1", "GET"},
		{http.MethodGet, "/v1/evaluate", "POST"},
		{http.MethodPut, "/v1/evaluate", "POST"},
		{http.MethodDelete, "/v1/evaluate", "POST"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d, want 405: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Errorf("Allow header %q, want %q", got, tc.allow)
			}
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil || e.Message == "" {
				t.Errorf("body is not the error envelope: %s", body)
			}
		})
	}
}

// TestEvaluateCancelledRequest pins the cancellation contract of the
// serving layer: a /v1/evaluate whose request context is already done must
// abort the sweep promptly and write nothing (there is no client left to
// answer), instead of evaluating the full batch.
func TestEvaluateCancelledRequest(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	srv := New(envVal, Options{})
	var pts []string
	for i := 0; i < DefaultMaxBatch; i++ {
		// Spread the batch over the AR axis so a runaway evaluation could
		// not be served from a single cached cell.
		pts = append(pts, fmt.Sprintf(`{"pdn":"MBVR","tdp":18,"workload":"multi-thread","ar":%.6f}`, 0.40+0.5*float64(i)/DefaultMaxBatch))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate",
		strings.NewReader(fmt.Sprintf(`{"points":[%s]}`, strings.Join(pts, ",")))).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled evaluate took %v, want prompt abort", d)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("cancelled evaluate wrote a body: %.120s", rec.Body.String())
	}
}
