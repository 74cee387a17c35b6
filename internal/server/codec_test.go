package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/pdn"
)

// TestServedBytesMatchEncoder pins the codec's output to encoding/json's:
// a batch over all five PDNs and every package state, served on both
// evaluate routes, must be byte for byte what json.Encoder writes for the
// results the body carries. Floats survive the decode exactly, so
// re-encoding the decoded response reproduces json.Encoder's rendering of
// the served results.
func TestServedBytesMatchEncoder(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	h := New(envVal, Options{}).Handler()
	pts := mixedPoints()
	req := api.EvalRequest{Points: make([]api.EvalPoint, len(pts))}
	for i, pt := range pts {
		req.Points[i] = api.EvalPointFromPoint(pt)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(path string) []byte {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %.200s", path, w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}

	served := serve(api.PathEvaluate)
	var resp api.EvalResponse
	if err := json.Unmarshal(served, &resp); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Errorf("/v1/evaluate body differs from json.Encoder's:\n%.300s\nwant\n%.300s", served, want.Bytes())
	}

	served = serve(api.PathEvaluateStream)
	want.Reset()
	enc = json.NewEncoder(&want)
	for _, line := range bytes.SplitAfter(served, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r api.EvalStreamResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if err := enc.Encode(&r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Errorf("/v1/evaluate/stream body differs from json.Encoder's:\n%.300s\nwant\n%.300s", served, want.Bytes())
	}
	if n := bytes.Count(served, []byte("\n")); n != len(pts) || len(resp.Results) != len(pts) {
		t.Errorf("%d points: %d results, %d stream lines", len(pts), len(resp.Results), n)
	}
}

// TestConcurrentEvaluateBodies serves distinct bodies on both evaluate
// routes from many goroutines at once, so the pooled request, point and
// response buffers change hands between requests: every answer must equal
// the one its body gets served alone.
func TestConcurrentEvaluateBodies(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	h := New(envVal, Options{}).Handler()
	serve := func(path, body string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
		return fmt.Sprint(w.Code, w.Body.String())
	}
	type request struct{ path, body, want string }
	var reqs []request
	for i := 0; i < 8; i++ {
		body := arBatch(50 + 40*i)
		if i%3 == 2 {
			body = `{"Points":[{"pdn":"ldo","cstate":"c6"}]}` // decoded by json.Decoder
		}
		for _, path := range []string{api.PathEvaluate, api.PathEvaluateStream} {
			reqs = append(reqs, request{path, body, serve(path, body)})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(reqs); k++ {
				r := reqs[(g+k)%len(reqs)]
				if got := serve(r.path, r.body); got != r.want {
					t.Errorf("%s, body %.40s: concurrent answer differs from the serial one", r.path, r.body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAppendResultMatchesEncoder pins one result in both of the codec's
// forms to json.Marshal and json.MarshalIndent, for every PDN and package
// state name and for floats json writes in 'f' form and in 'e' form.
func TestAppendResultMatchesEncoder(t *testing.T) {
	floats := []float64{
		0.7009583832253126, 11.350000000000001, 0, math.Copysign(0, -1), 1, 123456789,
		1e20, 1e21, 1.5e300, 999999.9999999999, 1e-6, 9.99e-7, 2.5e-9, -3e-12,
		5e-324, math.MaxFloat64, -1e-7,
	}
	for _, kind := range pdn.AllKinds() {
		for _, cs := range domain.CStates() {
			for i, f := range floats {
				res := pdn.Result{ETEE: f, PNomTotal: floats[(i+5)%len(floats)], PIn: floats[(i+11)%len(floats)]}
				wire := api.EvalResult{
					PDN: kind.String(), CState: cs.String(),
					ETEE: res.ETEE, PNom: float64(res.PNomTotal), PIn: float64(res.PIn), Loss: float64(res.PIn - res.PNomTotal),
				}
				wantLine, err := json.Marshal(wire)
				if err != nil {
					t.Fatal(err)
				}
				// The buffered response's results sit two levels deep.
				wantIndented, err := json.MarshalIndent(wire, "    ", "  ")
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					form *resultForm
					want []byte
				}{{&lineForm, wantLine}, {&indentedForm, wantIndented}} {
					got, err := appendResult(nil, c.form, kind, cs, res)
					if err != nil || !bytes.Equal(got, c.want) {
						t.Errorf("%v %v %+v: got %q (%v), want %q", kind, cs, res, got, err, c.want)
					}
				}
			}
		}
	}
}

// decodeReference is the path every evaluate body went through before the
// scanner, and every non-canonical body still goes through: json.Decoder,
// then api.EvalPoint.Point on each point.
func decodeReference(body []byte) ([]flexwatts.Point, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.EvalRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	pts := make([]flexwatts.Point, len(req.Points))
	for i, p := range req.Points {
		var err error
		if pts[i], err = p.Point(); err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return pts, nil
}

// samePoints compares typed points field by field, floats by their bits.
func samePoints(a, b []flexwatts.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.PDN != q.PDN || p.Workload != q.Workload || p.CState != q.CState ||
			math.Float64bits(float64(p.TDP)) != math.Float64bits(float64(q.TDP)) || math.Float64bits(p.AR) != math.Float64bits(q.AR) {
			return false
		}
	}
	return true
}

// scanCases are bodies on both sides of the canonical form. Each
// non-canonical point names its PDN unless the row is about that name, so
// the row fails the scan for the one reason it shows.
var scanCases = []struct {
	body      string
	canonical bool
}{
	{`{"points":[{"pdn":"IVR","tdp":18,"workload":"Multi-Thread","ar":0.6}]}`, true},
	{`{"points":[{"pdn":"FlexWatts","tdp":4.125,"workload":"single-thread","ar":5e-1},{"pdn":"LDO","cstate":"C6"}]}`, true},
	{"\r\n{ \"points\" :\t[ { \"ar\" : 1E+0 , \"tdp\" : -0 , \"pdn\" : \"MBVR\" } , {\"pdn\":\"ldo\"} ] } trailing", true},
	{`{"points":[]}`, true},
	{`{"points":[{"pdn":"I+MBVR","tdp":1e-400,"workload":"Mining","cstate":"c99"}]}`, false},
	{`{"points":[{"pdn":"IVR","tdp":18,"workload":"Multi-Thread","ar":0.6}]}]`, true},
	{`{"Points":[]}`, false},
	{`{"points":[{"pdn":"IVR","TDP":18}]}`, false},
	{`{"points":[{"pdn":"IVR","pdn":"LDO"}]}`, false},
	{`{"points":[{"pdn":"I\u002bMBVR"}]}`, false},
	{"{\"points\":[{\"pdn\":\"IV\xffR\"}]}", false},
	{`{"points":[{"pdn":"ÏVR"}]}`, false},
	{"{\"points\":[{\"pdn\":\"IV\tR\"}]}", false},
	{`{"points":[{"pdn":null}]}`, false},
	{`{"points":null}`, false},
	{`{"points":[null]}`, false},
	{`{"points":[{"pdn":"IVR","tdp":"18"}]}`, false},
	{`{"points":[{"pdn":"IVR","tdp":1e400}]}`, false},
	{`{"points":[{"pdn":"IVR","tdp":018}]}`, false},
	{`{"points":[{"pdn":"IVR","tdp":.5}]}`, false},
	{`{"points":[{"pdn":"IVR","tdp":1.}]}`, false},
	{`{"points":[{"pdn":"IVR","tdp":+1}]}`, false},
	{`{"points":[{"pdn":"IVR","vr":1}]}`, false},
	{`{"points":[{"pdn":"IVR"},]}`, false},
	{`{"points":[],"points":[]}`, false},
	{`{}`, false},
	{`{"points":[{"pdn":"IVR"}]`, false},
	{`"I+MBVR"`, false},
	{``, false},
	{`{"points":[{"pdn":"i+mbvr","tdp":1e-400,"workload":"battery-life","cstate":"c0min"}]}`, true},
	{`{"points":[{"pdn":"IVR","cstate":"C0"},{"pdn":"flexwatts","cstate":"c8"}]}`, true},
	{`{"points":[{}]}`, false},
	{`{"points":[{"tdp":18,"workload":"graphics","ar":0.5}]}`, false},
	{`{"points":[{"pdn":"Ivr"}]}`, false},
	{`{"points":[{"pdn":"imbvr"}]}`, false},
	{`{"points":[{"pdn":"IVR","workload":" Graphics"}]}`, false},
	{`{"points":[{"pdn":"IVR","workload":"multithread"}]}`, false},
	{`{"points":[{"pdn":"IVR","workload":""}]}`, false},
	{`{"points":[{"pdn":"C6"}]}`, false},
	{`{"points":[{"pdn":"IVR","cstate":"Graphics"}]}`, false},
}

// TestScanEvalPoints pins which bodies the scanner reads itself and that
// it reads them exactly as json.Decoder and api.EvalPoint.Point do.
func TestScanEvalPoints(t *testing.T) {
	for _, tc := range scanCases {
		got, ok := scanEvalPoints([]byte(tc.body), nil)
		if ok != tc.canonical {
			t.Errorf("%q: canonical %v, want %v", tc.body, ok, tc.canonical)
			continue
		}
		if !ok {
			continue
		}
		want, err := decodeReference([]byte(tc.body))
		if err != nil || !samePoints(got, want) {
			t.Errorf("%q: scanned %+v, decoder path %+v (%v)", tc.body, got, want, err)
		}
	}
}

// TestScanVocabularyAllocFree pins that scanning a canonical body
// allocates nothing and resolves its names to the typed points they
// spell.
func TestScanVocabularyAllocFree(t *testing.T) {
	body := []byte(`{"points":[{"pdn":"I+MBVR","tdp":18.5,"workload":"Multi-Thread","ar":0.6},{"pdn":"flexwatts","cstate":"C0MIN"}]}`)
	pts := make([]flexwatts.Point, 0, 2)
	if avg := testing.AllocsPerRun(100, func() {
		var ok bool
		if pts, ok = scanEvalPoints(body, pts); !ok {
			t.Fatal("canonical body rejected")
		}
	}); avg != 0 {
		t.Errorf("scanning a canonical body: %.1f allocs, want 0", avg)
	}
	want := []flexwatts.Point{
		{PDN: flexwatts.IMBVR, TDP: 18.5, Workload: flexwatts.MultiThread, AR: 0.6},
		{PDN: flexwatts.FlexWatts, CState: flexwatts.C0MIN},
	}
	if !samePoints(pts, want) {
		t.Errorf("scanned %+v, want %+v", pts, want)
	}
}

// FuzzDecodeEvalPoints is the scanner's differential check: whenever it
// accepts a body, json.Decoder with DisallowUnknownFields followed by
// api.EvalPoint.Point must give the same typed points without error.
func FuzzDecodeEvalPoints(f *testing.F) {
	for _, tc := range scanCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := scanEvalPoints(body, nil)
		if !ok {
			return
		}
		want, err := decodeReference(body)
		if err != nil {
			t.Fatalf("scanner accepted a body the decoder path rejects (%v): %q", err, body)
		}
		if !samePoints(got, want) {
			t.Fatalf("%q: scanned %+v, decoder path %+v", body, got, want)
		}
	})
}

// FuzzAppendFloat pins appendFloat to encoding/json for every float64: a
// finite value appends json.Marshal's bytes, and a non-finite one fails
// with json.Marshal's error text.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, 1, 0.1, 1e-6, 9.99e-7, 1e21, 1e20, 2.5e-9, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
		f.Add(math.Float64bits(-v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, wantErr := json.Marshal(v)
		got, err := appendFloat([]byte("x"), v)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%v: error %v, want %v", v, err, wantErr)
			}
			return
		}
		if err != nil || !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("%v (bits %#x): appended %q (%v), want %q", v, bits, got, err, want)
		}
	})
}
