package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/flexwatts/api"
	"repro/internal/experiments"
)

// TestReadyzWithoutStore pins the readiness answer byte for byte: ready
// from the first request, with the deprecated fields still on the wire as
// false and 0 so existing clients keep parsing it.
func TestReadyzWithoutStore(t *testing.T) {
	ts := testServer(t)
	code, body, _ := get(t, ts, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	const want = "{\n  \"status\": \"ready\",\n  \"degraded\": false,\n  \"warm_records\": 0,\n  \"warm_seconds\": 0\n}\n"
	if body != want {
		t.Errorf("readyz body %q, want %q", body, want)
	}
}

// TestAdminCacheFlush drives the admin cache endpoint over the keys a
// figure driver leaves in the shared cache: GET reports them with no disk
// section, DELETE flushes them.
func TestAdminCacheFlush(t *testing.T) {
	env, err := experiments.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(env, Options{}).Handler())
	t.Cleanup(ts.Close)
	if code, body, _ := get(t, ts, "/v1/experiments/fig5"); code != http.StatusOK {
		t.Fatalf("experiment: %d: %s", code, body)
	}

	stats := func() map[string]any {
		t.Helper()
		code, body, _ := get(t, ts, "/v1/admin/cache")
		if code != http.StatusOK {
			t.Fatalf("admin cache: status %d: %s", code, body)
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		if _, ok := v["disk"]; ok {
			t.Errorf("admin cache reports a disk tier: %s", body)
		}
		mem, _ := v["memory"].(map[string]any)
		for _, f := range []string{"keys", "hits", "misses", "warm_hits"} {
			if _, ok := mem[f]; !ok {
				t.Errorf("memory stats lack %q: %s", f, body)
			}
		}
		if mem["warm_hits"] != 0.0 {
			t.Errorf("warm_hits = %v, want 0", mem["warm_hits"])
		}
		return mem
	}
	if keys := stats()["keys"]; keys != float64(env.Cache.Len()) || env.Cache.Len() == 0 {
		t.Errorf("keys = %v, want the figure's %d", keys, env.Cache.Len())
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/admin/cache", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d: %s", resp.StatusCode, body)
	}
	var flush map[string]float64
	if err := json.Unmarshal(body, &flush); err != nil {
		t.Fatal(err)
	}
	if keys, files, ok := flush["flushed_keys"], flush["removed_files"], len(flush) == 2; !ok || keys == 0 || files != 0 {
		t.Errorf("flush = %s, want flushed_keys > 0 and removed_files 0", body)
	}
	if keys := stats()["keys"]; keys != 0.0 {
		t.Errorf("memory keys after flush = %v", keys)
	}

	// Method guard: POST is rejected with Allow.
	resp2, err := ts.Client().Post(ts.URL+"/v1/admin/cache", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST admin cache: status %d, want 405", resp2.StatusCode)
	}
}

// TestPanicRecoveryEnvelope pins the middleware contract for a panic
// before the response starts: the client gets the uniform internal-error
// envelope and the daemon keeps serving.
func TestPanicRecoveryEnvelope(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	s := New(envVal, Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", s.instrument(routeEvaluate, func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	mux.HandleFunc(api.PathHealthz, s.instrument(routeHealthz, s.handleHealthz))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	before := s.metrics.panics.Value()
	code, body, _ := get(t, ts, "/boom")
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", code, body)
	}
	var e api.Error
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("panic response is not the error envelope: %s", body)
	}
	if e.Code != "internal" {
		t.Errorf("code %q, want internal", e.Code)
	}
	if got := s.metrics.panics.Value(); got != before+1 {
		t.Errorf("panics counter = %v, want %v", got, before+1)
	}
	// The daemon survived.
	if code, _, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz after panic: %d", code)
	}
}

// TestPanicMidStreamAbortsCleanly pins the other half: once an NDJSON
// stream has started, a panic must abort the connection — never inject an
// error envelope between lines, which would corrupt the framing for every
// line after it.
func TestPanicMidStreamAbortsCleanly(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	s := New(envVal, Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stream-boom", s.instrument(routeEvaluateStream, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		for i := 0; i < 3; i++ {
			io.WriteString(w, `{"index":`+string(rune('0'+i))+"}\n") //nolint:errcheck
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic("mid-stream bug")
	}))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/stream-boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d before the panic point", resp.StatusCode)
	}
	var lines []string
	var readErr error
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	readErr = sc.Err()
	if readErr == nil {
		t.Error("stream ended cleanly; a mid-stream panic must abort the connection")
	}
	for _, line := range lines {
		if strings.Contains(line, `"internal"`) {
			t.Errorf("error envelope leaked into the NDJSON stream: %s", line)
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("corrupt NDJSON line %q: %v", line, err)
		}
	}
}

// TestStreamSurvivesGlobalWriteTimeout proves the stream route's rolling
// write deadline overrides a server-wide WriteTimeout far shorter than the
// stream's duration.
func TestStreamSurvivesGlobalWriteTimeout(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	s := New(envVal, Options{StreamWriteTimeout: 10 * time.Second})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.WriteTimeout = 250 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	// A batch big enough to stream past the 250ms write deadline, with the
	// client reading slowly to stretch delivery time.
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for i := 0; i < 600; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}`)
	}
	sb.WriteString(`]}`)
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate/stream", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if lines%100 == 0 {
			time.Sleep(60 * time.Millisecond) // stretch past WriteTimeout
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream died after %d lines: %v (global WriteTimeout leaked in?)", lines, err)
	}
	if lines != 600 {
		t.Errorf("received %d lines, want 600", lines)
	}
}
