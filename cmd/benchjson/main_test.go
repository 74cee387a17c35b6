package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkEvaluateETEE-8   	 1303594	       907.3 ns/op	      48 B/op	       1 allocs/op
BenchmarkReferenceSim   	     420	   2876468 ns/op	 1029544 B/op	    6007 allocs/op
BenchmarkAblationOracle/oracle-4         	     100	   123456 ns/op	        3.21 J
PASS
ok  	repro	12.860s
`

func TestParse(t *testing.T) {
	r, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if r.Goos != "linux" || r.Goarch != "amd64" || r.Pkg != "repro" {
		t.Errorf("header = %+v", r)
	}
	if len(r.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3", len(r.Benchmarks))
	}
	b := r.Benchmarks[0]
	if b.Name != "BenchmarkEvaluateETEE" || b.Iterations != 1303594 ||
		b.NsPerOp != 907.3 || b.BytesPerOp != 48 || b.AllocsPerOp != 1 {
		t.Errorf("first benchmark = %+v", b)
	}
	if r.Benchmarks[1].Name != "BenchmarkReferenceSim" {
		t.Errorf("GOMAXPROCS-less name mangled: %+v", r.Benchmarks[1])
	}
	if got := r.Benchmarks[2]; got.Name != "BenchmarkAblationOracle/oracle" || got.Metrics["J"] != 3.21 {
		t.Errorf("custom metric = %+v", got)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Error("no benchmark lines should be an error")
	}
}

func TestMergeKeepsOtherLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")

	var out, errOut strings.Builder
	if code := run(strings.NewReader(sample), &out, &errOut, []string{"-label", "baseline", "-out", path}); code != 0 {
		t.Fatalf("first run exited %d: %s", code, errOut.String())
	}
	if code := run(strings.NewReader(sample), &out, &errOut, []string{"-label", "current", "-out", path}); code != 0 {
		t.Fatalf("second run exited %d: %s", code, errOut.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != 1 {
		t.Errorf("schema = %d", doc.Schema)
	}
	for _, label := range []string{"baseline", "current"} {
		if _, ok := doc.Runs[label]; !ok {
			t.Errorf("run %q missing after merge: have %v", label, len(doc.Runs))
		}
	}
}

func TestStdoutMode(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(strings.NewReader(sample), &out, &errOut, nil); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var doc Document
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if len(doc.Runs["current"].Benchmarks) != 3 {
		t.Errorf("stdout doc = %+v", doc)
	}
}

// writeBaseline records sample output under the given label in a temp
// document and returns its path — the fixture for the -check gate tests.
func writeBaseline(t *testing.T, label, benchOutput string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	if code := run(strings.NewReader(benchOutput), &out, &errOut, []string{"-label", label, "-out", path}); code != 0 {
		t.Fatalf("recording baseline exited %d: %s", code, errOut.String())
	}
	return path
}

// TestCheckGate pins the perf-gate semantics end to end: a run within
// tolerance passes, a ns/op regression beyond it fails, and a throughput
// ("/s"-unit) drop beyond it fails — the self-test CI runs so the gate
// itself cannot silently rot.
func TestCheckGate(t *testing.T) {
	const baseline = `goos: linux
BenchmarkEvaluateETEE 1000 400.0 ns/op
BenchmarkEvaluateGrid/IVR 100 500000 ns/op 9000000 points/s
PASS
`
	path := writeBaseline(t, "current", baseline)
	cases := []struct {
		name, input string
		wantCode    int
	}{
		{"identical", baseline, 0},
		{"within-tolerance", `
BenchmarkEvaluateETEE 1000 440.0 ns/op
BenchmarkEvaluateGrid/IVR 100 510000 ns/op 8500000 points/s
`, 0},
		{"improvement", `
BenchmarkEvaluateETEE 1000 200.0 ns/op
BenchmarkEvaluateGrid/IVR 100 250000 ns/op 18000000 points/s
`, 0},
		{"nsop-regression", `
BenchmarkEvaluateETEE 1000 480.0 ns/op
BenchmarkEvaluateGrid/IVR 100 510000 ns/op 8500000 points/s
`, 1},
		{"throughput-regression", `
BenchmarkEvaluateETEE 1000 400.0 ns/op
BenchmarkEvaluateGrid/IVR 100 500000 ns/op 7000000 points/s
`, 1},
		{"nothing-shared", "BenchmarkUnrelated 10 5.0 ns/op\n", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(strings.NewReader(tc.input), &out, &errOut,
				[]string{"-check", "-baseline", path, "-tolerance", "0.15"})
			if code != tc.wantCode {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, out.String(), errOut.String())
			}
			if tc.wantCode != 0 && tc.name != "nothing-shared" && !strings.Contains(out.String(), "REGRESSED") {
				t.Errorf("regression verdict missing from output:\n%s", out.String())
			}
		})
	}
}

// TestCheckReportsAllRegressions pins the gate's whole-run reporting: when
// several metrics regress at once, every one gets its own REGRESSED verdict
// line in a single invocation (no stop-at-first-failure), the stderr count
// matches, and the run ends with the one-line summary.
func TestCheckReportsAllRegressions(t *testing.T) {
	path := writeBaseline(t, "current", `
BenchmarkEvaluateETEE 1000 400.0 ns/op
BenchmarkEvaluateGrid/IVR 100 500000 ns/op 9000000 points/s
BenchmarkEvaluateGridParallel/workers=4 50 1000000 ns/op 4000000 points/s
`)
	// Three distinct regressions: ETEE ns/op, grid points/s, parallel ns/op.
	input := `
BenchmarkEvaluateETEE 1000 900.0 ns/op
BenchmarkEvaluateGrid/IVR 100 500000 ns/op 1000000 points/s
BenchmarkEvaluateGridParallel/workers=4 50 9000000 ns/op 3900000 points/s
`
	var out, errOut strings.Builder
	code := run(strings.NewReader(input), &out, &errOut,
		[]string{"-check", "-baseline", path, "-tolerance", "0.15"})
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if got := strings.Count(out.String(), "REGRESSED"); got != 3 {
		t.Errorf("want 3 REGRESSED verdict lines in one run, got %d:\n%s", got, out.String())
	}
	if !strings.Contains(errOut.String(), "3 metric comparison(s) regressed") {
		t.Errorf("stderr count missing:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "3 benchmark(s) compared, 5 metric line(s), 3 regression(s), 0 skipped") {
		t.Errorf("summary line missing or wrong:\n%s", out.String())
	}
}

// TestCheckGateFlagErrors pins the gate's operator errors: missing
// -baseline, an absent file, and an unknown label all fail loudly rather
// than passing vacuously.
func TestCheckGateFlagErrors(t *testing.T) {
	const input = "BenchmarkEvaluateETEE 1000 400.0 ns/op\n"
	path := writeBaseline(t, "other-label", input)
	for name, args := range map[string][]string{
		"no-baseline":   {"-check"},
		"missing-file":  {"-check", "-baseline", filepath.Join(t.TempDir(), "nope.json")},
		"unknown-label": {"-check", "-baseline", path, "-against", "current"},
	} {
		t.Run(name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(strings.NewReader(input), &out, &errOut, args); code == 0 {
				t.Errorf("exit 0, want non-zero; stderr:\n%s", errOut.String())
			}
		})
	}
}

// abLine is one perfbench A/B record line with two end-to-end metrics.
func abLine(side string, pair int, evals, latency float64) string {
	return fmt.Sprintf(`{"side":%q,"pair":%d,"seed":%d,"result":{"correct":true,"attempted":100,"failed":1,`+
		`"metrics":{"evals_per_s":{"value":%g,"unit":"1/s"},"latency_mean_ms":{"value":%g,"unit":"ms"}}}}`+"\n",
		side, pair, 100+pair, evals, latency)
}

// TestPairs pins the A/B summary: medians and quartiles per side, the
// pairs won in each metric's better direction, and the gain rule. Here
// evals/s wins every pair by far more than the base's IQR (a gain), and
// latency wins 9 of 10 pairs but by less than the base's IQR (no gain).
func TestPairs(t *testing.T) {
	var in strings.Builder
	for i := 1; i <= 10; i++ {
		// Alternate which side comes first, as the runs do.
		lat := 10 + float64(i)
		change := abLine("change", i, 200+float64(i), lat-0.5)
		if i == 3 {
			change = abLine("change", i, 200+float64(i), lat+0.5)
		}
		if i%2 == 1 {
			in.WriteString(abLine("base", i, 100+float64(i), lat) + change)
		} else {
			in.WriteString(change + abLine("base", i, 100+float64(i), lat))
		}
	}
	var out, errOut strings.Builder
	if code := run(strings.NewReader(in.String()), &out, &errOut, []string{"-pairs"}); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{
		"base   10 runs, 10 correct, 10 of 1000 operations failed",
		// base 101..110: median 105.5, quartiles at 103.25 and 107.75.
		"evals_per_s",
		"105.5 [103.2, 107.8]",
		"205.5 [203.2, 207.8]",
		"1.948",
		"10/10  holds",
		"15.5 [13.25, 17.75]",
		"9/10   no",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}

// TestPairsFailedRun pins that a run without a result, or with wrong
// answers, fails the summary.
func TestPairsFailedRun(t *testing.T) {
	wrong := strings.Replace(abLine("change", 1, 2, 1), `"correct":true`, `"correct":false`, 1)
	for name, in := range map[string]string{
		"no result": abLine("base", 1, 1, 1) + `{"side":"change","pair":1,"seed":101,"result":null}` + "\n",
		"wrong":     abLine("base", 1, 1, 1) + wrong,
		"bad side":  `{"side":"parent","pair":1,"result":null}` + "\n",
	} {
		var out, errOut strings.Builder
		if code := run(strings.NewReader(in), &out, &errOut, []string{"-pairs"}); code != 1 {
			t.Errorf("%s: exit %d, want 1; stderr %s", name, code, errOut.String())
		}
	}
}
