// Command benchjson converts `go test -bench` output read from stdin into a
// machine-readable JSON perf record, so the repository can track its
// benchmark trajectory across PRs (BENCH_<pr>.json) and CI can upload the
// numbers as an artifact.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -label current -out BENCH_2.json
//
// With -out, the file is read first (if it exists) and the labeled run is
// merged into its "runs" map — recording a new measurement never discards a
// committed baseline under a different label. Without -out, the document is
// written to stdout.
//
// With -check, benchjson is a perf gate instead of a recorder: it reads a
// fresh `go test -bench` run from stdin, compares it against a labeled run
// in the -baseline document, and exits non-zero when any shared benchmark
// regressed beyond -tolerance — ns/op growing past baseline×(1+tol), or a
// throughput metric (any custom unit ending in "/s", e.g. the grid
// kernels' points/s) dropping below baseline×(1−tol):
//
//	go test -run '^$' -bench . -benchmem . | benchjson -check -baseline BENCH_8.json -tolerance 0.15
//
// With -pairs, benchjson summarizes paired perfbench runs of a base
// revision and a change, as `make perfbench-ab` records them: one JSON
// object per run on stdin, {"side": "base"|"change", "pair", "seed",
// "result"}, where result is perfbench's final line. Per metric it prints
// each side's median and quartiles, the change/base ratio of the medians,
// the pairs the change won (ties count for neither), and whether the gain
// rule holds: the change won at least nine tenths of the pairs and its
// median beats the base's by more than the base's interquartile range. A
// unit ending in "/s" is better higher, every other unit lower. It exits
// 1 when a run printed no result or answered wrongly:
//
//	benchjson -pairs < .bench_build/ab/sweep-cold.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units (e.g. "J", "switches").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is one recorded benchmark session.
type Run struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Document is the on-disk perf record: labeled runs (e.g. "baseline" from
// before an optimization PR and "current" after it).
type Document struct {
	Schema int            `json:"schema"`
	Runs   map[string]Run `json:"runs"`
}

// parse reads `go test -bench` output and collects header fields and
// benchmark lines; non-benchmark output (PASS, ok, test logs) is skipped.
func parse(r io.Reader) (Run, error) {
	var run Run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			run.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			run.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			run.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseBenchLine(line)
		if ok {
			run.Benchmarks = append(run.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return Run{}, err
	}
	if len(run.Benchmarks) == 0 {
		return Run{}, errors.New("benchjson: no benchmark lines found on stdin")
	}
	return run, nil
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   1303594   907.3 ns/op   48 B/op   1 allocs/op   3.2 J
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix go test appends to the name.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// merge loads the existing document at path (if any) and sets runs[label].
func merge(path, label string, run Run) (Document, error) {
	doc := Document{Schema: 1, Runs: map[string]Run{}}
	if path != "" {
		data, err := os.ReadFile(path)
		switch {
		case err == nil:
			if err := json.Unmarshal(data, &doc); err != nil {
				return Document{}, fmt.Errorf("benchjson: %s: %w", path, err)
			}
			if doc.Runs == nil {
				doc.Runs = map[string]Run{}
			}
		case !errors.Is(err, os.ErrNotExist):
			return Document{}, err
		}
	}
	doc.Schema = 1
	doc.Runs[label] = run
	return doc, nil
}

// compare gates a fresh run against a baseline run: every benchmark present
// in both is compared on ns/op (higher is worse) and on each shared
// throughput metric — a custom unit ending in "/s" (lower is worse). The
// gate never stops at the first failure: it writes one verdict line per
// metric comparison, then a final one-line summary of the whole run
// (benchmarks compared, metric lines, regressions, skips), and returns the
// number of regressions beyond tolerance. Benchmarks present on only one
// side are reported but never fail the gate: short CI runs gate a subset
// via -bench regexes, and the baseline document may carry runs (SLO lines,
// retired benchmarks) the fresh output doesn't reproduce.
func compare(w io.Writer, current, baseline Run, tolerance float64) int {
	base := make(map[string]Benchmark, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	regressions, shared, comparisons, skipped := 0, 0, 0, 0
	verdict := func(name, metric string, cur, ref, worstOK float64, regressed bool) {
		comparisons++
		status := "ok"
		if regressed {
			status = "REGRESSED"
			regressions++
		}
		fmt.Fprintf(w, "%-9s %s %s: %g vs baseline %g (limit %g)\n",
			status, name, metric, cur, ref, worstOK)
	}
	for _, cur := range current.Benchmarks {
		ref, ok := base[cur.Name]
		if !ok {
			skipped++
			fmt.Fprintf(w, "skipped   %s: not in baseline\n", cur.Name)
			continue
		}
		shared++
		if ref.NsPerOp > 0 {
			limit := ref.NsPerOp * (1 + tolerance)
			verdict(cur.Name, "ns/op", cur.NsPerOp, ref.NsPerOp, limit, cur.NsPerOp > limit)
		}
		for unit, refV := range ref.Metrics {
			if !strings.HasSuffix(unit, "/s") || refV <= 0 {
				continue
			}
			curV, ok := cur.Metrics[unit]
			if !ok {
				continue
			}
			limit := refV * (1 - tolerance)
			verdict(cur.Name, unit, curV, refV, limit, curV < limit)
		}
	}
	for name := range base {
		found := false
		for _, cur := range current.Benchmarks {
			if cur.Name == name {
				found = true
				break
			}
		}
		if !found {
			skipped++
			fmt.Fprintf(w, "skipped   %s: not in this run\n", name)
		}
	}
	fmt.Fprintf(w, "benchjson: %d benchmark(s) compared, %d metric line(s), %d regression(s), %d skipped\n",
		shared, comparisons, regressions, skipped)
	if shared == 0 {
		fmt.Fprintln(w, "REGRESSED (no benchmark shared between run and baseline — gate has nothing to hold)")
		return 1
	}
	return regressions
}

// check runs the perf gate: stdin vs doc.Runs[label] of the baseline file.
func check(stdin io.Reader, stdout, stderr io.Writer, baselinePath, label string, tolerance float64) int {
	if baselinePath == "" {
		fmt.Fprintln(stderr, "benchjson: -check requires -baseline")
		return 2
	}
	cur, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(stderr, "benchjson: %s: %v\n", baselinePath, err)
		return 1
	}
	ref, ok := doc.Runs[label]
	if !ok {
		fmt.Fprintf(stderr, "benchjson: %s has no run labeled %q\n", baselinePath, label)
		return 1
	}
	if n := compare(stdout, cur, ref, tolerance); n > 0 {
		fmt.Fprintf(stderr, "benchjson: %d metric comparison(s) regressed beyond %.0f%% of %s %q\n",
			n, tolerance*100, baselinePath, label)
		return 1
	}
	fmt.Fprintf(stdout, "benchjson: no regression beyond %.0f%% of %s %q\n",
		tolerance*100, baselinePath, label)
	return 0
}

func run(stdin io.Reader, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	label := fs.String("label", "current", "run label to record under (e.g. baseline, current)")
	out := fs.String("out", "", "JSON file to merge the run into (stdout if empty)")
	doCheck := fs.Bool("check", false, "gate mode: compare stdin against -baseline instead of recording")
	baseline := fs.String("baseline", "", "baseline BENCH_<pr>.json document for -check")
	against := fs.String("against", "current", "run label inside -baseline to compare with")
	tolerance := fs.Float64("tolerance", 0.15, "allowed fractional regression in -check mode")
	doPairs := fs.Bool("pairs", false, "summarize paired perfbench runs (make perfbench-ab's JSON lines) from stdin")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *doPairs {
		return summarizePairs(stdin, stdout, stderr)
	}
	if *doCheck {
		return check(stdin, stdout, stderr, *baseline, *against, *tolerance)
	}
	r, err := parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	doc, err := merge(*out, *label, r)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:])) }
