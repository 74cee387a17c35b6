package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// abRun is one line of a perfbench A/B record (scripts/perfbench_ab.sh):
// which side ran, in which pair, and perfbench's final JSON line, null
// when the run printed none.
type abRun struct {
	Side   string `json:"side"`
	Pair   int    `json:"pair"`
	Seed   int64  `json:"seed"`
	Result *struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// quantile is the q-quantile of sorted xs, interpolated linearly between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// pairSummary is one metric's comparison over the pairs run.
type pairSummary struct {
	higher       bool // a rate: higher is better
	base, change []float64
	pairs, won   int
}

// gain applies the claim rule: the change won at least nine tenths of the
// pairs (ties win nothing), and its median beats the base's by more than
// the base's interquartile range.
func (s pairSummary) gain() bool {
	if s.pairs == 0 || 10*s.won < 9*s.pairs {
		return false
	}
	b, c := sorted(s.base), sorted(s.change)
	iqr := quantile(b, 0.75) - quantile(b, 0.25)
	d := quantile(c, 0.5) - quantile(b, 0.5)
	if !s.higher {
		d = -d
	}
	return d > iqr
}

// num renders a metric value: whole numbers from 1000 up, four
// significant digits below.
func num(x float64) string {
	if math.Abs(x) >= 1000 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// summarizePairs reads A/B run lines and writes, per metric, each side's
// median and quartiles, the change/base ratio of the medians, the pairs
// the change won and whether the gain rule holds. A metric whose unit
// ends in "/s" is better higher, every other lower. It returns 1 when a
// run printed no result or answered wrongly, 0 otherwise.
func summarizePairs(stdin io.Reader, stdout, stderr io.Writer) int {
	type side struct{ runs, correct, attempted, failed int }
	sides := map[string]*side{"base": {}, "change": {}}
	// values[metric][pair][side]
	values := map[string]map[int]map[string]float64{}
	units := map[string]string{}
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r abRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			fmt.Fprintf(stderr, "benchjson: line %d: %v\n", line, err)
			return 1
		}
		sd := sides[r.Side]
		if sd == nil {
			fmt.Fprintf(stderr, "benchjson: line %d: side %q, want base or change\n", line, r.Side)
			return 1
		}
		sd.runs++
		if r.Result == nil {
			continue
		}
		if r.Result.Correct {
			sd.correct++
		}
		sd.attempted += r.Result.Attempted
		sd.failed += r.Result.Failed
		for name, m := range r.Result.Metrics {
			units[name] = m.Unit
			if values[name] == nil {
				values[name] = map[int]map[string]float64{}
			}
			if values[name][r.Pair] == nil {
				values[name][r.Pair] = map[string]float64{}
			}
			values[name][r.Pair][r.Side] = m.Value
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	for _, name := range []string{"base", "change"} {
		sd := sides[name]
		fmt.Fprintf(stdout, "%-6s %d runs, %d correct, %d of %d operations failed\n",
			name, sd.runs, sd.correct, sd.failed, sd.attempted)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-22s %-5s %-34s %-34s %-8s %-6s %s\n",
		"metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "ratio", "won", "gain")
	for _, name := range names {
		s := pairSummary{higher: strings.HasSuffix(units[name], "/s")}
		pairs := make([]int, 0, len(values[name]))
		for p := range values[name] {
			pairs = append(pairs, p)
		}
		sort.Ints(pairs)
		for _, p := range pairs {
			v := values[name][p]
			b, okB := v["base"]
			c, okC := v["change"]
			if !okB || !okC {
				continue
			}
			s.base, s.change = append(s.base, b), append(s.change, c)
			s.pairs++
			if (s.higher && c > b) || (!s.higher && c < b) {
				s.won++
			}
		}
		if s.pairs == 0 {
			continue
		}
		b, c := sorted(s.base), sorted(s.change)
		quart := func(xs []float64) string {
			return fmt.Sprintf("%s [%s, %s]", num(quantile(xs, 0.5)), num(quantile(xs, 0.25)), num(quantile(xs, 0.75)))
		}
		ratio := math.NaN()
		if m := quantile(b, 0.5); m != 0 {
			ratio = quantile(c, 0.5) / m
		}
		verdict := "no"
		if s.gain() {
			verdict = "holds"
		}
		fmt.Fprintf(stdout, "%-22s %-5s %-34s %-34s %-8.4g %-6s %s\n",
			name, units[name], quart(b), quart(c), ratio, fmt.Sprintf("%d/%d", s.won, s.pairs), verdict)
	}
	for _, name := range []string{"base", "change"} {
		if sd := sides[name]; sd.correct != sd.runs {
			fmt.Fprintf(stderr, "benchjson: %d of %d %s runs printed no result or answered wrongly\n",
				sd.runs-sd.correct, sd.runs, name)
			return 1
		}
	}
	return 0
}
