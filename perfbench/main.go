// Command perfbench is flexwattsd's end-to-end benchmark. It serves the
// real handler (server.New over experiments.NewEnv, with cmd/flexwattsd's
// http.Server settings) on a loopback listener inside its own process,
// drives it with at most two connections, checks every answer, and prints
// the end-to-end metrics of one workload — or, with --trace 1, the
// per-layer metrics of a traced run. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// Every process, listener and connection the run opens ends with it: on
// success, on a failed check, on a panic, on SIGINT/SIGTERM and at the
// run's hard deadline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// setupRuns is how many times a run sets up (environment, server,
// listener, warm-up); setup_s is their median.
//
// A set-up is timed by the process's CPU clock, not the wall clock. Some
// runs had only one core free for their set-ups for up to half a second:
// a set-up then used 1.0 core instead of 1.9, and its wall-clock time
// doubled while its CPU time stayed put.
const setupRuns = 11

type unitMetric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []unitMetric{
	{"setup_s", "s"},
	{"evals_per_s", "1/s"},
	{"latency_mean_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"first_byte_mean_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []unitMetric{
	{"server.handle_ms", "ms"},
	{"http.transport_ms", "ms"},
	{"api.decode_ms", "ms"},
	{"api.point_ms", "ms"},
	{"workload.scenario_ms", "ms"},
	{"sweep.grid_ms", "ms"},
	{"sweep.map_ms", "ms"},
	{"sweep.stream_ms", "ms"},
	{"sweep.hit_ratio", "fraction"},
	{"sweep.cache_keys", "count"},
	{"pdn.kernel_ms", "ms"},
	{"pdn.scalar_ms", "ms"},
	{"pdn.memo_share", "fraction"},
	{"core.predict_ms", "ms"},
	{"core.auto_ms", "ms"},
	{"core.gridmode_ms", "ms"},
	{"core.ldo_share", "fraction"},
	{"api.encode_ms", "ms"},
	{"api.bytes_in", "B"},
	{"api.bytes_out", "B"},
	{"optimize.run_ms", "ms"},
	{"perf.freq_ratio_us", "us"},
	{"optimize.perf_share", "fraction"},
	{"runtime.alloc_mb_per_req", "MB"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.gc_cpu_share", "fraction"},
	{"loadgen.lag_p90_ms", "ms"},
	{"trace.unaccounted_share", "fraction"},
	{"trace.overhead_share", "fraction"},
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: flex-small, sweep-cold, scatter-warm or optimize")
	seed := fs.Int64("seed", 1, "seed the request bodies are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds, half in the closed loop and half in the open loop")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		if err == nil {
			err = errors.New("--seconds must be >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	// The run ends by its deadline whatever happens; should a shutdown
	// itself hang, the watchdog ends the process, and the kernel closes
	// whatever the process held.
	limit := 2*time.Duration(*seconds)*time.Second + 90*time.Second
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	watchdog := time.AfterFunc(limit+15*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: shutdown overran the hard deadline; exiting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := bench(ctx, d, *seed, *seconds, *trace == 1, stdout, stderr)
	if err != nil {
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			fmt.Fprintf(stderr, "perfbench: hard deadline of %s passed: %v\n", limit, err)
		case ctx.Err() != nil:
			fmt.Fprintln(stderr, "perfbench: interrupted:", err)
		default:
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: wrong answers; see above")
		return 1
	}
	return 0
}

// bench runs one workload: set-up, then the timed phases, then the checks.
// Every instance it serves from is shut down before it returns, on every
// path.
func bench(ctx context.Context, d workloadDef, seed int64, seconds int, traced bool, stdout, stderr io.Writer) (res result, err error) {
	total := time.Duration(seconds) * time.Second
	closedDur := total / 2
	openDur := total - closedDur
	r := &runner{ctx: ctx, d: d, seed: seed, src: newSource(d, seed), stderr: stderr, traced: traced}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		r.shut()
		if r.cur != nil {
			r.cur.ck.discard()
		}
	}()
	in := r.src.round()
	r.pace = newPacer()
	setups := make([]float64, 0, setupRuns)
	walls := make([]float64, 0, setupRuns)
	for k := 0; k < setupRuns; k++ {
		r.shut()
		runtime.GC() // each set-up starts from a collected heap
		cpu := processCPU()
		took, err := r.start(in, k == setupRuns-1)
		if err != nil {
			return result{}, err
		}
		cpu = processCPU() - cpu
		_, cpuPace := r.pace.segment()
		setups = append(setups, cpu.Seconds()/cpuPace)
		walls = append(walls, took.Seconds())
	}
	fmt.Fprintf(stderr, "perfbench: set-ups took %.4g CPU s (host-paced), %.4g s on the wall clock\n", setups, walls)
	if traced {
		return r.tracedRun(closedDur, openDur, stdout)
	}

	fmt.Fprintln(stderr, "perfbench: phase closed-loop")
	closed, _, err := r.closedPhase(closedDur, (*checker).measure)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(stderr, "perfbench: phase open-loop")
	open, err := r.openPhase(openDur)
	if err != nil {
		return result{}, err
	}
	hwm, err := vmHWM()
	if err != nil {
		return result{}, err
	}
	if err := r.finish(); err != nil {
		return result{}, err
	}
	m := map[string]float64{
		"setup_s":            median(setups),
		"evals_per_s":        closed.units / closed.paced.Seconds(),
		"latency_mean_ms":    mean(millis(closed.lat)),
		"latency_p90_ms":     percentile(millis(closed.lat), 0.9),
		"first_byte_mean_ms": mean(millis(closed.first)),
		"rss_peak_mb":        hwm,
	}
	res = r.result(closed, open, endToEnd, m)
	fmt.Fprintf(stdout, "perfbench %s seed %d: closed loop %s on %d connections (%d requests), open loop %s at %g req/s (%d requests), %d rounds; host pace median %.3f over %d segments\n",
		d.name, seed, closedDur, conns, closed.attempted, openDur, d.openRate, open.attempted, r.rounds, median(r.pace.all), len(r.pace.all))
	printMetrics(stdout, endToEnd, m)
	fmt.Fprintf(stdout, "  %-26s %14.6g %-8s (table only: wall clock, not host-paced)\n", "evals_per_s", closed.units/closed.elapsed.Seconds(), "1/s")
	fmt.Fprintf(stdout, "  %-26s %14.6g %-8s (table only: bimodal, see README.md)\n", "latency_p50_ms", median(millis(closed.lat)), "ms")
	fmt.Fprintf(stdout, "  %-26s %14.6g %-8s (table only: bimodal, see README.md)\n", "first_byte_p50_ms", median(millis(closed.first)), "ms")
	openLat := millis(open.lat)
	fmt.Fprintf(stdout, "  %-26s %14.6g %-8s (table only: too noisy to gate)\n", "open_latency_p50_ms", median(openLat), "ms")
	fmt.Fprintf(stdout, "  %-26s %14.6g %-8s (table only: too noisy to gate)\n", "open_latency_p90_ms", percentile(openLat, 0.9), "ms")
	fmt.Fprintf(stdout, "  %-26s %14.6g %-8s (%d of %d requests failed, were shed or answered wrong)\n",
		"error_share", float64(res.Failed)/float64(res.Attempted), "fraction", res.Failed, res.Attempted)
	if r.why != "" {
		fmt.Fprintln(stdout, "  first wrong answer:", r.why)
	}
	return res, nil
}

// runner holds a run's current round: one instance serving one set of
// inputs. A pool workload runs in a single round; a workload without a
// pool starts a fresh round whenever its bodies are spent.
type runner struct {
	ctx    context.Context
	d      workloadDef
	seed   int64
	src    *source
	stderr io.Writer
	traced bool
	tr     *tracer // traced runs only, once the set-ups are done
	pace   *pacer

	cur      *round
	rounds   int
	peakKeys int // the most cache keys any round's instance held
	wrong    int // wrong answers of finished rounds
	late     int // of those, the ones the phases had counted as good
	why      string
}

type round struct {
	in    inputs
	inst  *instance
	cl    *client
	ck    *checker
	next  int  // the current phase's next index into its order
	spent bool // a round without a pool has sent its measured bodies
}

// start opens a round on in: a fresh instance warmed up with in's warm-up
// bodies. It returns the set-up time (environment, server, listener,
// warm-up). Only a kept round's warm-up answers become the checker's
// references.
func (r *runner) start(in inputs, keep bool) (time.Duration, error) {
	ck := newChecker(r.d, in, r.seed+int64(r.rounds)*7919)
	obs := observer(statusOnly)
	if keep {
		obs = ck.warm
	}
	begin := time.Now()
	inst, err := startInstance(r.stderr, r.traced)
	if err != nil {
		return 0, err
	}
	r.cur = &round{in: in, inst: inst, cl: newClient(inst.addr, r.d.path), ck: ck}
	r.cur.cl.tagged = r.traced
	err = warmUp(r.ctx, r.cur.cl, in.bodies, in.warm, obs)
	took := time.Since(begin)
	if err != nil {
		return 0, err
	}
	if keep {
		r.rounds++
	}
	if keep && r.tr != nil {
		return took, r.tr.reset(in, inst.times)
	}
	return took, nil
}

// shut closes the current round's instance and connections, if any.
func (r *runner) shut() {
	if r.cur == nil || r.cur.inst == nil {
		return
	}
	r.peakKeys = max(r.peakKeys, r.cur.inst.env.Cache.Len())
	r.cur.cl.tr.CloseIdleConnections()
	r.cur.inst.close()
	r.cur.inst = nil
}

// finish shuts the current round and checks its answers in full.
func (r *runner) finish() error {
	if r.cur == nil {
		return nil
	}
	r.shut()
	ck := r.cur.ck
	r.cur = nil
	runtime.GC()
	late, err := ck.validate(r.ctx)
	r.late += late
	if ck.wrong > 0 && r.wrong == 0 {
		r.why = ck.why
	}
	r.wrong += ck.wrong
	runtime.GC()
	return err
}

// next replaces a spent round with a fresh one; its set-up is not timed.
func (r *runner) next() error {
	if err := r.finish(); err != nil {
		return err
	}
	_, err := r.start(r.src.round(), true)
	return err
}

// closedPhase runs the closed loop for dur of measured time in segments,
// over as many rounds as the workload's bodies need; obs checks each
// answer. Each segment is scaled by the host's pace over it.
func (r *runner) closedPhase(dur time.Duration, obs func(*checker, int, reply) bool) (phase, runtimeSample, error) {
	var total phase
	var rt runtimeSample
	r.cur.next = 0
	for total.elapsed < dur {
		if r.cur.spent {
			if err := r.next(); err != nil {
				return total, rt, err
			}
		}
		ck := r.cur.ck
		before := readRuntime()
		p, err := closedLoop(r.ctx, r.cur.cl, r.cur.in.bodies, r.cur.in.closed, r.cur.next, r.cur.in.cycle, conns, min(segmentLen, dur-total.elapsed),
			func(seq int, rep reply) bool { return obs(ck, seq, rep) })
		rt = rt.plus(readRuntime().minus(before))
		pace, _ := r.pace.segment()
		p.scale(pace)
		r.cur.next = p.next
		r.cur.spent = !r.cur.in.cycle && p.next >= len(r.cur.in.closed)
		for _, b := range p.oks {
			p.units += ck.units(b)
		}
		total = total.plus(p)
		if err != nil {
			return total, rt, err
		}
		if p.attempted == 0 {
			break
		}
	}
	// A round without a pool never sends its bodies twice, so the next
	// phase starts on a fresh one.
	r.cur.spent = !r.cur.in.cycle
	return total, rt, nil
}

// openPhase runs the open loop for dur of scheduled time in segments,
// over as many rounds as the workload's bodies need; each segment keeps
// the fixed rate and is scaled by the host's pace over it.
func (r *runner) openPhase(dur time.Duration) (phase, error) {
	var total phase
	r.cur.next = 0
	for sched := time.Duration(0); sched < dur; {
		seg := min(segmentLen, dur-sched)
		sched += seg
		if math.Round(r.d.openRate*seg.Seconds()) < 1 {
			break
		}
		if r.cur.spent {
			if err := r.next(); err != nil {
				return total, err
			}
		}
		p, err := openLoop(r.ctx, r.cur.cl, r.cur.in.bodies, r.cur.in.open, r.cur.next, r.cur.in.cycle, r.d.openRate, seg, r.cur.ck.measure)
		pace, _ := r.pace.segment()
		p.scale(pace)
		r.cur.next = p.next
		r.cur.spent = !r.cur.in.cycle && p.next >= len(r.cur.in.open)
		total = total.plus(p)
		if err != nil {
			return total, err
		}
	}
	r.cur.spent = !r.cur.in.cycle
	return total, nil
}

func (r *runner) result(closed, open phase, names []unitMetric, m map[string]float64) result {
	res := result{
		Correct:   r.wrong == 0,
		Attempted: closed.attempted + open.attempted,
		Failed:    closed.failed + open.failed + r.late,
		Metrics:   make(map[string]valueUnit, len(names)),
	}
	for _, n := range names {
		res.Metrics[n.name] = valueUnit{Value: m[n.name], Unit: n.unit}
	}
	return res
}

// tracedRun is the traced variant of the timed phases: an untraced
// closed-loop half, a closed-loop half whose sampled requests are
// replayed through the layers, and the open loop for the generator's lag.
func (r *runner) tracedRun(closedDur, openDur time.Duration, stdout io.Writer) (result, error) {
	t := newTracer(r.d)
	r.tr = t
	if err := t.reset(r.cur.in, r.cur.inst.times); err != nil {
		return result{}, err
	}
	fmt.Fprintln(r.stderr, "perfbench: phase closed-loop")
	plain, rt, err := r.closedPhase(closedDur/2, (*checker).measure)
	if err != nil {
		return result{}, err
	}
	sample := func(ck *checker, seq int, rep reply) bool {
		ok := ck.measure(seq, rep)
		if ok && (seq == 0 || sampled(r.seed, seq, r.d.traceShare)) {
			t.trace(ck.in.bodies[rep.body], rep)
		}
		return ok
	}
	fmt.Fprintln(r.stderr, "perfbench: phase traced closed-loop")
	withTrace, _, err := r.closedPhase(closedDur-closedDur/2, sample)
	if err == nil {
		err = t.err
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(r.stderr, "perfbench: phase open-loop")
	open, err := r.openPhase(openDur)
	if err != nil {
		return result{}, err
	}
	if err := r.finish(); err != nil {
		return result{}, err
	}
	m := t.layerMetrics()
	reqs := float64(len(plain.oks))
	m["sweep.cache_keys"] = float64(r.peakKeys)
	m["runtime.alloc_mb_per_req"] = rt.allocBytes / reqs / (1 << 20)
	m["runtime.allocs_per_req"] = rt.allocObjects / reqs
	m["runtime.gc_cpu_share"] = ratio(rt.gcCPU, rt.totalCPU-rt.idleCPU)
	m["loadgen.lag_p90_ms"] = percentile(millis(open.lag), 0.9)
	m["trace.overhead_share"] = mean(millis(withTrace.lat))/mean(millis(plain.lat)) - 1

	res := r.result(plain.plus(withTrace), open, perLayer, m)
	fmt.Fprintf(stdout, "perfbench %s seed %d, traced: %d of %d closed-loop requests replayed\n",
		r.d.name, r.seed, len(t.reqs), withTrace.attempted)
	t.waterfall(stdout, m)
	printMetrics(stdout, perLayer, m)
	path, err := t.writeSpans(r.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "  %d spans written to %s\n", len(t.spans), path)
	return res, nil
}

func printMetrics(w io.Writer, names []unitMetric, m map[string]float64) {
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n.name, m[n.name], n.unit)
	}
}
