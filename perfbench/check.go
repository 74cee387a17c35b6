package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/flexwatts"
	"repro/flexwatts/api"
)

// checker verifies every answer a run receives.
//
// A pool workload sends each body many times and flexwattsd is
// deterministic, so each body's warm-up answer becomes its reference: it
// is checked in full after the timed phases, and every later answer must
// equal it byte for byte. Without a pool every body is sent once; those
// answers are written to files as they arrive and checked in full after
// the timed phases, so the copies stay out of the peak resident set that
// rss_peak_mb reports. A full check is structural (status 200, one result
// per point, stream indices once and in order with no error lines, a
// search that scored its whole space) plus, for a seeded sample, a
// bit-for-bit comparison against the in-process library.
type checker struct {
	d    workloadDef
	in   inputs
	seed int64
	ref  [][]byte       // pool: warm-up answer per body
	uses []atomic.Int64 // pool: measured answers equal to ref, per body

	mu    sync.Mutex
	spill string // no pool: the directory of the kept answers' files
	kept  []kept // no pool: answers awaiting their full check
	wrong int    // answers found wrong so far
	why   string // the first wrong answer's reason
}

type kept struct {
	body int
	path string // empty if the answer could not be written
	err  error
}

func newChecker(d workloadDef, in inputs, seed int64) *checker {
	return &checker{d: d, in: in, seed: seed, ref: make([][]byte, len(in.bodies)), uses: make([]atomic.Int64, len(in.bodies))}
}

// statusOnly accepts any 200; the set-up rounds whose instance is thrown
// away use it.
func statusOnly(_ int, r reply) bool { return r.err == nil && r.status == http.StatusOK }

// warm records the final set-up round's warm-up answers as references.
func (c *checker) warm(_ int, r reply) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	if c.d.pool > 0 {
		c.ref[r.body] = bytes.Clone(r.data)
	} else {
		c.keep(r)
	}
	return true
}

// measure checks one answer of a timed phase.
func (c *checker) measure(_ int, r reply) bool {
	if r.err != nil || r.status != http.StatusOK {
		return false
	}
	if c.d.pool == 0 {
		c.keep(r)
		return true
	}
	if !bytes.Equal(r.data, c.ref[r.body]) {
		c.fail(fmt.Sprintf("body %d: answer differs from its warm-up answer", r.body), 1)
		return false
	}
	c.uses[r.body].Add(1)
	return true
}

// spillRoot holds the kept answers' directories, inside the build
// directory of the checkout the benchmark runs from.
const spillRoot = ".bench_build"

// keep writes an answer to a file of its own for the full check. A write
// that fails is kept as an error, which the full check reports.
func (c *checker) keep(r reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := kept{body: r.body}
	if c.spill == "" {
		if err := os.MkdirAll(spillRoot, 0o755); err != nil {
			k.err = err
		} else if c.spill, err = os.MkdirTemp(spillRoot, "perfbench-answers-"); err != nil {
			k.err = err
		}
	}
	if k.err == nil {
		k.path = filepath.Join(c.spill, strconv.Itoa(len(c.kept)))
		k.err = os.WriteFile(k.path, r.data, 0o644)
	}
	c.kept = append(c.kept, k)
}

// discard removes the kept answers' files.
func (c *checker) discard() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill != "" {
		os.RemoveAll(c.spill) //nolint:errcheck // the build directory is scratch
		c.spill = ""
	}
}

func (c *checker) fail(why string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wrong == 0 {
		c.why = why
	}
	c.wrong += n
}

// validate runs the full checks after the timed phases and returns how
// many answers that the phases counted as good turned out wrong. It
// removes the kept answers' files.
func (c *checker) validate(ctx context.Context) (int, error) {
	defer c.discard()
	lib, err := flexwatts.NewClient(flexwatts.WithCache(false))
	if err != nil {
		return 0, err
	}
	late := 0
	if c.d.pool > 0 {
		for b, data := range c.ref {
			if data == nil {
				continue
			}
			if err := c.full(ctx, lib, b, data, true); err != nil {
				n := int(c.uses[b].Load())
				c.fail(err.Error(), n)
				late += n
			}
		}
		return late, ctx.Err()
	}
	for _, k := range c.kept {
		if ctx.Err() != nil {
			break
		}
		err := k.err
		if err == nil {
			var data []byte
			if data, err = os.ReadFile(k.path); err == nil {
				err = c.full(ctx, lib, k.body, data, sampled(c.seed, k.body, 1.0/8))
			}
		}
		if err != nil {
			c.fail(err.Error(), 1)
			late++
		}
	}
	return late, ctx.Err()
}

// units is the work one good answer to body represents: its points, or
// for a search the candidates it scored.
func (c *checker) units(body int) float64 {
	if c.d.points > 0 {
		return float64(c.d.points)
	}
	var resp api.OptimizeResponse
	if err := json.Unmarshal(c.ref[body], &resp); err != nil {
		return 0
	}
	return float64(resp.Evaluated)
}

// full checks one answer's structure and, when compare is set, its values
// against the in-process library bit for bit.
func (c *checker) full(ctx context.Context, lib *flexwatts.Client, body int, data []byte, compare bool) error {
	if c.d.points == 0 {
		return checkSearch(ctx, lib, c.in.bodies[body], data, compare)
	}
	var req api.EvalRequest
	if err := json.Unmarshal(c.in.bodies[body], &req); err != nil {
		return err
	}
	var got []api.EvalResult
	if c.d.stream() {
		lines, err := streamResults(data, len(req.Points))
		if err != nil {
			return fmt.Errorf("body %d: %w", body, err)
		}
		got = lines
	} else {
		var resp api.EvalResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return fmt.Errorf("body %d: %w", body, err)
		}
		got = resp.Results
	}
	if len(got) != len(req.Points) {
		return fmt.Errorf("body %d: %d results for %d points", body, len(got), len(req.Points))
	}
	for i, p := range req.Points {
		if got[i].PDN != p.PDN {
			return fmt.Errorf("body %d point %d: result for %s, asked %s", body, i, got[i].PDN, p.PDN)
		}
	}
	if !compare {
		return nil
	}
	pts := make([]flexwatts.Point, len(req.Points))
	for i, p := range req.Points {
		pt, err := p.Point()
		if err != nil {
			return err
		}
		pts[i] = pt
	}
	want, err := lib.EvaluateBatch(ctx, pts)
	if err != nil {
		return fmt.Errorf("body %d: library: %w", body, err)
	}
	for i, w := range want {
		g := got[i]
		if g.PDN != w.PDN.String() || g.CState != w.CState.String() ||
			!sameBits(g.ETEE, w.ETEE) || !sameBits(g.PNom, float64(w.PNomTotal)) ||
			!sameBits(g.PIn, float64(w.PIn)) || !sameBits(g.Loss, float64(w.PIn)-float64(w.PNomTotal)) {
			return fmt.Errorf("body %d point %d: served %+v, library %+v", body, i, g, w)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// streamResults parses an NDJSON evaluate stream, requiring each index
// once and in order, and no error lines.
func streamResults(data []byte, n int) ([]api.EvalResult, error) {
	out := make([]api.EvalResult, 0, n)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line api.EvalStreamResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, err
		}
		if line.Index != len(out) {
			return nil, fmt.Errorf("line %d carries index %d", len(out), line.Index)
		}
		if err := line.Err(); err != nil {
			return nil, err
		}
		if line.Result == nil {
			return nil, fmt.Errorf("line %d has no result", len(out))
		}
		out = append(out, *line.Result)
	}
	return out, sc.Err()
}

// checkSearch requires a search answer to have scored its whole space
// into a non-empty frontier and, when compare is set, to equal the
// library's search on the same spec.
func checkSearch(ctx context.Context, lib *flexwatts.Client, body, data []byte, compare bool) error {
	var resp api.OptimizeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	if resp.Evaluated != resp.SpaceSize || resp.SpaceSize == 0 || len(resp.Frontier) == 0 {
		return fmt.Errorf("search scored %d of %d candidates into %d frontier points",
			resp.Evaluated, resp.SpaceSize, len(resp.Frontier))
	}
	if !compare {
		return nil
	}
	var req api.OptimizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	spec, err := req.Spec()
	if err != nil {
		return err
	}
	res, err := lib.Optimize(ctx, spec)
	if err != nil {
		return fmt.Errorf("library: %w", err)
	}
	want := api.OptimizeResponseFromResult(res)
	want.Workers = resp.Workers
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	gb, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(wb, gb) {
		return fmt.Errorf("search at %g W differs from the library's", req.TDP)
	}
	return nil
}

// sampled reports whether item i falls in a seeded share of items; it is
// a pure function of (seed, i), so traced and checked samples repeat
// exactly for a seed.
func sampled(seed int64, i int, share float64) bool {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return float64(x>>11)/float64(1<<53) < share
}
