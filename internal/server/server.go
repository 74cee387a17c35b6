// Package server implements flexwattsd's HTTP/JSON API: a long-lived
// serving layer over the experiments registry and the zero-alloc PDN
// evaluation core. Every request shares one experiments.Env: experiment
// datasets are computed at most once per process and re-rendered per
// request, the figure drivers and the optimizer share the env's sharded
// sweep.Cache, and evaluate batches recompute their points through the
// grid kernels in one pass (internal/batch), which costs less than a
// cache probe would.
//
// The two evaluate routes read and write their one schema without
// reflection (codec.go). A request body is read once into a pooled
// buffer. A canonical body, which is what json.Marshal of
// api.EvalRequest writes, is scanned straight into typed points: the
// single key "points", lowercase point keys each used once, names spelled
// as the vocabulary spells them or in lowercase, each resolved once
// through one table, and numbers strconv.ParseFloat parses in range.
// Every other body (case-folded or duplicate keys, other spellings,
// escapes, null, non-ASCII bytes, malformed or oversized input) goes to
// json.Decoder with DisallowUnknownFields and api.EvalPoint.Point, so
// every spelling accepted before is still accepted and every error reads
// as before. Results are appended as bytes in exactly json.Encoder's
// rendering. The other routes, and the stream's error lines, encode
// through encoding/json.
//
// The wire vocabulary — request/response bodies, endpoint paths, typed
// sentinel errors and their status mapping — lives in repro/flexwatts/api,
// shared with the flexwatts/client SDK so the two can never drift. Errors
// become statuses in exactly one place (writeErr via api.StatusFor), and
// /v1/evaluate batches run on the request's context, so a disconnected or
// cancelled client aborts the in-flight sweep instead of burning the pool.
//
// Endpoints:
//
//	GET  /healthz                          liveness + cache statistics
//	GET  /metrics                          Prometheus text exposition
//	GET  /v1/experiments                   registered experiment ids
//	GET  /v1/experiments/{id}?format=F     one experiment (ascii|json|csv)
//	POST /v1/evaluate                      batch of arbitrary evaluation points
//	POST /v1/evaluate/stream               same batch, streamed back as NDJSON
//	POST /v1/optimize                      design-space Pareto search
//	POST /v1/optimize/stream               same search, progress + frontier events as NDJSON
//	GET  /debug/pprof/...                  runtime profiling
//
// The serving tier is observable and self-protecting: every route is
// instrumented (latency histograms, request counters, structured access
// logs), and admission control — a per-client token bucket plus a
// server-wide inflight-points budget — sheds load with 429/503 and a
// Retry-After header instead of queueing unboundedly.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/flexwatts/report"
	"repro/internal/batch"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// Options tunes a Server.
type Options struct {
	// Workers bounds each request's sweep pool (experiment grids and
	// evaluate batches); <= 0 sizes it by runtime.GOMAXPROCS(0), the
	// sweep.Map contract.
	Workers int
	// MaxBatch caps the points accepted by one /v1/evaluate request;
	// <= 0 means the default of 4096.
	MaxBatch int
	// MaxBodyBytes caps an evaluate request body; <= 0 means the default
	// of 8 MiB. Overflow is shed as api.ErrBatchTooLarge (413).
	MaxBodyBytes int64
	// MaxInflightPoints is the server-wide admission budget: the summed
	// batch sizes inside the evaluate handlers may not exceed it; excess
	// requests are shed with 503 + Retry-After. <= 0 means the default
	// of 16× MaxBatch.
	MaxInflightPoints int
	// RatePerClient grants each client (remote host) this many evaluate
	// requests per second through a token bucket; excess is shed with
	// 429 + Retry-After. <= 0 disables per-client rate limiting.
	RatePerClient float64
	// BurstPerClient is the token bucket's capacity; <= 0 means
	// max(1, RatePerClient).
	BurstPerClient float64
	// RetryAfter is the hint written on 503 shed responses; <= 0 means
	// 1s. (429 responses compute their hint from the bucket's refill.)
	RetryAfter time.Duration
	// StreamWriteTimeout bounds how long one streamed chunk may take to
	// reach the client: the stream handler re-arms a rolling write
	// deadline before every flush, which both exempts the route from the
	// server-wide WriteTimeout (a healthy stream outlives it by design)
	// and unsticks a stalled reader. <= 0 means DefaultStreamWriteTimeout.
	StreamWriteTimeout time.Duration
	// MaxInflightOptimize caps concurrent /v1/optimize searches. A search
	// pins worker-pool capacity for seconds, so the slot count is small;
	// excess searches are shed with 503 + Retry-After. <= 0 means
	// DefaultMaxInflightOptimize.
	MaxInflightOptimize int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request.
	AccessLog *log.Logger
	// ErrorLog, when non-nil, receives operational errors (recovered
	// handler panics with stacks); nil uses the process-default logger.
	ErrorLog *log.Logger
}

// Defaults for the zero Options values.
const (
	// DefaultMaxBatch is the /v1/evaluate batch cap when Options.MaxBatch
	// is unset.
	DefaultMaxBatch = 4096
	// DefaultMaxBodyBytes caps evaluate request bodies (8 MiB).
	DefaultMaxBodyBytes = 8 << 20
	// DefaultRetryAfter is the 503 Retry-After hint.
	DefaultRetryAfter = time.Second
	// DefaultStreamWriteTimeout is the per-chunk write deadline on
	// /v1/evaluate/stream.
	DefaultStreamWriteTimeout = 30 * time.Second
	// DefaultMaxInflightOptimize is the concurrent design-space search cap
	// when Options.MaxInflightOptimize is unset.
	DefaultMaxInflightOptimize = 2
)

// Server is the flexwattsd request handler: one shared evaluation
// environment, a per-experiment dataset memo, admission control state,
// the metrics registry, and the HTTP surface.
type Server struct {
	env     *experiments.Env
	opts    Options
	start   time.Time
	memos   sync.Map // experiment id -> *datasetMemo
	metrics *serverMetrics
	limiter *rateLimiter
	budget  *pointBudget
	// optBudget is the optimizer's dedicated inflight-searches slot count;
	// opt is the design-space search engine behind /v1/optimize, sharing
	// the environment's platform, parameters and evaluation cache.
	optBudget *pointBudget
	opt       optimize.Engine
	// batch evaluates /v1/evaluate and /v1/evaluate/stream batches in one
	// kernel pass, recycling its grids and result blocks across requests.
	batch batch.Evaluator
}

// datasetMemo computes an experiment's dataset exactly once; concurrent
// requests for the same id block on the first computation and then share
// the immutable result (rendering is per-request).
type datasetMemo struct {
	once sync.Once
	ds   *report.Dataset
	err  error
}

// New creates a server over the given environment.
func New(env *experiments.Env, opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.MaxInflightPoints <= 0 {
		opts.MaxInflightPoints = 16 * opts.MaxBatch
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	if opts.StreamWriteTimeout <= 0 {
		opts.StreamWriteTimeout = DefaultStreamWriteTimeout
	}
	if opts.MaxInflightOptimize <= 0 {
		opts.MaxInflightOptimize = DefaultMaxInflightOptimize
	}
	start := time.Now()
	m := newServerMetrics(env.Cache, start)
	s := &Server{
		env:     env,
		opts:    opts,
		start:   start,
		metrics: m,
		limiter: newRateLimiter(opts.RatePerClient, opts.BurstPerClient),
		budget:  &pointBudget{max: int64(opts.MaxInflightPoints), gauge: m.inflightPoints},
		// The optimizer's slot budget reuses the pointBudget mechanics with
		// n=1 acquisitions; its gauge is the inflight-searches metric.
		optBudget: &pointBudget{max: int64(opts.MaxInflightOptimize), gauge: m.optimizeInflight},
		opt: optimize.Engine{
			Platform: env.Platform,
			Base:     env.Params,
			Cache:    env.Cache,
			Workers:  opts.Workers,
		},
		batch: batch.Evaluator{
			Baselines: env.Baselines,
			Flex:      env.Flex,
			Predictor: env.Predictor,
			Workers:   opts.Workers,
		},
	}
	m.reg.CounterFunc("flexwattsd_grid_arena_gets_total",
		"Grid arena lease checkouts by the evaluate handlers' kernel pass.",
		func() float64 { gets, _ := s.batch.ArenaStats(); return float64(gets) })
	m.reg.CounterFunc("flexwattsd_grid_arena_reuses_total",
		"Grid arena checkouts satisfied by a recycled lease.",
		func() float64 { _, reuses := s.batch.ArenaStats(); return float64(reuses) })
	m.reg.GaugeFunc("flexwattsd_grid_arena_reuse_ratio",
		"Recycled fraction of grid arena checkouts; near 1 under steady load.",
		func() float64 {
			gets, reuses := s.batch.ArenaStats()
			if gets == 0 {
				return 0
			}
			return float64(reuses) / float64(gets)
		})
	return s
}

// logf writes one operational log line to ErrorLog (or the default logger).
func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.ErrorLog != nil {
		s.opts.ErrorLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Handler returns the routed HTTP handler. Routing is manual (prefix
// matching) so it works identically on every supported Go version; every
// route passes through instrument for metrics and access logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathHealthz, s.instrument(routeHealthz, s.handleHealthz))
	mux.HandleFunc(api.PathReadyz, s.instrument(routeReadyz, s.handleReadyz))
	mux.HandleFunc(api.PathAdminCache, s.instrument(routeAdminCache, s.handleAdminCache))
	mux.HandleFunc(api.PathMetrics, s.instrument(routeMetrics, s.handleMetrics))
	mux.HandleFunc(api.PathExperiments, s.instrument(routeExperiments, s.handleList))
	mux.HandleFunc(api.PathExperiments+"/", s.instrument(routeExperiment, s.handleExperiment))
	mux.HandleFunc(api.PathEvaluate, s.instrument(routeEvaluate, s.handleEvaluate))
	mux.HandleFunc(api.PathEvaluateStream, s.instrument(routeEvaluateStream, s.handleEvaluateStream))
	mux.HandleFunc(api.PathOptimize, s.instrument(routeOptimize, s.handleOptimize))
	mux.HandleFunc(api.PathOptimizeStream, s.instrument(routeOptimizeStream, s.handleOptimizeStream))
	mux.HandleFunc("/debug/pprof/", s.instrument(routePprof, pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", s.instrument(routePprof, pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", s.instrument(routePprof, pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", s.instrument(routePprof, pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", s.instrument(routePprof, pprof.Trace))
	return mux
}

// workers resolves the per-request sweep pool bound.
func (s *Server) workers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// dataset returns the memoized dataset for id, computing it on first use
// with the request-scoped worker bound.
func (s *Server) dataset(id string) (*report.Dataset, error) {
	v, _ := s.memos.LoadOrStore(id, &datasetMemo{})
	m := v.(*datasetMemo)
	m.once.Do(func() {
		env := *s.env
		env.Workers = s.workers()
		m.ds, m.err = experiments.Dataset(id, &env)
	})
	return m.ds, m.err
}

// evalCodec pools the response-encoding state of /v1/optimize: the JSON
// encoder and its backing buffer survive across requests, so a steady
// load reuses one grown buffer per concurrent request instead of
// allocating encoder state and response bytes each time. The bytes
// produced are identical to writeJSON's (same indent, same trailing
// newline from Encode); only the allocation profile changes.
type evalCodec struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var evalCodecPool = sync.Pool{New: func() any {
	c := &evalCodec{}
	c.enc = json.NewEncoder(&c.buf)
	c.enc.SetIndent("", "  ")
	return c
}}

// evalCodecMaxBytes bounds what returns to the pools, so one rare huge
// request or response does not pin its buffer for the process lifetime.
const evalCodecMaxBytes = 1 << 20

// writeJSONPooled renders v exactly as writeJSON does, through a pooled
// buffer. Unlike writeJSON it encodes before committing the status line,
// so an unencodable value surfaces as a proper error response instead of
// a truncated 200.
func writeJSONPooled(w http.ResponseWriter, status int, v interface{}) {
	c := evalCodecPool.Get().(*evalCodec)
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		c.buf.Reset()
		evalCodecPool.Put(c)
		writeErr(w, fmt.Errorf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(c.buf.Bytes()) //nolint:errcheck // response already committed
	if c.buf.Cap() <= evalCodecMaxBytes {
		evalCodecPool.Put(c)
	}
}

// writeJSON renders v as the response body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

// writeErr is the single place where errors become HTTP responses: the api
// sentinels map to their contract statuses and wire codes, anything else is
// a 500 — and every failure path, including body-size overflow and
// malformed JSON, emits the same api.Error envelope.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, api.StatusFor(err), api.Error{Code: api.CodeFor(err), Message: err.Error()})
}

// allow enforces an endpoint's method set. On a mismatch it answers 405
// with an Allow header naming the permitted methods (RFC 9110 §15.5.6)
// and reports false.
func allow(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	allowed := strings.Join(methods, ", ")
	w.Header().Set("Allow", allowed)
	writeErr(w, fmt.Errorf("%w: %s %s (use %s)", api.ErrMethodNotAllowed, r.Method, r.URL.Path, allowed))
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	hits, misses := s.env.Cache.Stats()
	writeJSON(w, http.StatusOK, api.Health{
		Status:      "ok",
		UptimeS:     int64(time.Since(s.start).Seconds()),
		Experiments: len(experiments.IDs()),
		Workers:     s.workers(),
		CacheKeys:   s.env.Cache.Len(),
		CacheHits:   hits,
		CacheMisses: misses,
	})
}

// handleReadyz is GET /readyz, the readiness probe beside the /healthz
// liveness probe. The daemon has no start-up work left once it listens,
// so it is ready from its first request.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, api.Ready{Status: "ready"})
}

// handleAdminCache serves /v1/admin/cache: GET reports the shared
// in-memory cache, DELETE flushes it. Only the figure drivers and the
// optimizer fill it; evaluate batches bypass it.
func (s *Server) handleAdminCache(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		hits, misses := s.env.Cache.Stats()
		writeJSON(w, http.StatusOK, api.CacheStats{
			Memory: api.MemoryCacheStats{
				Keys:   s.env.Cache.Len(),
				Hits:   hits,
				Misses: misses,
			},
		})
	case http.MethodDelete:
		writeJSON(w, http.StatusOK, api.CacheFlush{FlushedKeys: s.env.Cache.Reset()})
	default:
		allow(w, r, http.MethodGet, http.MethodDelete)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	ids := experiments.IDs()
	infos := make([]api.ExperimentInfo, len(ids))
	for i, id := range ids {
		infos[i] = api.ExperimentInfo{ID: id, URL: api.PathExperiments + "/" + id}
	}
	writeJSON(w, http.StatusOK, api.ExperimentList{Experiments: infos, Formats: report.Formats()})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, api.PathExperiments+"/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, fmt.Errorf("%w: experiment path must be %s/{id}", api.ErrUnknownExperiment, api.PathExperiments))
		return
	}
	if !experiments.Known(id) {
		writeErr(w, fmt.Errorf("%w %q (try GET %s)", api.ErrUnknownExperiment, id, api.PathExperiments))
		return
	}
	format, err := report.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", api.ErrInvalidPoint, err))
		return
	}
	ds, err := s.dataset(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Render to a buffer first so a renderer error can still become a 500
	// instead of a half-written 200 body.
	var b bytes.Buffer
	var renderErr error
	if format == report.FormatASCII {
		// WriteASCIIGolden matches `flexwatts -exp {id}` byte for byte.
		renderErr = ds.WriteASCIIGolden(&b)
	} else {
		renderErr = ds.Write(&b, format)
	}
	if renderErr != nil {
		writeErr(w, renderErr)
		return
	}
	w.Header().Set("Content-Type", format.ContentType())
	b.WriteTo(w) //nolint:errcheck // client gone, nothing to do
}

// The internal enum of each typed kind, workload class and package state.
// The two vocabularies share the paper's spelling, so the String/Parse
// round trip, run once here, is the conversion.
var (
	internalKinds     [flexwatts.IMBVR + 1]pdn.Kind
	internalWorkloads [flexwatts.BatteryLife + 1]workload.Type
	internalCStates   [flexwatts.C8 + 1]domain.CState
)

func init() {
	for _, k := range flexwatts.AllKinds() {
		internalKinds[k] = mustParse(pdn.ParseKind(k.String()))
	}
	for _, t := range append(flexwatts.WorkloadTypes(), flexwatts.BatteryLife) {
		internalWorkloads[t] = mustParse(workload.ParseType(t.String()))
	}
	for _, c := range flexwatts.CStates() {
		internalCStates[c] = mustParse(domain.ParseCState(c.String()))
	}
}

// mustParse returns v; err means the two vocabularies have drifted apart.
func mustParse[T any](v T, err error) T {
	if err != nil {
		panic("server: " + err.Error())
	}
	return v
}

// buildJob validates one typed request point into *job, in place.
// Point.Validate applies the library's one set of rules, so the daemon can
// never drift from what the library considers a valid point; only the
// scenario construction is local. The point's kind is a named one: it was
// read through wireVocab or api.EvalPoint.Point.
func (s *Server) buildJob(job *batch.Point, pt flexwatts.Point) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	job.Kind = internalKinds[pt.PDN]
	job.TDP = float64(pt.TDP)
	if pt.CState != flexwatts.C0 {
		// Battery-life states (C0MIN and package C2…C8) evaluate the
		// fig4j/fig8c scenarios; the TDP only steers FlexWatts' predictor.
		if job.TDP == 0 {
			job.TDP = 4 // battery-life evaluation is TDP-independent (§7.1)
		}
		job.Scenario = workload.CStateScenario(s.env.Platform, internalCStates[pt.CState])
		return nil
	}
	var err error
	job.Scenario, err = workload.TDPScenario(s.env.Platform, job.TDP, internalWorkloads[pt.Workload], pt.AR)
	return err
}

// decodeEvalRequest reads and validates an evaluate request body into
// batch points (req.jobs) — shared by the buffered and streaming
// endpoints, so the two accept exactly the same points. The caller
// releases req once it is done with the jobs. On failure the error
// response (uniform api.Error envelope) has been written and ok is false.
// A body exceeding MaxBodyBytes is shed as api.ErrBatchTooLarge (413),
// matching the point-count cap it approximates, unless a complete request
// precedes the limit (json.Decoder reads no further than the value it
// decodes).
func (s *Server) decodeEvalRequest(w http.ResponseWriter, r *http.Request) (req *evalRequest, ok bool) {
	req = evalRequests.Get().(*evalRequest)
	if err := s.readEvalRequest(w, r, req); err != nil {
		req.release()
		writeErr(w, err)
		return nil, false
	}
	return req, true
}

// readEvalRequest reads, decodes and validates the body into req.jobs.
func (s *Server) readEvalRequest(w http.ResponseWriter, r *http.Request, req *evalRequest) error {
	var readErr error
	req.body, readErr = readBody(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), req.body)
	n, badName, err := req.decode(readErr)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("%w: request body exceeds %d bytes", api.ErrBatchTooLarge, tooBig.Limit)
		}
		return fmt.Errorf("%w: bad request body: %v", api.ErrInvalidPoint, err)
	}
	if n == 0 {
		return fmt.Errorf("%w: request has no points", api.ErrInvalidPoint)
	}
	if n > s.opts.MaxBatch {
		return fmt.Errorf("%w: %d points exceeds the %d-point batch cap",
			api.ErrBatchTooLarge, n, s.opts.MaxBatch)
	}
	req.jobs = slices.Grow(req.jobs, len(req.points))[:len(req.points)]
	for i := range req.points {
		if err := s.buildJob(&req.jobs[i], req.points[i]); err != nil {
			return fmt.Errorf("point %d: %w: %v", i, api.ErrInvalidPoint, err)
		}
	}
	if badName != nil {
		return fmt.Errorf("point %d: %w: %v", len(req.points), api.ErrInvalidPoint, badName)
	}
	return nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	req, ok := s.decodeEvalRequest(w, r)
	if !ok {
		return
	}
	defer req.release()
	jobs := req.jobs
	release, ok := s.admit(w, r, len(jobs))
	if !ok {
		return
	}
	defer release()
	s.metrics.inflightSweeps.Add(1)
	defer s.metrics.inflightSweeps.Add(-1)

	// One kernel pass on the request's context: a cancelled request
	// (client disconnect, deadline) stops the batch between kernel chunks,
	// and there is no one left to answer.
	res, err := s.batch.Evaluate(r.Context(), jobs)
	if err != nil {
		return
	}
	defer res.Release()
	if i, err := res.FirstErr(); err != nil {
		writeErr(w, fmt.Errorf("%w: point %d: %v", api.ErrEvaluation, i, err))
		return
	}
	s.metrics.pointsTotal.Add(int64(len(jobs)))
	workers := s.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	req.out, err = appendEvalResponse(req.out, jobs, res, workers)
	if err != nil {
		writeErr(w, fmt.Errorf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(req.out) //nolint:errcheck // response already committed
}
