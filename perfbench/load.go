package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// conns is the generator's concurrency: one connection per core of the
// 2-core machine the benchmark is sized for.
const conns = 2

// instance is flexwattsd's real handler served on a loopback listener
// inside this process, with cmd/flexwattsd's http.Server settings.
type instance struct {
	env    *experiments.Env
	hs     *http.Server
	addr   string
	served chan error
	times  *serveTimes // traced runs only
}

// startInstance serves a fresh environment. With timed set, the handler is
// wrapped in serveTimes, as traced runs need.
func startInstance(stderr io.Writer, timed bool) (*instance, error) {
	env, err := experiments.NewEnv()
	if err != nil {
		return nil, err
	}
	h := server.New(env, server.Options{}).Handler()
	var times *serveTimes
	if timed {
		times = &serveTimes{next: h, last: map[string]servedReq{}}
		h = times
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{
		env:   env,
		times: times,
		hs: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
			ErrorLog:          log.New(stderr, "", log.LstdFlags),
		},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { in.served <- in.hs.Serve(ln) }()
	fmt.Fprintf(stderr, "perfbench: listening on %s\n", in.addr)
	return in, nil
}

// close shuts the server down gracefully, then hard, and returns once its
// Serve goroutine has ended, so no listener or connection outlives it.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := in.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	in.hs.Close() //nolint:errcheck // the listener is already closed by Shutdown
	<-in.served
}

// idHeader carries a traced run's request id, so serveTimes can match a
// served request to the client's round trip.
const idHeader = "Perfbench-Request"

// serveTimes wraps the served handler and records when each request that
// carries idHeader entered ServeHTTP and how long it stayed, keeping the
// latest per client connection. Traced runs take http.transport_ms as a
// request's round trip minus its own served time.
type serveTimes struct {
	next http.Handler
	mu   sync.Mutex
	last map[string]servedReq // by client address
}

type servedReq struct {
	id    string
	start time.Time
	took  time.Duration
}

func (s *serveTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.next.ServeHTTP(w, r)
	took := time.Since(start)
	if id := r.Header.Get(idHeader); id != "" {
		s.mu.Lock()
		s.last[r.RemoteAddr] = servedReq{id: id, start: start, took: took}
		s.mu.Unlock()
	}
}

// of returns the served record of request id sent on the connection from
// addr. The client can read the last byte an instant before ServeHTTP
// returns, so it waits briefly for the record.
func (s *serveTimes) of(addr, id string) (servedReq, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		rec, ok := s.last[addr]
		s.mu.Unlock()
		if ok && rec.id == id {
			return rec, nil
		}
		if time.Now().After(deadline) {
			return servedReq{}, fmt.Errorf("no served time for request %s from %s", id, addr)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// reply is one answered request. Times count from the request's origin:
// its actual send, or in an open loop its scheduled send unless it went
// out earlier than that.
type reply struct {
	body   int
	at     time.Time // the request's origin
	status int
	first  time.Duration // to the first response byte
	total  time.Duration // to the last response byte
	lag    time.Duration // actual send minus origin; the open loop makes it the lateness against the schedule
	data   []byte        // the body, valid until the sender's next request
	err    error
	conn   string // a tagged request's client address
	id     string // a tagged request's idHeader
}

// client posts bodies to one endpoint of an instance over at most conns
// keep-alive connections. A tagged client numbers its requests in idHeader
// and notes the connection each went out on.
type client struct {
	hc     *http.Client
	tr     *http.Transport
	url    string
	tagged bool
	ids    atomic.Int64
}

func newClient(addr, path string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: "http://" + addr + path}
}

// send posts body and reads the answer into buf, timing it from origin;
// the send itself happens now.
func (c *client) send(ctx context.Context, body []byte, origin time.Time, buf *bytes.Buffer) reply {
	var first time.Time
	var conn, id string
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { first = time.Now() }}
	if c.tagged {
		id = strconv.FormatInt(c.ids.Add(1), 10)
		trace.GotConn = func(info httptrace.GotConnInfo) { conn = info.Conn.LocalAddr().String() }
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(idHeader, id)
	}
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return reply{err: err}
	}
	return reply{
		at:     origin,
		status: resp.StatusCode,
		first:  first.Sub(origin),
		total:  end.Sub(origin),
		lag:    sent.Sub(origin),
		data:   buf.Bytes(),
		conn:   conn,
		id:     id,
	}
}

// phase is what one load phase, or one segment of it, observed.
type phase struct {
	attempted int
	failed    int // transport errors, non-200 answers, requests never sent
	oks       []int
	units     float64 // work in the good answers: points, or candidates
	// lat and first are host-paced once scale has run (see pace.go).
	lat     []time.Duration
	first   []time.Duration
	lag     []time.Duration
	elapsed time.Duration // wall-clock measured time
	paced   time.Duration // measured time divided by the host's pace
	next    int           // a segment's next index into its order
}

// plus pools two phases' observations; measured time adds up.
func (p phase) plus(q phase) phase {
	p.attempted += q.attempted
	p.failed += q.failed
	p.oks = append(p.oks, q.oks...)
	p.units += q.units
	p.lat = append(p.lat, q.lat...)
	p.first = append(p.first, q.first...)
	p.lag = append(p.lag, q.lag...)
	p.elapsed += q.elapsed
	p.paced += q.paced
	return p
}

// scale divides a segment's latencies and measured time by the host's
// pace over it.
func (p *phase) scale(pace float64) {
	for i := range p.lat {
		p.lat[i] = time.Duration(float64(p.lat[i]) / pace)
		p.first[i] = time.Duration(float64(p.first[i]) / pace)
	}
	p.paced = time.Duration(float64(p.elapsed) / pace)
}

func (p *phase) add(r reply, ok bool) {
	p.attempted++
	if !ok {
		p.failed++
		return
	}
	p.oks = append(p.oks, r.body)
	p.lat = append(p.lat, r.total)
	p.first = append(p.first, r.first)
	p.lag = append(p.lag, r.lag)
}

// observer checks one reply on the sender's goroutine; seq numbers the
// request within its phase. It reports whether the reply is a 200 the
// checker accepted for now (a mismatch found later still counts).
type observer func(seq int, r reply) bool

// closedLoop runs senders connections for dur from index from of order:
// each sends its next request only after the previous answer is complete.
// Without cycle it stops when order runs out.
func closedLoop(ctx context.Context, c *client, bodies [][]byte, order []int, from int, cycle bool, senders int, dur time.Duration, obs observer) (phase, error) {
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]phase, senders)
	lastEnd := make([]time.Time, senders)
	err := runSenders(senders, func(w int) {
		var buf bytes.Buffer
		for ctx.Err() == nil && time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			if i >= len(order) && !cycle {
				return
			}
			b := order[i%len(order)]
			r := c.send(ctx, bodies[b], time.Now(), &buf)
			if ctx.Err() != nil {
				return
			}
			r.body = b
			parts[w].add(r, obs(i, r))
			lastEnd[w] = time.Now()
		}
	})
	if err == nil {
		err = ctx.Err()
	}
	var p phase
	for _, q := range parts {
		p = p.plus(q)
	}
	for _, t := range lastEnd {
		if d := t.Sub(start); d > p.elapsed {
			p.elapsed = d
		}
	}
	p.next = min(int(next.Load()), len(order))
	if cycle {
		p.next = int(next.Load())
	}
	return p, err
}

// timerSlack is how early an idle open-loop sender arms its timer. Go
// timers wake up to about a millisecond late; armed this much early, the
// timer's own error sends a request early instead of charging it late.
const timerSlack = time.Millisecond

// openLoop sends rate requests per second for dur on a fixed schedule over
// conns connections, from index from of order. Each request is timed from
// when it was due, or from its actual send if an idle sender's early timer
// sent it before that. A request still unsent when the schedule is overrun
// by dur counts as failed: it missed any latency limit.
func openLoop(ctx context.Context, c *client, bodies [][]byte, order []int, from int, cycle bool, rate float64, dur time.Duration, obs observer) (phase, error) {
	n := from + int(math.Round(rate*dur.Seconds()))
	if !cycle && n > len(order) {
		n = len(order)
	}
	var next atomic.Int64
	next.Store(int64(from))
	start := time.Now().Add(10 * time.Millisecond)
	giveUp := start.Add(2 * dur)
	parts := make([]phase, conns)
	err := runSenders(conns, func(w int) {
		var buf bytes.Buffer
		timer := time.NewTimer(0)
		defer timer.Stop()
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			due := start.Add(time.Duration(float64(i-from) / rate * float64(time.Second)))
			if wait := time.Until(due) - timerSlack; wait > 0 {
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
			}
			origin := due
			if now := time.Now(); now.Before(due) {
				origin = now
			}
			b := order[i%len(order)]
			if time.Now().After(giveUp) {
				parts[w].add(reply{body: b}, false)
				continue
			}
			r := c.send(ctx, bodies[b], origin, &buf)
			if ctx.Err() != nil {
				return
			}
			// lag is how late the send was against the schedule; an early
			// send is not late.
			r.body, r.lag = b, max(0, r.lag+origin.Sub(due))
			parts[w].add(r, obs(i, r))
		}
	})
	if err == nil {
		err = ctx.Err()
	}
	var p phase
	for _, q := range parts {
		p = p.plus(q)
	}
	p.elapsed = time.Since(start)
	p.next = n
	return p, err
}

// runSenders runs fn on n goroutines and waits for all of them. A panic in
// a sender becomes an error here instead of killing the process before the
// server is shut down.
func runSenders(n int, fn func(w int)) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("sender panic: %v", r)
					}
					mu.Unlock()
				}
			}()
			fn(w)
		}(w)
	}
	wg.Wait()
	return first
}

// warmUp sends each body of order once over conns connections, so that
// the set-up keeps both cores busy as the closed loop does. It hands every
// answer to obs and fails on the first that is not a 200.
func warmUp(ctx context.Context, c *client, bodies [][]byte, order []int, obs observer) error {
	var next atomic.Int64
	var mu sync.Mutex
	var failed error
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if failed == nil {
			failed = err
		}
	}
	err := runSenders(conns, func(int) {
		var buf bytes.Buffer
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(order) {
				return
			}
			b := order[i]
			r := c.send(ctx, bodies[b], time.Now(), &buf)
			if r.err != nil {
				fail(fmt.Errorf("warm-up request %d: %w", i, r.err))
				return
			}
			r.body = b
			if !obs(i, r) {
				fail(fmt.Errorf("warm-up request %d: status %d: %s", i, r.status, truncate(r.data)))
				return
			}
		}
	})
	if err == nil {
		err = failed
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
