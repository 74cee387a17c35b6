package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/flexwatts/api"
)

// Streaming write tuning: results are buffered through a bufio.Writer and
// the chunked response is flushed every flushEvery lines, so a 100k-point
// stream costs hundreds of flushes, not 100k syscalls, while a client
// still sees lines arrive as they are encoded.
const (
	streamBufBytes = 32 << 10
	flushEvery     = 64
)

// streamCodec pools the per-stream write stack — the 32 KiB bufio.Writer,
// the line buffer results are appended into, and the JSON encoder that
// writes error lines, whose messages need full escaping — so each stream
// request rebinds a recycled buffer to its connection instead of
// allocating them. Before a codec returns to the pool its writer is reset
// onto nil, dropping the connection reference so a pooled codec never
// pins a finished request's transport.
type streamCodec struct {
	bw   *bufio.Writer
	line []byte
	enc  *json.Encoder
}

var streamCodecPool = sync.Pool{New: func() any {
	c := &streamCodec{bw: bufio.NewWriterSize(nil, streamBufBytes)}
	c.enc = json.NewEncoder(c.bw)
	return c
}}

// handleEvaluateStream is POST /v1/evaluate/stream: the same request body
// as /v1/evaluate, answered as NDJSON — one api.EvalStreamResult per line,
// in point order, flushed in chunks as the encoder writes them.
//
// The batch runs through the same one kernel pass as /v1/evaluate, and the
// lines are appended straight from its result blocks (appendStreamResult).
// A point's evaluation failure becomes an error line (index-tagged, with
// the api wire code) and the stream continues; a mid-stream client
// disconnect ends it.
//
// Validation failures (malformed body, unknown vocabulary, batch cap) are
// still whole-request errors: they are detected before the first byte is
// written, while a status line can still say 4xx.
func (s *Server) handleEvaluateStream(w http.ResponseWriter, r *http.Request) {
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

	// A long stream legitimately outlives any server-wide WriteTimeout, so
	// this route manages its own: a rolling deadline re-armed before every
	// flush. Each chunk gets StreamWriteTimeout to reach the client; only a
	// reader stalled for that long — not a long computation — kills the
	// connection. SetWriteDeadline reaches the net.Conn through the
	// statusWriter's Unwrap; on transports without deadlines (tests using
	// httptest.ResponseRecorder) it reports ErrNotSupported and the stream
	// simply runs unbounded.
	rc := http.NewResponseController(w)
	extend := func() {
		rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout)) //nolint:errcheck // unsupported transport = no deadline
	}
	extend()
	res, err := s.batch.Evaluate(r.Context(), jobs)
	if err != nil {
		return // the client is gone
	}
	defer res.Release()

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sc := streamCodecPool.Get().(*streamCodec)
	sc.bw.Reset(w)
	bw := sc.bw
	defer func() {
		sc.bw.Reset(nil)
		streamCodecPool.Put(sc)
	}()

	// An encode or flush error, or a cancelled request, means the client is
	// gone: stop — there is no one left to tell, and the status line is
	// long since committed.
	for i := range jobs {
		out, err := res.At(i)
		if err != nil {
			line := api.EvalStreamResult{Index: i, Code: api.CodeFor(api.ErrEvaluation), Error: err.Error()}
			if err := sc.enc.Encode(&line); err != nil {
				return
			}
		} else {
			s.metrics.pointsTotal.Inc()
			if sc.line, err = appendStreamResult(sc.line[:0], i, jobs[i], out); err != nil {
				return
			}
			if _, err := bw.Write(sc.line); err != nil {
				return
			}
		}
		s.metrics.streamedTotal.Inc()
		if (i+1)%flushEvery == 0 {
			if r.Context().Err() != nil {
				return
			}
			extend()
			if err := bw.Flush(); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	extend()
	if err := bw.Flush(); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}
