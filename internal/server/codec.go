package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/internal/batch"
	"repro/internal/domain"
	"repro/internal/pdn"
)

// The evaluate routes' wire codec. Both routes speak one schema, so they
// read and write it without reflection:
//
//   - A request body is read once into a pooled evalRequest. scanEvalPoints
//     reads a canonical body (see there) straight into typed
//     []flexwatts.Point, resolving each name through one table of the
//     vocabulary's spellings; any other body goes to json.Decoder with
//     DisallowUnknownFields and api.EvalPoint.Point, the path every body
//     went through before, so every spelling it accepts and every error it
//     reports stay as they were.
//   - Results are appended as bytes straight from the batch's result
//     blocks, in exactly the bytes json.Encoder writes for
//     api.EvalResponse (indented) and api.EvalStreamResult (one line).

// evalRequest is one evaluate request's working memory: its body, the
// points scanned from it, the jobs built from them and, on /v1/evaluate,
// the response. It is pooled, so a steady load reuses grown buffers
// instead of allocating them for every request.
type evalRequest struct {
	body   []byte
	points []flexwatts.Point
	jobs   []batch.Point
	out    []byte
}

var evalRequests = sync.Pool{New: func() any { return new(evalRequest) }}

// release returns q to the pool. A buffer grown past evalCodecMaxBytes is
// dropped instead, so one rare huge request does not pin its memory for
// the process lifetime.
func (q *evalRequest) release() {
	q.body, q.points, q.jobs, q.out = reuse(q.body), reuse(q.points), reuse(q.jobs), reuse(q.out)
	evalRequests.Put(q)
}

func reuse[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > evalCodecMaxBytes {
		return nil
	}
	return s[:0]
}

// readBody appends everything r yields to b. It stops at the first error
// and returns it, io.EOF excepted, with the bytes read before it.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// errReader replays a body read's error after its bytes.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decode reads the request body's points into q.points and returns how
// many the body holds. A canonical body is scanned straight into them. Any
// other goes to json.Decoder, and api.EvalPoint.Point parses its points in
// order up to the first whose names it rejects: q.points then holds the
// points before that one, and badName is its error, which the caller
// reports once those points have validated, as buildJob reported it when
// it parsed each point itself.
//
// readErr is the error that ended reading the body, if any: json.Decoder
// sees the body's bytes and then that error, as it would have reading the
// request itself, so a complete value before the error still decodes and
// a cut one reports the error.
func (q *evalRequest) decode(readErr error) (n int, badName, err error) {
	var ok bool
	if q.points, ok = scanEvalPoints(q.body, q.points); ok {
		return len(q.points), nil, nil
	}
	var src io.Reader = bytes.NewReader(q.body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	var req api.EvalRequest
	if err := dec.Decode(&req); err != nil {
		return 0, nil, err
	}
	q.points = q.points[:0]
	for _, p := range req.Points {
		pt, err := p.Point()
		if err != nil {
			return len(req.Points), err, nil
		}
		q.points = append(q.points, pt)
	}
	return len(req.Points), nil, nil
}

// Point keys, one bit each, to reject a key used twice.
const (
	keyPDN = 1 << iota
	keyTDP
	keyWorkload
	keyAR
	keyCState
)

// vocabName is what a name means in the one point field that takes it.
type vocabName struct {
	key int // keyPDN, keyWorkload or keyCState
	val int // the flexwatts enum value api.EvalPoint.Point parses it to
}

// wireVocab holds each vocabulary name as the library spells it and in
// lowercase, resolved once through the library's parsers, so a scanned
// name costs one lookup and no parse. The parsers accept more spellings
// (other cases, aliases such as "IMBVR" and "gfx", padding, a missing
// hyphen, the empty name); the scanner leaves those to json.Decoder and
// api.EvalPoint.Point.
var wireVocab = func() map[string]vocabName {
	m := map[string]vocabName{}
	addVocab(m, keyPDN, flexwatts.AllKinds(), flexwatts.ParseKind)
	addVocab(m, keyWorkload, append(flexwatts.WorkloadTypes(), flexwatts.BatteryLife), flexwatts.ParseWorkloadType)
	addVocab(m, keyCState, flexwatts.CStates(), flexwatts.ParseCState)
	return m
}()

// addVocab enters each value's name and its lowercase spelling into m as
// parse reads them.
func addVocab[T interface {
	~int
	String() string
}](m map[string]vocabName, key int, vals []T, parse func(string) (T, error)) {
	for _, v := range vals {
		for _, name := range []string{v.String(), strings.ToLower(v.String())} {
			if t, err := parse(name); err == nil {
				m[name] = vocabName{key, int(t)}
			}
		}
	}
}

// scanEvalPoints reads a canonical evaluate request body into pts[:0] and
// reports whether the body was canonical:
//
//   - one object whose single key is "points", an array of point objects;
//   - point keys spelled in lowercase, each used at most once, "pdn"
//     always among them;
//   - names that wireVocab holds for their key;
//   - numbers in JSON's grammar that strconv.ParseFloat parses without a
//     range error;
//   - JSON whitespace anywhere between tokens.
//
// Bytes after the closing brace are not read, as json.Decoder.Decode does
// not read them. On every such body json.Decoder and api.EvalPoint.Point
// return the same points, so which path reads it is invisible
// (FuzzDecodeEvalPoints). A body reported non-canonical may have left any
// points in pts.
func scanEvalPoints(body []byte, pts []flexwatts.Point) ([]flexwatts.Point, bool) {
	sc := scanner{b: body}
	pts = pts[:0]
	if !sc.lit('{') || string(sc.str()) != "points" || !sc.lit(':') || !sc.lit('[') {
		return pts, false
	}
	if !sc.lit(']') {
		for {
			p, ok := sc.point()
			if !ok {
				return pts, false
			}
			pts = append(pts, p)
			if sc.lit(']') {
				break
			}
			if !sc.lit(',') {
				return pts, false
			}
		}
	}
	return pts, sc.lit('}')
}

// scanner is a cursor over a body. Each method skips JSON whitespace,
// then reads one token; a token outside the canonical form fails it, and
// the failure latches.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c if it is the next token.
func (s *scanner) lit(c byte) bool {
	s.skip()
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// str consumes a string of printable ASCII with no backslash and returns
// its contents, or nil.
func (s *scanner) str() []byte {
	if !s.lit('"') {
		s.bad = true
		return nil
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c >= 0x7f || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// num consumes a number in JSON's grammar and parses it.
func (s *scanner) num() float64 {
	s.skip()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if !s.digits() {
		s.bad = true
		return 0
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			s.bad = true
			return 0
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			s.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// name consumes a string that wireVocab holds for key and returns its
// value.
func (s *scanner) name(key int) int {
	n, ok := wireVocab[string(s.str())]
	if !ok || n.key != key {
		s.bad = true
	}
	return n.val
}

// point consumes one point object. A point without "pdn" is not
// canonical: the typed point would read as FlexWatts, the zero Kind, where
// api.EvalPoint.Point rejects the missing name.
func (s *scanner) point() (flexwatts.Point, bool) {
	var p flexwatts.Point
	if !s.lit('{') || s.lit('}') {
		return p, false
	}
	seen := 0
	for {
		key := s.str()
		if !s.lit(':') {
			return p, false
		}
		var bit int
		switch string(key) {
		case "pdn":
			bit, p.PDN = keyPDN, flexwatts.Kind(s.name(keyPDN))
		case "tdp":
			bit, p.TDP = keyTDP, flexwatts.Watt(s.num())
		case "workload":
			bit, p.Workload = keyWorkload, flexwatts.WorkloadType(s.name(keyWorkload))
		case "ar":
			bit, p.AR = keyAR, s.num()
		case "cstate":
			bit, p.CState = keyCState, flexwatts.CState(s.name(keyCState))
		default:
			return p, false
		}
		if s.bad || seen&bit != 0 {
			return p, false
		}
		seen |= bit
		if s.lit('}') {
			return p, seen&keyPDN != 0
		}
		if !s.lit(',') {
			return p, false
		}
	}
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' form, or in 'e' form below 1e-6 and
// from 1e21 with the exponent's leading zero dropped (e-09 → e-9). JSON
// has no spelling for NaN or ±Inf: f is then reported as the
// *json.UnsupportedValueError json.Marshal returns for it.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// resultForm is the punctuation json.Encoder writes around an
// api.EvalResult's fields: on one line in a stream, or as the elements of
// the buffered response's indented results array.
type resultForm struct{ open, sep, colon, close string }

var (
	lineForm     = resultForm{"{", ",", ":", "}"}
	indentedForm = resultForm{"{\n      ", ",\n      ", ": ", "\n    }"}
)

// appendResult appends the api.EvalResult of a point of kind and package
// state cs that evaluated to res. The kind and state names need no JSON
// escaping (TestAppendResultMatchesEncoder).
func appendResult(b []byte, form *resultForm, kind pdn.Kind, cs domain.CState, res pdn.Result) ([]byte, error) {
	b = append(b, form.open...)
	b = append(b, `"pdn"`...)
	b = append(b, form.colon...)
	b = append(b, '"')
	b = append(b, kind.String()...)
	b = append(b, '"')
	b = append(b, form.sep...)
	b = append(b, `"cstate"`...)
	b = append(b, form.colon...)
	b = append(b, '"')
	b = append(b, cs.String()...)
	b = append(b, '"')
	var err error
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`"etee"`, res.ETEE},
		{`"p_nom"`, float64(res.PNomTotal)},
		{`"p_in"`, float64(res.PIn)},
		{`"loss"`, float64(res.PIn - res.PNomTotal)},
	} {
		b = append(b, form.sep...)
		b = append(b, f.key...)
		b = append(b, form.colon...)
		if b, err = appendFloat(b, f.v); err != nil {
			return b, err
		}
	}
	return append(b, form.close...), nil
}

// appendEvalResponse appends the /v1/evaluate body for the evaluated
// jobs: api.EvalResponse as json.Encoder with a two-space indent writes
// it, trailing newline included.
func appendEvalResponse(b []byte, jobs []batch.Point, res *batch.Results, workers int) ([]byte, error) {
	b = append(b, "{\n  \"results\": ["...)
	for i := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		out, _ := res.At(i)
		var err error
		if b, err = appendResult(b, &indentedForm, jobs[i].Kind, jobs[i].Scenario.CState, out); err != nil {
			return b, err
		}
	}
	if len(jobs) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"workers\": "...)
	b = strconv.AppendInt(b, int64(workers), 10)
	return append(b, "\n}\n"...), nil
}

// appendStreamResult appends point i's successful /v1/evaluate/stream
// line: api.EvalStreamResult as json.Encoder writes it.
func appendStreamResult(b []byte, i int, job batch.Point, res pdn.Result) ([]byte, error) {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, `,"result":`...)
	b, err := appendResult(b, &lineForm, job.Kind, job.Scenario.CState, res)
	if err != nil {
		return b, err
	}
	return append(b, "}\n"...), nil
}
