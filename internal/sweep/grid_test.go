package sweep

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
)

// gridTestModel returns a real IVR model (the grid path's contract is
// bitwise identity with real kernels, so a fake would test nothing) and a
// grid of distinct scenarios.
func gridTestModel(tb testing.TB, n int) (*pdn.IVRModel, *pdn.Grid) {
	tb.Helper()
	m := pdn.NewIVRModel(pdn.Params{
		TOBIVR:      units.MilliVolt(10),
		TOBMBVR:     units.MilliVolt(20),
		TOBLDO:      units.MilliVolt(15),
		VINLevel:    1.8,
		IVRInLL:     units.MilliOhm(3),
		LDOInLL:     units.MilliOhm(5),
		CoresLL:     units.MilliOhm(2),
		GfxLL:       units.MilliOhm(2),
		SALL:        units.MilliOhm(5),
		IOLL:        units.MilliOhm(5),
		RPG:         units.MilliOhm(1.5),
		IVRIccmax:   50,
		VINIccmax:   40,
		CoresIccmax: 60,
		GfxIccmax:   40,
		SAIccmax:    10,
		IOIccmax:    10,
	})
	g := pdn.NewGrid(n)
	for i := 0; i < n; i++ {
		g.Append(testScenario(2 + float64(i)*0.125))
	}
	return m, g
}

// TestCacheEvaluateGridMatchesScalar pins the cached grid path against the
// scalar cache path: same results (bitwise — Result is comparable), same
// hit/miss accounting, model invoked once per distinct key.
func TestCacheEvaluateGridMatchesScalar(t *testing.T) {
	const n = 600 // spans three blocks, last one partial
	m, g := gridTestModel(t, n)
	c := NewCache()
	out := make([]pdn.Result, n)
	if err := c.EvaluateGrid(m, g, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want, err := m.Evaluate(g.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("point %d: grid-through-cache result differs from scalar", i)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != int64(n) {
		t.Errorf("cold stats = (%d hits, %d misses), want (0, %d)", hits, misses, n)
	}
	// Warm pass: all hits, results identical, no model invocation (the
	// kernel would change nothing, but it must not even run — pinned by
	// the allocation test at the repo root).
	out2 := make([]pdn.Result, n)
	if err := c.EvaluateGrid(m, g, out2); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("point %d: warm result differs", i)
		}
	}
	if hits, misses := c.Stats(); hits != int64(n) || misses != int64(n) {
		t.Errorf("warm stats = (%d hits, %d misses), want (%d, %d)", hits, misses, n, n)
	}
}

// TestCacheEvaluateGridInterleavesScalar pins cache coherence between the
// two paths: keys resolved by scalar Evaluate are grid hits and vice
// versa, with identical bits.
func TestCacheEvaluateGridInterleavesScalar(t *testing.T) {
	const n = 64
	m, g := gridTestModel(t, n)
	c := NewCache()
	// Resolve the even points through the scalar path first.
	scalar := make([]pdn.Result, n)
	for i := 0; i < n; i += 2 {
		res, err := c.Evaluate(m, g.At(i))
		if err != nil {
			t.Fatal(err)
		}
		scalar[i] = res
	}
	out := make([]pdn.Result, n)
	if err := c.EvaluateGrid(m, g, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		if out[i] != scalar[i] {
			t.Fatalf("point %d: grid hit differs from scalar-resolved entry", i)
		}
	}
	hits, misses := c.Stats()
	if hits != n/2 || misses != n {
		t.Errorf("stats = (%d hits, %d misses), want (%d, %d)", hits, misses, n/2, n)
	}
	// And the odd keys, grid-resolved, now answer scalar lookups.
	for i := 1; i < n; i += 2 {
		res, err := c.Evaluate(m, g.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if res != out[i] {
			t.Fatalf("point %d: scalar hit differs from grid-resolved entry", i)
		}
	}
}

// TestCacheEvaluateGridError pins the error contract: lowest failing index
// wrapped with the scalar error; the invalid key caches its error like the
// scalar path does.
func TestCacheEvaluateGridError(t *testing.T) {
	m, g := gridTestModel(t, 8)
	bad := g.At(3)
	bad.Loads[domain.Core0].AR = 2
	g.Set(3, bad)
	c := NewCache()
	out := make([]pdn.Result, g.Len())
	err := c.EvaluateGrid(m, g, out)
	if err == nil {
		t.Fatal("EvaluateGrid accepted an invalid point")
	}
	if !strings.Contains(err.Error(), "grid point 3") {
		t.Errorf("error %q does not name point 3", err)
	}
	_, wantErr := m.Evaluate(bad)
	if !strings.Contains(err.Error(), wantErr.Error()) {
		t.Errorf("error %q does not wrap scalar error %q", err, wantErr)
	}
	// The scalar cache path must agree on the cached error.
	if _, err2 := c.Evaluate(m, bad); err2 == nil || err2.Error() != wantErr.Error() {
		t.Errorf("cached error = %v, want %v", err2, wantErr)
	}
	// Points before the failure were written and valid.
	want, _ := m.Evaluate(g.At(2))
	if out[2] != want {
		t.Error("result preceding the failure was not written")
	}
}

// TestCacheEvaluateGridFallbackModel pins the no-kernel path: a model
// without EvaluateGrid still evaluates correctly through the cache.
func TestCacheEvaluateGridFallbackModel(t *testing.T) {
	c := NewCache()
	m := &countingModel{kind: pdn.MBVR}
	g := pdn.NewGrid(8)
	for i := 0; i < 8; i++ {
		g.Append(testScenario(1 + float64(i)))
	}
	out := make([]pdn.Result, 8)
	for pass := 0; pass < 2; pass++ {
		if err := c.EvaluateGrid(m, g, out); err != nil {
			t.Fatal(err)
		}
	}
	if m.calls.Load() != 8 {
		t.Errorf("model evaluated %d times, want 8", m.calls.Load())
	}
	// Nil cache, no kernel: direct scalar loop.
	var nilCache *Cache
	if err := nilCache.EvaluateGrid(m, g, out); err != nil {
		t.Fatal(err)
	}
	if m.calls.Load() != 16 {
		t.Errorf("nil-cache pass evaluated %d total, want 16", m.calls.Load())
	}
}

// TestCacheEvaluateGridConcurrent hammers one cache from grid and scalar
// goroutines over overlapping keys; under -race this pins the locking, and
// the result comparison pins cross-path coherence.
func TestCacheEvaluateGridConcurrent(t *testing.T) {
	const n = 512
	m, g := gridTestModel(t, n)
	c := NewCache()
	want := make([]pdn.Result, n)
	for i := range want {
		res, err := m.Evaluate(g.At(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	var fail atomic.Int32
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			out := make([]pdn.Result, n)
			if err := c.EvaluateGrid(m, g, out); err != nil {
				fail.Add(1)
				return
			}
			for i := range out {
				if out[i] != want[i] {
					fail.Add(1)
					return
				}
			}
		}()
		go func(seed int) {
			defer wg.Done()
			for i := seed; i < n; i += 7 {
				res, err := c.Evaluate(m, g.At(i))
				if err != nil || res != want[i] {
					fail.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if fail.Load() != 0 {
		t.Fatalf("%d goroutines observed wrong results", fail.Load())
	}
	if c.Len() != n {
		t.Errorf("cache holds %d keys, want %d", c.Len(), n)
	}
}

// keyCountingModel wraps a real IVR model and counts, per distinct
// scenario, how many times the model computed it — through either the
// scalar Evaluate or as one point of an EvaluateGrid kernel call. It is
// the instrument for the exactly-one-invocation contract.
type keyCountingModel struct {
	inner *pdn.IVRModel
	mu    sync.Mutex
	calls map[pdn.Scenario]int
}

func (m *keyCountingModel) Kind() pdn.Kind { return m.inner.Kind() }

func (m *keyCountingModel) count(s pdn.Scenario) {
	m.mu.Lock()
	m.calls[s]++
	m.mu.Unlock()
}

func (m *keyCountingModel) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	m.count(s)
	return m.inner.Evaluate(s)
}

func (m *keyCountingModel) EvaluateGrid(g *pdn.Grid, out []pdn.Result) error {
	for i := 0; i < g.Len(); i++ {
		m.count(g.At(i))
	}
	return m.inner.EvaluateGrid(g, out)
}

// TestGridMapCtxScalarRaceExactlyOnce races parallel GridMapCtx sweeps
// against scalar Cache.Evaluate calls over fully overlapping keys and
// asserts the cache's two guarantees: every observer sees the identical
// result bits, and the model is invoked exactly once per distinct key —
// whichever caller claims a key computes it, and every racer that lands
// on it in flight waits for the published result (the creator-computes
// contract). Run under -race this also pins the shard locking.
func TestGridMapCtxScalarRaceExactlyOnce(t *testing.T) {
	const n = 512
	inner, g := gridTestModel(t, n)
	m := &keyCountingModel{inner: inner, calls: make(map[pdn.Scenario]int)}
	want := make([]pdn.Result, n)
	for i := range want {
		res, err := inner.Evaluate(g.At(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	c := NewCache()
	var wg sync.WaitGroup
	var fail atomic.Int32
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(2)
		go func() {
			defer wg.Done()
			out := make([]pdn.Result, n)
			if err := GridMapCtx(context.Background(), 4, c, m, g, out, 0); err != nil {
				fail.Add(1)
				return
			}
			for i := range out {
				if out[i] != want[i] {
					fail.Add(1)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 3 {
				res, err := c.Evaluate(m, g.At(i))
				if err != nil || res != want[i] {
					fail.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail.Load() != 0 {
		t.Fatalf("%d goroutines observed wrong results or errors", fail.Load())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.calls) != n {
		t.Errorf("model computed %d distinct keys, want %d", len(m.calls), n)
	}
	for s, cnt := range m.calls {
		if cnt != 1 {
			t.Errorf("key %+v computed %d times, want exactly 1", s, cnt)
		}
	}
}

// TestCacheEvaluateGridRepeatedKeys pins grids that repeat keys inside one
// call: 16 distinct scenarios, each four times and never next to itself,
// evaluated whole and on four workers in chunks of eight. Each key is
// computed exactly once, the other 48 points are hits, and every result
// equals the scalar model's.
func TestCacheEvaluateGridRepeatedKeys(t *testing.T) {
	const distinct, repeats = 16, 4
	inner, base := gridTestModel(t, distinct)
	g := pdn.NewGrid(distinct * repeats)
	for i := 0; i < distinct*repeats; i++ {
		// Stride 5 is coprime to 16: every scenario appears four times and
		// consecutive points always differ.
		g.Append(base.At(i * 5 % distinct))
	}
	want := make([]pdn.Result, g.Len())
	for i := range want {
		res, err := inner.Evaluate(g.At(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	runs := []struct {
		name string
		run  func(c *Cache, m pdn.Model, out []pdn.Result) error
	}{
		{"EvaluateGrid", func(c *Cache, m pdn.Model, out []pdn.Result) error {
			return c.EvaluateGrid(m, g, out)
		}},
		{"GridMapCtx", func(c *Cache, m pdn.Model, out []pdn.Result) error {
			return GridMapCtx(context.Background(), 4, c, m, g, out, 8)
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			m := &keyCountingModel{inner: inner, calls: make(map[pdn.Scenario]int)}
			c := NewCache()
			out := make([]pdn.Result, g.Len())
			if err := r.run(c, m, out); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("point %d: result differs from the scalar model's", i)
				}
			}
			if hits, misses := c.Stats(); hits != 48 || misses != distinct {
				t.Errorf("stats = (%d hits, %d misses), want (48, %d)", hits, misses, distinct)
			}
			if len(m.calls) != distinct {
				t.Errorf("model computed %d distinct keys, want %d", len(m.calls), distinct)
			}
			for s, cnt := range m.calls {
				if cnt != 1 {
					t.Errorf("key %+v computed %d times, want exactly 1", s, cnt)
				}
			}
		})
	}
}

// TestGridMapCtx pins the chunked parallel driver: results identical to
// the serial path for chunk sizes that do and don't divide the grid, and
// cancellation surfaces the context cause.
func TestGridMapCtx(t *testing.T) {
	const n = 300
	m, g := gridTestModel(t, n)
	want := make([]pdn.Result, n)
	if err := (*Cache)(nil).EvaluateGrid(m, g, want); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 64, 100, 1000} {
		c := NewCache()
		out := make([]pdn.Result, n)
		if err := GridMapCtx(context.Background(), 4, c, m, g, out, chunk); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("chunk %d point %d: differs from serial", chunk, i)
			}
		}
	}

	bad := g.At(37)
	bad.Loads[domain.Core0].VNom = -1
	g.Set(37, bad)
	err := GridMapCtx(context.Background(), 4, NewCache(), m, g, make([]pdn.Result, n), 16)
	if err == nil || !strings.Contains(err.Error(), "[32,48)") {
		t.Errorf("error %v does not name the failing chunk range", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := GridMapCtx(ctx, 4, NewCache(), m, g, make([]pdn.Result, n), 16); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled GridMapCtx returned %v, want context.Canceled", err)
	}
}
