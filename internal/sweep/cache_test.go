package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
	"repro/internal/pdn"
)

// countingModel is a fake pdn.Model that counts Evaluate calls.
type countingModel struct {
	kind  pdn.Kind
	calls atomic.Int64
	err   error
}

func (m *countingModel) Kind() pdn.Kind { return m.kind }

func (m *countingModel) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	m.calls.Add(1)
	if m.err != nil {
		return pdn.Result{}, m.err
	}
	return pdn.Result{PDN: m.kind, PNomTotal: s.TotalNominal(), PIn: s.TotalNominal() / 0.8}, nil
}

func testScenario(coreP float64) pdn.Scenario {
	s := pdn.NewScenario()
	s.Loads[domain.Core0] = pdn.Load{PNom: coreP, VNom: 0.8, FL: 0.3, AR: 0.6}
	s.Loads[domain.SA] = pdn.Load{PNom: 0.5, VNom: 1.0, FL: 0.22, AR: 0.8}
	s.Loads[domain.IO] = pdn.Load{PNom: 0.3, VNom: 1.0, FL: 0.22, AR: 0.8}
	return s
}

func TestCacheHit(t *testing.T) {
	c := NewCache()
	m := &countingModel{kind: pdn.IVR}
	s := testScenario(4)

	r1, err := c.Evaluate(m, s)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Evaluate(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if m.calls.Load() != 1 {
		t.Errorf("model evaluated %d times, want 1", m.calls.Load())
	}
	if r1.PIn != r2.PIn || r1.PNomTotal != r2.PNomTotal {
		t.Errorf("cached result %+v differs from first %+v", r2, r1)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheKeysByKindAndScenario(t *testing.T) {
	c := NewCache()
	ivr := &countingModel{kind: pdn.IVR}
	mbvr := &countingModel{kind: pdn.MBVR}
	s1, s2 := testScenario(4), testScenario(18)

	for _, p := range []struct {
		m *countingModel
		s pdn.Scenario
	}{{ivr, s1}, {ivr, s2}, {mbvr, s1}, {mbvr, s2}} {
		if _, err := c.Evaluate(p.m, p.s); err != nil {
			t.Fatal(err)
		}
	}
	if ivr.calls.Load() != 2 || mbvr.calls.Load() != 2 {
		t.Errorf("calls = (%d, %d), want (2, 2)", ivr.calls.Load(), mbvr.calls.Load())
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

func TestCacheCanonicalizesAbsentLoads(t *testing.T) {
	// A scenario that omits a domain and one that lists it idle (zero
	// power) evaluate identically, so they must share one cache entry.
	c := NewCache()
	m := &countingModel{kind: pdn.LDO}
	withAbsent := testScenario(4)
	withIdle := testScenario(4)
	withIdle.Loads[domain.GFX] = pdn.Load{}

	if _, err := c.Evaluate(m, withAbsent); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate(m, withIdle); err != nil {
		t.Fatal(err)
	}
	if m.calls.Load() != 1 {
		t.Errorf("model evaluated %d times, want 1 (idle load should share the absent-load key)", m.calls.Load())
	}
}

func TestCacheMemoizesErrors(t *testing.T) {
	c := NewCache()
	wantErr := errors.New("invalid scenario")
	m := &countingModel{kind: pdn.IVR, err: wantErr}
	s := testScenario(4)
	for i := 0; i < 3; i++ {
		if _, err := c.Evaluate(m, s); !errors.Is(err, wantErr) {
			t.Fatalf("call %d: err = %v, want %v", i, err, wantErr)
		}
	}
	if m.calls.Load() != 1 {
		t.Errorf("failing evaluation ran %d times, want 1", m.calls.Load())
	}
}

func TestCacheConcurrentSingleEvaluation(t *testing.T) {
	// Many workers racing on the same key must trigger exactly one model
	// evaluation and all observe the same result.
	c := NewCache()
	m := &countingModel{kind: pdn.IMBVR}
	s := testScenario(10)
	const goroutines = 64
	var wg sync.WaitGroup
	results := make([]pdn.Result, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			r, err := c.Evaluate(m, s)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = r
		}(g)
	}
	wg.Wait()
	if m.calls.Load() != 1 {
		t.Errorf("model evaluated %d times, want 1", m.calls.Load())
	}
	for g := 1; g < goroutines; g++ {
		if results[g].PIn != results[0].PIn || results[g].PNomTotal != results[0].PNomTotal {
			t.Fatalf("goroutine %d saw %+v, others saw %+v", g, results[g], results[0])
		}
	}
}

func TestCachedWrapper(t *testing.T) {
	m := &countingModel{kind: pdn.MBVR}
	if got := Cached(m, nil); got != pdn.Model(m) {
		t.Error("Cached with nil cache should return the model unchanged")
	}
	c := NewCache()
	cm := Cached(m, c)
	if cm.Kind() != pdn.MBVR {
		t.Errorf("Kind = %v, want MBVR", cm.Kind())
	}
	s := testScenario(4)
	for i := 0; i < 5; i++ {
		if _, err := cm.Evaluate(s); err != nil {
			t.Fatal(err)
		}
	}
	if m.calls.Load() != 1 {
		t.Errorf("wrapped model evaluated %d times, want 1", m.calls.Load())
	}
}

func TestNilCacheEvaluatesDirectly(t *testing.T) {
	var c *Cache
	m := &countingModel{kind: pdn.IVR}
	s := testScenario(4)
	for i := 0; i < 2; i++ {
		if _, err := c.Evaluate(m, s); err != nil {
			t.Fatal(err)
		}
	}
	if m.calls.Load() != 2 {
		t.Errorf("nil cache evaluated %d times, want 2 (no memoization)", m.calls.Load())
	}
	if h, ms := c.Stats(); h != 0 || ms != 0 || c.Len() != 0 {
		t.Error("nil cache should report zero stats")
	}
}

func TestReset(t *testing.T) {
	c := NewCache()
	m := &countingModel{kind: pdn.IVR}
	for i := 0; i < 4; i++ {
		if _, err := c.Evaluate(m, testScenario(float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if removed := c.Reset(); removed != 4 {
		t.Errorf("Reset removed %d, want 4", removed)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after Reset, want 0", c.Len())
	}
	// The cache keeps working: the next Evaluate recomputes.
	calls := m.calls.Load()
	if _, err := c.Evaluate(m, testScenario(1)); err != nil {
		t.Fatal(err)
	}
	if m.calls.Load() != calls+1 {
		t.Error("post-Reset Evaluate did not recompute")
	}
}
