package flexwatts

import (
	"context"
	"testing"
)

// TestEvaluateBatchAddsNoCacheKeys pins the batch path's cache contract:
// EvaluateBatch recomputes every point through the kernels, so a batch of
// non-repeating points neither reads nor fills the client's memoizing
// cache, while a scalar Evaluate of the same point still memoizes.
func TestEvaluateBatchAddsNoCacheKeys(t *testing.T) {
	c, err := NewClient(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for _, k := range Kinds() {
		for _, tdp := range []Watt{4, 18, 50} {
			for _, ar := range []float64{0.3, 0.6, 0.9} {
				pts = append(pts, Point{PDN: k, TDP: tdp, Workload: MultiThread, AR: ar})
			}
		}
		pts = append(pts, Point{PDN: k, CState: C6})
	}
	pts = append(pts, Point{TDP: 18, Workload: Graphics, AR: 0.5})
	ctx := context.Background()

	for pass := 0; pass < 2; pass++ {
		if _, err := c.EvaluateBatch(ctx, pts); err != nil {
			t.Fatal(err)
		}
		if keys := c.cache.Len(); keys != 0 {
			t.Fatalf("pass %d: EvaluateBatch left %d cache keys, want 0", pass, keys)
		}
		if hits, misses := c.cache.Stats(); hits != 0 || misses != 0 {
			t.Fatalf("pass %d: EvaluateBatch touched the cache (%d hits, %d misses)", pass, hits, misses)
		}
	}
	if _, err := c.Evaluate(ctx, pts[0]); err != nil {
		t.Fatal(err)
	}
	if keys := c.cache.Len(); keys != 1 {
		t.Errorf("scalar Evaluate left %d cache keys, want 1", keys)
	}
}
