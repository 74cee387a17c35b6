package sweep

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/pdn"
)

// GridEvaluator is a pdn.Model with a batch evaluation path. Every pdn
// model's Evaluate runs its EvaluateGrid kernel on a one-point grid
// (internal/pdn/grid.go), so the two are bitwise identical: a cache-free
// grid run through the kernel returns exactly the bits a cached grid,
// resolved point by point, stores and serves.
type GridEvaluator interface {
	pdn.Model
	EvaluateGrid(g *pdn.Grid, out []pdn.Result) error
}

// gridBlock is the largest chunk GridMapCtx hands one worker: big enough
// to amortize the kernel's per-call invariant hoisting on a cache-free
// grid, small enough that several chunks per worker even out stragglers.
const gridBlock = 256

// EvaluateGrid evaluates every grid point into out[:g.Len()]. A cache
// resolves the points in index order through Evaluate — same key, same
// hit/miss accounting, same once-per-key model invocation — so on a warm
// cache no model runs at all. A nil cache runs the model's EvaluateGrid
// kernel on the whole grid (or a scalar loop for models without one).
//
// Per-point errors surface as the lowest failing index wrapped by
// pdn.GridPointError; results for preceding points are valid.
func (c *Cache) EvaluateGrid(m pdn.Model, g *pdn.Grid, out []pdn.Result) error {
	if err := pdn.CheckGridOut(g, out); err != nil {
		return err
	}
	if ge, ok := m.(GridEvaluator); ok && c == nil {
		return ge.EvaluateGrid(g, out)
	}
	for i := 0; i < g.Len(); i++ {
		res, err := c.Evaluate(m, g.At(i))
		if err != nil {
			return pdn.GridPointError(i, err)
		}
		out[i] = res
	}
	return nil
}

// adaptiveChunk sizes GridMapCtx's work unit for a grid of n points on
// the given worker count: aim for several chunks per worker so a slow
// chunk doesn't straggle the whole grid, but never slice finer than a
// quarter block — below that the kernel's per-call invariant hoisting
// stops amortizing.
func adaptiveChunk(n, workers int) int {
	if workers <= 1 {
		return gridBlock
	}
	c := n / (workers * 4)
	if c < gridBlock/4 {
		c = gridBlock / 4
	}
	if c > gridBlock {
		c = gridBlock
	}
	return c
}

// GridMapCtx evaluates a grid on a pool of workers, each worker running
// whole chunks through (c, m).EvaluateGrid — the batch counterpart of
// MapCtx's per-point closure dispatch. chunk <= 0 picks an adaptive size
// from the grid length and worker count (see adaptiveChunk); workers
// follow MapCtx's convention. out must have at least g.Len() slots. The
// first failing chunk's error (lowest chunk index, and within it the
// lowest point index) is returned, wrapped with the chunk's absolute
// point range.
func GridMapCtx(ctx context.Context, workers int, c *Cache, m pdn.Model, g *pdn.Grid, out []pdn.Result, chunk int) error {
	if err := pdn.CheckGridOut(g, out); err != nil {
		return err
	}
	if chunk <= 0 {
		w := workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		chunk = adaptiveChunk(g.Len(), w)
	}
	n := g.Len()
	chunks := (n + chunk - 1) / chunk
	_, err := MapCtx(ctx, workers, chunks, func(ci int) (struct{}, error) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		v := g.View(lo, hi)
		if err := c.EvaluateGrid(m, &v, out[lo:hi]); err != nil {
			return struct{}{}, fmt.Errorf("sweep: grid points [%d,%d): %w", lo, hi, err)
		}
		return struct{}{}, nil
	})
	return err
}
