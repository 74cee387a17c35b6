// Package batch evaluates a batch of evaluation points — any mix of the
// four static PDNs and FlexWatts with Algorithm 1 in the loop — in one
// pass through the grid kernels. It is the one batch path behind
// flexwattsd's /v1/evaluate and /v1/evaluate/stream and the library's
// Client.EvaluateBatch.
//
// Points are grouped by PDN kind into arena-leased SoA grids, FlexWatts
// points further by the hybrid mode Algorithm 1 predicts for them, and
// each group runs its kernel once through sweep.GridMapCtx. The kernels
// are bitwise identical to the scalar models (internal/pdn/grid.go), so
// every point carries exactly the result its scalar model returns.
// Nothing is memoized: on these paths recomputing a point costs less than
// probing a cache for it.
package batch

import (
	"context"

	"repro/internal/core"
	"repro/internal/pdn"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Point is one evaluation: a PDN kind (one of pdn.AllKinds), the scenario
// it evaluates, and the TDP at which Algorithm 1 predicts a FlexWatts
// point's hybrid mode (the static PDNs ignore it).
type Point struct {
	Kind     pdn.Kind
	Scenario pdn.Scenario
	TDP      units.Watt
}

// numGroups counts the kernel groups: one per static PDN, indexed by its
// pdn.Kind, then one per hybrid mode at pdn.FlexWatts + mode.
const numGroups = int(pdn.FlexWatts) + 2

// Evaluator evaluates batches against one set of PDN models. Baselines,
// Flex and Predictor must be set; it is safe for concurrent use.
type Evaluator struct {
	// Baselines maps each static PDN kind to its model.
	Baselines map[pdn.Kind]pdn.Model
	// Flex is the hybrid PDN and Predictor its Algorithm 1 mode predictor.
	Flex      *core.Model
	Predictor *core.Predictor
	// Workers bounds each group's kernel pool; <= 0 means GOMAXPROCS
	// (the sweep.MapCtx convention). Results are identical either way.
	Workers int
	// arena recycles the group grids and their result blocks across
	// batches, so a steady load stops allocating evaluation storage.
	arena pdn.GridArena
}

// ArenaStats reports the evaluator's grid arena books: leases checked
// out, and how many of them the pool served from a recycled lease.
func (e *Evaluator) ArenaStats() (gets, reuses int64) { return e.arena.Stats() }

// Results is one evaluated batch, held in its groups' leased result
// blocks. Read it by point index and Release it when done.
type Results struct {
	groups [numGroups]group
	slots  []slot
	// errs holds per-point errors by point index; it stays nil until a
	// group's kernel rejects the group and the group is re-run point by
	// point.
	errs []error
}

// group is the points of one kernel call.
type group struct {
	lease *pdn.GridLease
	out   []pdn.Result
}

// slot locates a point in its group's grid and result block.
type slot struct {
	group uint8
	pos   int32
}

// Evaluate evaluates every point. Its only error is context.Cause(ctx),
// when ctx ends before the batch does; per-point failures stay with their
// points (At, FirstErr). A group whose kernel rejects it is re-run point
// by point through the scalar model, so each point carries exactly its
// scalar result or error and the group's other points still evaluate.
func (e *Evaluator) Evaluate(ctx context.Context, pts []Point) (*Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	r := &Results{slots: make([]slot, len(pts))}
	for i := range pts {
		p := &pts[i]
		gi := int(p.Kind)
		if p.Kind == pdn.FlexWatts {
			gi += int(e.Predictor.Predict(core.InputsFromScenario(p.Scenario, p.TDP)))
		}
		grp := &r.groups[gi]
		if grp.lease == nil {
			grp.lease = e.arena.Get()
		}
		g := grp.lease.Grid()
		r.slots[i] = slot{group: uint8(gi), pos: int32(g.Len())}
		g.Append(p.Scenario)
	}
	for gi := range r.groups {
		grp := &r.groups[gi]
		if grp.lease == nil {
			continue
		}
		g := grp.lease.Grid()
		grp.out = grp.lease.Results(g.Len())
		m := e.model(gi)
		if err := sweep.GridMapCtx(ctx, e.Workers, nil, m, g, grp.out, 0); err != nil {
			if ctx.Err() != nil {
				r.Release()
				return nil, context.Cause(ctx)
			}
			r.rerun(gi, m)
		}
	}
	return r, nil
}

// model returns group gi's PDN: a static baseline, or FlexWatts pinned to
// one hybrid mode.
func (e *Evaluator) model(gi int) pdn.Model {
	if gi < int(pdn.FlexWatts) {
		return e.Baselines[pdn.Kind(gi)]
	}
	return flexMode{m: e.Flex, mode: core.Mode(gi - int(pdn.FlexWatts))}
}

// rerun evaluates group gi point by point through m's scalar path,
// recording each failing point's error under its batch index.
func (r *Results) rerun(gi int, m pdn.Model) {
	grp := &r.groups[gi]
	g := grp.lease.Grid()
	for i, s := range r.slots {
		if int(s.group) != gi {
			continue
		}
		res, err := m.Evaluate(g.At(int(s.pos)))
		grp.out[s.pos] = res
		if err != nil {
			if r.errs == nil {
				r.errs = make([]error, len(r.slots))
			}
			r.errs[i] = err
		}
	}
}

// At returns point i's result and error: exactly what its scalar model
// returns for the point.
func (r *Results) At(i int) (pdn.Result, error) {
	s := r.slots[i]
	var err error
	if r.errs != nil {
		err = r.errs[i]
	}
	return r.groups[s.group].out[s.pos], err
}

// Mode returns the hybrid mode Algorithm 1 predicted for point i, the
// mode its kernel ran; it is IVRMode for the static PDNs.
func (r *Results) Mode(i int) core.Mode {
	if g := int(r.slots[i].group); g >= int(pdn.FlexWatts) {
		return core.Mode(g - int(pdn.FlexWatts))
	}
	return core.IVRMode
}

// FirstErr returns the lowest failing point index and its error, or
// (-1, nil) when every point evaluated.
func (r *Results) FirstErr() (int, error) {
	for i, err := range r.errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// Release returns the result blocks to the evaluator's arena; r must not
// be read afterwards.
func (r *Results) Release() {
	for gi := range r.groups {
		if l := r.groups[gi].lease; l != nil {
			l.Release()
			r.groups[gi] = group{}
		}
	}
}

// flexMode is FlexWatts pinned to one hybrid mode, so a mode group runs
// through sweep.GridMapCtx, and its scalar re-run, like a static PDN.
type flexMode struct {
	m    *core.Model
	mode core.Mode
}

func (f flexMode) Kind() pdn.Kind { return pdn.FlexWatts }

func (f flexMode) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	return f.m.EvaluateMode(s, f.mode)
}

func (f flexMode) EvaluateGrid(g *pdn.Grid, out []pdn.Result) error {
	return f.m.EvaluateGridMode(g, out, f.mode)
}
