package experiments

import (
	"cmp"
	"slices"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/metrics"
	"streamcache/internal/sim"
)

// Adaptive sweep refinement: after a coarse pass over one numeric axis
// (underestimation factor e, variability sigma, cache fraction), the
// driver repeatedly bisects the axis intervals with the steepest metric
// gradient until a point budget is exhausted, so sweep points
// concentrate where the response surface bends instead of where the
// grid happened to fall.
//
// Determinism contract: refinement decisions are keyed exclusively on
// completed rows — the coarse pass is a full barrier, and each round
// selects a fixed number of intervals (refineRoundPoints, independent
// of Parallelism) from the deterministic point set, evaluates them over
// the worker pool, and re-ranks. Every simulated point derives its
// randomness from the scale seed via the existing SplitMix64 scheme
// (sim.Run splits cfg.Seed per run), so the selected points and the
// streamed rows are byte-identical at any Parallelism.

// refineRoundPoints is the number of intervals bisected per refinement
// round. It is a constant, never the worker count: a round's selections
// may not depend on how many points could run concurrently, or the
// refined point set would vary with Parallelism.
const refineRoundPoints = 2

// minGapDivisor bounds refinement depth: an interval narrower than
// 2 * span/minGapDivisor is never bisected.
const minGapDivisor = 256

// pointFn evaluates one axis point: the rendered row (without the
// trailing source cell) plus the scalar metric refinement ranks by.
// innerParallelism is the worker bound left over for parallelism
// inside the point (e.g. sim.Run's replication pool): wide when few
// points are in flight (refinement rounds), 1 when the outer pool is
// already saturated (the coarse pass). Results must not depend on it.
type pointFn func(x float64, innerParallelism int) (row []string, metric float64, err error)

// adaptiveSweep is a runner that streams a coarse axis pass followed by
// gradient-guided refinement rounds. Rows carry a trailing "source"
// cell ("coarse" or "refined"); meta.Header must already include it.
type adaptiveSweep struct {
	meta   TableMeta
	axis   []float64 // ascending coarse grid
	budget int       // extra points beyond the coarse pass
	point  pointFn
}

func (a *adaptiveSweep) tableMeta() TableMeta { return a.meta }

// axisPoint is one completed sweep point.
type axisPoint struct {
	x      float64
	metric float64
}

// evalRound evaluates one refinement round's points (global indices
// base..base+n-1) over the worker pool, emitting each owned row (tagged
// with source) in index order and returning every point's metric in
// index order — the full curve the next refinement decision needs.
//
// Scheduling is shard-aware: a shard simulates its owned points
// (replaying rows-with-metrics from the resume journal when present)
// and resolves foreign points without simulating them — first from
// journaled metric checkpoints, then through the MetricExchange. Only
// when both miss (no exchange configured, collector down, owner dead)
// does a shard fall back to simulating a foreign point locally; the
// determinism contract makes the fallback metric bit-identical to the
// owner's, so the refined point set and the emitted rows never depend
// on which path produced a metric — the exchange purely removes the
// N-fold duplicate compute. Fail-fast semantics match streamTasks.
func evalRound(x exec, n, base int,
	point func(i, innerParallelism int) (row []string, metric float64, err error),
	source string, emit func(m MetricRow) error) ([]float64, error) {

	type eval struct {
		row    []string
		metric float64
		owned  bool
	}
	// Split the worker budget between the outer point pool and each
	// point's inner pool so a phase with few locally evaluated points (a
	// refinement round, or an exchange-served shard's slice of the
	// coarse pass) still keeps the cores busy, while a wide phase does
	// not oversubscribe them P x P. Pure scheduling: rows are identical
	// for any split.
	local := n
	if x.exchange != nil && x.shard.enabled() {
		local = 0
		for g := base; g < base+n; g++ {
			if x.shard.owns(g) {
				local++
			}
		}
	}
	inner := 1
	if local > 0 {
		if inner = x.parallelism / local; inner < 1 {
			inner = 1
		}
	}
	metrics := make([]float64, 0, n)
	err := streamOrdered(x.parallelism, n, func(i int) (eval, error) {
		g := base + i
		owned := x.shard.owns(g)
		if owned {
			// Journaled rows carry the rendered payload (source cell
			// included) and the exact metric; nothing to recompute.
			if r, ok := x.replay(g); ok && r.HasMetric {
				return eval{row: r.Row, metric: r.Metric, owned: true}, nil
			}
		} else if m, ok := x.foreignMetric(g); ok {
			return eval{metric: m}, nil
		}
		x.evaluated()
		row, metric, err := point(i, inner)
		if err != nil {
			return eval{}, err
		}
		return eval{row: append(row, source), metric: metric, owned: owned}, nil
	}, func(i int, v eval) error {
		if v.owned {
			if err := emit(MetricRow{Index: base + i, Row: v.row, Metric: v.metric, HasMetric: true}); err != nil {
				return err
			}
		}
		metrics = append(metrics, v.metric)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return metrics, nil
}

// evalOrdered evaluates the given axis values through evalRound,
// pairing each returned metric with its axis position.
func (a *adaptiveSweep) evalOrdered(x exec, xs []float64, base int, source string,
	emit func(m MetricRow) error) ([]axisPoint, error) {

	metrics, err := evalRound(x, len(xs), base, func(i, inner int) ([]string, float64, error) {
		return a.point(xs[i], inner)
	}, source, emit)
	if err != nil {
		return nil, err
	}
	pts := make([]axisPoint, len(xs))
	for i, m := range metrics {
		pts[i] = axisPoint{x: xs[i], metric: m}
	}
	return pts, nil
}

func (a *adaptiveSweep) run(x exec, emit func(m MetricRow) error) error {
	// Coarse pass: the full axis, streamed in grid order. Refinement
	// cannot begin before every coarse row has landed (its decisions are
	// keyed on the complete coarse response curve).
	points, err := a.evalOrdered(x, a.axis, 0, "coarse", emit)
	if err != nil {
		return err
	}
	nextIndex := len(a.axis)
	if len(a.axis) < 2 || a.budget <= 0 {
		return nil
	}
	minGap := 2 * (a.axis[len(a.axis)-1] - a.axis[0]) / minGapDivisor

	remaining := a.budget
	for remaining > 0 {
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, p := range points {
			xs[i], ys[i] = p.x, p.metric
		}
		grads, err := metrics.Gradients(xs, ys)
		if err != nil {
			return err
		}
		// Rank intervals by gradient, ties broken toward the left end of
		// the axis; both keys are pure functions of completed rows.
		type interval struct {
			left int // index into points
			grad float64
		}
		var candidates []interval
		for i, g := range grads {
			if xs[i+1]-xs[i] > minGap {
				candidates = append(candidates, interval{left: i, grad: g})
			}
		}
		slices.SortStableFunc(candidates, func(a, b interval) int {
			if a.grad != b.grad {
				return cmp.Compare(b.grad, a.grad)
			}
			return cmp.Compare(xs[a.left], xs[b.left])
		})
		k := refineRoundPoints
		if k > remaining {
			k = remaining
		}
		if k > len(candidates) {
			k = len(candidates)
		}
		if k == 0 {
			return nil // axis fully resolved before the budget ran out
		}
		mids := make([]float64, k)
		for i := 0; i < k; i++ {
			mids[i] = (xs[candidates[i].left] + xs[candidates[i].left+1]) / 2
		}
		refined, err := a.evalOrdered(x, mids, nextIndex, "refined", emit)
		if err != nil {
			return err
		}
		nextIndex += k
		points = append(points, refined...)
		slices.SortFunc(points, func(a, b axisPoint) int { return cmp.Compare(a.x, b.x) })
		remaining -= k
	}
	return nil
}

// refinedSimSweep assembles the common single-axis adaptive experiment:
// one simulation per axis point at the scale's middle cache fraction.
func refinedSimSweep(s Scale, meta TableMeta, axis []float64,
	point pointFn) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &adaptiveSweep{meta: meta, axis: axis, budget: s.RefineBudget, point: point}, nil
}

// RefinedESweep is Figure 9's underestimation axis made adaptive: a
// coarse pass over ESweep at the middle cache fraction, then
// RefineBudget extra points bisecting the steepest service-delay
// gradients — resolving the delay-minimizing e the paper reads off a
// fixed grid.
func RefinedESweep(s Scale) (*Table, error) { return tableOf(s, refinedESweepRunner) }

func refinedESweepRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	frac := s.midFraction()
	return refinedSimSweep(s, TableMeta{
		Name:   "Refined sweep: underestimation factor e, adaptive (delay objective)",
		Note:   "coarse ESweep pass, then gradient-guided bisection of avg_delay_s; mid-size cache, NLANR variability",
		Header: []string{"e", "cache_pct", "traffic_reduction", "avg_delay_s", "avg_quality", "source"},
	}, s.ESweep, func(e float64, innerPar int) ([]string, float64, error) {
		p, err := core.NewHybrid(e)
		if err != nil {
			return nil, 0, err
		}
		m, err := sim.Run(sim.Config{
			Workload:    s.workload(),
			CacheBytes:  int64(frac * float64(total)),
			Policy:      p,
			Variation:   bandwidth.NLANRVariability(),
			Runs:        s.Runs,
			Seed:        s.Seed,
			Parallelism: innerPar,
			Arena:       arena,
		})
		if err != nil {
			return nil, 0, err
		}
		return []string{
			f3(e), f3(frac * 100),
			f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
		}, m.AvgServiceDelay, nil
	})
}

// RefinedSigmaSweep sweeps the lognormal bandwidth-variability sigma
// adaptively for the PB policy, zooming into the variability levels
// where service delay bends fastest.
func RefinedSigmaSweep(s Scale) (*Table, error) { return tableOf(s, refinedSigmaSweepRunner) }

func refinedSigmaSweepRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	frac := s.midFraction()
	return refinedSimSweep(s, TableMeta{
		Name:   "Refined sweep: bandwidth-variability sigma, adaptive (PB policy)",
		Note:   "coarse SigmaSweep pass, then gradient-guided bisection of avg_delay_s; mid-size cache",
		Header: []string{"sigma", "cache_pct", "traffic_reduction", "avg_delay_s", "avg_quality", "source"},
	}, s.sigmas(), func(sigma float64, innerPar int) ([]string, float64, error) {
		variation, err := bandwidth.NewLognormalRatio(sigma)
		if err != nil {
			return nil, 0, err
		}
		m, err := sim.Run(sim.Config{
			Workload:    s.workload(),
			CacheBytes:  int64(frac * float64(total)),
			Policy:      core.NewPB(),
			Variation:   variation,
			Runs:        s.Runs,
			Seed:        s.Seed,
			Parallelism: innerPar,
			Arena:       arena,
		})
		if err != nil {
			return nil, 0, err
		}
		return []string{
			f3(sigma), f3(frac * 100),
			f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
		}, m.AvgServiceDelay, nil
	})
}

// RefinedCacheSweep sweeps the cache fraction adaptively for the PB
// policy under constant bandwidth, concentrating points where the
// traffic-reduction curve has the steepest knee (Figure 5's x axis).
func RefinedCacheSweep(s Scale) (*Table, error) { return tableOf(s, refinedCacheSweepRunner) }

func refinedCacheSweepRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	return refinedSimSweep(s, TableMeta{
		Name:   "Refined sweep: cache fraction, adaptive (PB policy, constant bandwidth)",
		Note:   "coarse CacheFractions pass, then gradient-guided bisection of traffic_reduction",
		Header: []string{"cache_pct", "traffic_reduction", "avg_delay_s", "avg_quality", "source"},
	}, s.CacheFractions, func(frac float64, innerPar int) ([]string, float64, error) {
		m, err := sim.Run(sim.Config{
			Workload:    s.workload(),
			CacheBytes:  int64(frac * float64(total)),
			Policy:      core.NewPB(),
			Runs:        s.Runs,
			Seed:        s.Seed,
			Parallelism: innerPar,
			Arena:       arena,
		})
		if err != nil {
			return nil, 0, err
		}
		return []string{
			f3(frac * 100),
			f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
		}, m.TrafficReductionRatio, nil
	})
}
