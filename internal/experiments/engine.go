package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"streamcache/internal/par"
	"streamcache/internal/sim"
)

// The sweep engine: every figure that is a grid of independent
// simulations (cache fraction x policy x scenario axis) is expressed as
// a runner that streams its rows into a RowSink. Fixed grids become a
// slice of rowTasks, one per sweep point, fanned out over a bounded
// worker pool with a reorder buffer (par.ForOrdered) delivering rows in
// task order however workers finish; adaptive sweeps (refine.go) layer
// gradient-driven refinement on top of the same streamed rows. Tasks
// are self-contained (each sim.Run derives all of its randomness from
// the config seed via sim.SplitSeed), so a streamed table is
// byte-identical for every Parallelism value and any goroutine
// schedule.

// rowTask computes one row of a table.
type rowTask func() ([]string, error)

// exec is the execution context of one streamed run: the worker bound,
// the shard of the row space this process owns, the resume journal
// whose completed rows are replayed instead of recomputed, the metric
// exchange resolving foreign refinement metrics, and the write-side
// journal that checkpoints fetched foreign metrics alongside rows.
type exec struct {
	parallelism int
	shard       Shard
	resume      *Journal
	table       string // table name, the journal key prefix
	exchange    MetricExchange
	counters    *Counters
	journal     *Journal // write side (nil when the run is unjournaled)
}

// replay looks up a completed row for the global index in the resume
// journal (nil-safe: no journal, no replays).
func (x exec) replay(index int) (MetricRow, bool) {
	return x.resume.replay(x.table, index)
}

// evaluated counts one locally simulated sweep point.
func (x exec) evaluated() {
	if x.counters != nil {
		x.counters.Evaluations.Add(1)
	}
}

// foreignMetric resolves the refinement metric of a point owned by
// another shard without simulating it: first the resume journal (a
// prior run already fetched or computed it), then the exchange. A hit
// from the exchange is checkpointed so a crash-resume does not depend
// on the collector still being reachable.
func (x exec) foreignMetric(index int) (float64, bool) {
	if m, ok := x.resume.Metric(x.table, index); ok {
		return m, true
	}
	if x.exchange == nil {
		return 0, false
	}
	m, ok := x.exchange.ForeignMetric(x.table, index)
	if !ok {
		return 0, false
	}
	if x.counters != nil {
		x.counters.ExchangeHits.Add(1)
	}
	if x.journal != nil {
		// Best-effort checkpoint: a write failure surfaces on the row
		// path, not here (the metric is already in hand).
		_ = x.journal.recordMetric(x.table, index, m)
	}
	return m, true
}

// runner produces one experiment's rows, streaming them through emit in
// deterministic order.
type runner interface {
	tableMeta() TableMeta
	run(x exec, emit func(m MetricRow) error) error
}

// parallelism resolves the effective worker bound of the scale.
// Negative values are rejected by Scale.validate before sweeps run.
func (s Scale) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// newArena builds the experiment-wide memoization arena (nil when the
// scale opts out of reuse). A caller-supplied s.Arena takes priority so
// one arena can span every experiment of a figure set.
func (s Scale) newArena() *sim.Arena {
	if s.NoWorkloadReuse {
		return nil
	}
	if s.Arena != nil {
		return s.Arena
	}
	return sim.NewArena()
}

// simRow builds the common sweep-point task: run one simulation,
// render its metrics as a row. The inner run-level Parallelism is
// pinned to 1 because the sweep pool already saturates the cores (and
// Metrics are identical for any value, so this is purely a scheduling
// choice). The arena is shared by every task of one experiment, so
// sweep points reuse identical workloads and path assignments instead
// of regenerating them (nil disables reuse; rows are byte-identical
// either way).
func simRow(arena *sim.Arena, cfg sim.Config, render func(sim.Metrics) []string) rowTask {
	return func() ([]string, error) {
		cfg.Parallelism = 1
		cfg.Arena = arena
		m, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		return render(m), nil
	}
}

// taskSweep is a fixed grid of independent sweep points.
type taskSweep struct {
	meta  TableMeta
	tasks []rowTask
}

func (t *taskSweep) tableMeta() TableMeta { return t.meta }

// run executes the shard-owned subset of the grid over the worker pool,
// replaying journaled rows instead of recomputing them, and emits rows
// in ascending global-index order.
func (t *taskSweep) run(x exec, emit func(m MetricRow) error) error {
	owned := x.shard.indices(len(t.tasks))
	return streamOrdered(x.parallelism, len(owned), func(j int) (MetricRow, error) {
		g := owned[j]
		if r, ok := x.replay(g); ok {
			return MetricRow{Index: g, Row: r.Row}, nil
		}
		x.evaluated()
		row, err := t.tasks[g]()
		return MetricRow{Index: g, Row: row}, err
	}, func(_ int, m MetricRow) error { return emit(m) })
}

// staticTable is a runner whose rows were computed eagerly (the
// workload- and trace-characterization tables); it streams them
// unchanged.
type staticTable struct {
	meta TableMeta
	rows [][]string
}

func (t *staticTable) tableMeta() TableMeta { return t.meta }

// run emits the shard-owned subset of the precomputed rows. The rows
// were already materialized by the builder, so sharding a static table
// splits only its output, not its (cheap) computation.
func (t *staticTable) run(x exec, emit func(m MetricRow) error) error {
	for i, row := range t.rows {
		if !x.shard.owns(i) {
			continue
		}
		if err := emit(MetricRow{Index: i, Row: row}); err != nil {
			return err
		}
	}
	return nil
}

// errSweepAborted marks tasks skipped because an earlier task failed.
// It is internal flow control only: streamOrdered reports the first
// real failure in task order, never the sentinel.
var errSweepAborted = errors.New("experiments: sweep aborted")

// streamOrdered runs eval(0..n-1) over a worker pool bounded by
// parallelism and hands results to deliver in strict index order as
// they become available. The first failure (in task order) aborts the
// stream, and tasks not yet started when any failure lands are
// skipped, preserving the fail-fast behavior of the old
// collect-then-return sweeps. Results delivered before the first
// failing index stay delivered: streaming consumers own partial
// output (under a failure the delivered prefix may end before the
// failing index, since a skipped task yields nothing to deliver).
func streamOrdered[T any](parallelism, n int, eval func(i int) (T, error), deliver func(i int, v T) error) error {
	type result struct {
		v   T
		err error
	}
	var failed atomic.Bool
	var deliverErr error
	// Real task errors land in index-addressed slots so the reported
	// error is the first in task order — a skipped lower-index task
	// (sentinel) must not mask the failure that caused the skip.
	errs := make([]error, n)
	par.ForOrdered(parallelism, n, func(i int) result {
		if failed.Load() {
			return result{err: errSweepAborted}
		}
		v, err := eval(i)
		if err != nil {
			errs[i] = err
			failed.Store(true)
		}
		return result{v: v, err: err}
	}, func(i int, r result) bool {
		if r.err != nil {
			return false
		}
		if err := deliver(i, r.v); err != nil {
			failed.Store(true)
			deliverErr = err
			return false
		}
		return true
	})
	// A deliver failure is what actually cut the stream short; tasks
	// can only have failed at higher indices (every task at or below
	// the delivered prefix succeeded), so it takes precedence.
	if deliverErr != nil {
		return deliverErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// streamTasks executes tasks over the pool and emits their rows in
// task order (the unsharded, journal-free fast path kept for tests).
func streamTasks(parallelism int, tasks []rowTask, emit func(row []string) error) error {
	return streamOrdered(parallelism, len(tasks),
		func(i int) ([]string, error) { return tasks[i]() },
		func(_ int, row []string) error { return emit(row) })
}

// stream drives one runner into a sink: Begin, ordered rows, End. Rows
// reach the sink through sinkEmit, so index-aware sinks (JSONL,
// journal) observe each row's global index.
func stream(s Scale, r runner, sink RowSink) error {
	meta := r.tableMeta()
	if err := sink.Begin(meta); err != nil {
		return err
	}
	x := exec{
		parallelism: s.parallelism(),
		shard:       s.Shard,
		resume:      s.Resume,
		table:       meta.Name,
		exchange:    s.Exchange,
		counters:    s.Counters,
		journal:     findJournal(sink),
	}
	if err := r.run(x, func(m MetricRow) error { return sinkEmit(sink, m) }); err != nil {
		return err
	}
	return sink.End()
}

// findJournal locates the checkpoint journal inside a (possibly nested)
// sink fan-out, so the engine can record fetched foreign metrics next
// to the rows the JournalSink already checkpoints.
func findJournal(sink RowSink) *Journal {
	switch t := sink.(type) {
	case *JournalSink:
		return t.j
	case MultiSink:
		for _, s := range t {
			if j := findJournal(s); j != nil {
				return j
			}
		}
	}
	return nil
}

// tableOf materializes a runner builder into the in-memory Table of the
// aggregate API.
func tableOf(s Scale, build func(Scale) (runner, error)) (*Table, error) {
	r, err := build(s)
	if err != nil {
		return nil, err
	}
	var ts TableSink
	if err := stream(s, r, &ts); err != nil {
		return nil, err
	}
	return ts.Table(), nil
}

// Experiment is one named, streamable table of the evaluation suite.
type Experiment struct {
	// Key is the stable short name used by cmd/figures -only and
	// ExperimentByKey.
	Key   string
	build func(Scale) (runner, error)
}

// Table runs the experiment at the given scale and returns the
// aggregated in-memory table.
func (e Experiment) Table(s Scale) (*Table, error) {
	return tableOf(s, e.build)
}

// Stream runs the experiment at the given scale, pushing rows into sink
// incrementally in deterministic order. The streamed bytes of a
// deterministic sink (CSV, JSONL) are identical for every Parallelism.
func (e Experiment) Stream(s Scale, sink RowSink) error {
	r, err := e.build(s)
	if err != nil {
		return err
	}
	return stream(s, r, sink)
}

// Experiments returns the full suite in paper order: Table 1 and
// Figures 2-12, then the ablations, the Section 6 extensions, the
// scenario matrix, and the adaptively refined axis sweeps.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", table1Runner},
		{"figure2", figure2Runner},
		{"figure3", figure3Runner},
		{"figure4", figure4Runner},
		{"figure5", figure5Runner},
		{"figure6", figure6Runner},
		{"figure7", figure7Runner},
		{"figure8", figure8Runner},
		{"figure9", figure9Runner},
		{"figure10", figure10Runner},
		{"figure11", figure11Runner},
		{"figure12", figure12Runner},
		{"ablation-eviction", ablationEvictionRunner},
		{"ablation-estimators", ablationEstimatorsRunner},
		{"ext-merging", extensionStreamMergingRunner},
		{"ext-partial-viewing", extensionPartialViewingRunner},
		{"ext-active-probing", extensionActiveProbingRunner},
		{"ext-baselines", extensionBaselinesRunner},
		{"scenarios", scenarioMatrixRunner},
		{"refined-e", refinedESweepRunner},
		{"refined-sigma", refinedSigmaSweepRunner},
		{"refined-cache", refinedCacheSweepRunner},
		{"refined-esigma", refinedESigmaSweepRunner},
		{"hierarchy", hierarchyRunner},
	}
}

// ExperimentByKey looks an experiment up by its stable key.
func ExperimentByKey(key string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Key == key {
			return e, true
		}
	}
	return Experiment{}, false
}

// Stream runs the experiment named by key at the given scale into sink.
func Stream(key string, s Scale, sink RowSink) error {
	e, ok := ExperimentByKey(key)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q", key)
	}
	return e.Stream(s, sink)
}
