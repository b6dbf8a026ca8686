package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/metrics"
	"streamcache/internal/sim"
	"streamcache/internal/trace"
	"streamcache/internal/units"
	"streamcache/internal/workload"
)

// ErrBadScale reports an invalid experiment scale.
var ErrBadScale = errors.New("experiments: invalid scale")

// Table is one regenerated table or figure.
type Table struct {
	Name   string
	Note   string
	Header []string
	Rows   [][]string
}

// Scale sets the experiment size. The paper's full scale (5000 objects,
// 100k requests, 10 runs) takes minutes; the small scale preserves every
// shape at a fraction of the cost and is the default for benchmarks and
// tests.
type Scale struct {
	Objects        int
	Requests       int
	Runs           int
	Seed           int64
	CacheFractions []float64 // of total unique object bytes
	AlphaSweep     []float64 // Figure 6
	ESweep         []float64 // Figures 9 and 12
	SigmaSweep     []float64 // scenario matrix variability levels
	TraceEntries   int       // Figures 2-3 synthetic log size
	TraceServers   int
	// Parallelism bounds the concurrent sweep-point simulations (default
	// runtime.GOMAXPROCS(0)). Tables are bit-identical for every value.
	Parallelism int
	// RefineBudget is the number of extra points the adaptive axis
	// sweeps (refined-e, refined-sigma, refined-cache) may add beyond
	// their coarse grid, bisecting the intervals with the steepest
	// metric gradient. 0 disables refinement.
	RefineBudget int
	// NoWorkloadReuse disables the sweep-wide workload/path arena, so
	// every sweep point regenerates its inputs from scratch. Rows are
	// byte-identical either way (regression-tested); the knob exists
	// for A/B validation and memory-constrained paper-scale runs.
	NoWorkloadReuse bool
	// Shard restricts a run to the subset of rows whose global index
	// this shard owns (index mod Shard.Count == Shard.Index), so N
	// independent processes split one sweep. The union of the shards'
	// rows is bit-identical to the unsharded stream for any Count,
	// mirroring the Parallelism guarantee; a Journal loaded with every
	// shard's output reassembles it.
	// The zero value means unsharded.
	Shard Shard
	// Resume replays rows recorded in a prior (interrupted) run's
	// journal instead of recomputing them. Open the journal with
	// ResumeJournal and also attach it as a JournalSink so fresh rows
	// keep checkpointing. Nil disables resumption.
	Resume *Journal
	// Exchange, when non-nil, lets a sharded adaptive sweep resolve the
	// refinement metrics of foreign points (owned by other shards)
	// instead of re-simulating them, so each shard runs O(total/N)
	// simulations per refined sweep. A metric the exchange cannot
	// produce is evaluated locally — the determinism contract makes the
	// result identical either way, so Exchange is deliberately excluded
	// from Fingerprint: it cannot change any row.
	Exchange MetricExchange
	// Counters, when non-nil, accumulates scheduler telemetry (points
	// actually simulated, exchange hits) for this process. Excluded
	// from Fingerprint: observation only.
	Counters *Counters
	// Arena, when non-nil, is shared by every experiment run at this
	// scale, so sizing workloads, full request traces, and synthetic
	// logs are generated once per distinct config across the whole
	// figure set instead of once per experiment (cmd/figures sets it).
	// Nil gives each experiment a private arena. Deliberately excluded
	// from Fingerprint: memoization cannot change any row.
	Arena *sim.Arena
}

// SmallScale returns the fast configuration (~1/10 of the paper).
func SmallScale() Scale {
	return Scale{
		Objects:        500,
		Requests:       10000,
		Runs:           2,
		Seed:           1,
		CacheFractions: []float64{0.005, 0.02, 0.05, 0.1, 0.169},
		AlphaSweep:     []float64{0.5, 0.73, 1.0, 1.2},
		ESweep:         []float64{0, 0.2, 0.4, 0.6, 0.8, 1},
		SigmaSweep:     []float64{0, 0.25, 0.55},
		TraceEntries:   20000,
		TraceServers:   200,
		RefineBudget:   4,
	}
}

// PaperScale returns the paper's full Table 1 configuration.
func PaperScale() Scale {
	return Scale{
		Objects:        5000,
		Requests:       100000,
		Runs:           10,
		Seed:           1,
		CacheFractions: []float64{0.005, 0.02, 0.05, 0.1, 0.169},
		AlphaSweep:     []float64{0.5, 0.6, 0.73, 0.8, 0.9, 1.0, 1.1, 1.2},
		ESweep:         []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1},
		SigmaSweep:     []float64{0, 0.15, 0.25, 0.4, 0.55},
		TraceEntries:   100000,
		TraceServers:   1000,
		RefineBudget:   8,
	}
}

func (s Scale) validate() error {
	if s.Objects <= 0 || s.Requests <= 0 || s.Runs <= 0 {
		return fmt.Errorf("%w: objects/requests/runs = %d/%d/%d",
			ErrBadScale, s.Objects, s.Requests, s.Runs)
	}
	if len(s.CacheFractions) == 0 {
		return fmt.Errorf("%w: no cache fractions", ErrBadScale)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("%w: Parallelism=%d", ErrBadScale, s.Parallelism)
	}
	if s.RefineBudget < 0 {
		return fmt.Errorf("%w: RefineBudget=%d", ErrBadScale, s.RefineBudget)
	}
	return s.Shard.validate()
}

// Fingerprint summarizes every scale field that determines the row
// stream — everything except Parallelism, which by the determinism
// contract cannot change any row. Journals are stamped with it so a
// resume at a different scale (which would silently splice two
// incompatible row sets) fails instead.
func (s Scale) Fingerprint() string {
	return fmt.Sprintf(
		"objects=%d requests=%d runs=%d seed=%d fractions=%v alpha=%v e=%v sigma=%v trace=%d/%d refine=%d noreuse=%v shard=%s",
		s.Objects, s.Requests, s.Runs, s.Seed, s.CacheFractions, s.AlphaSweep,
		s.ESweep, s.SigmaSweep, s.TraceEntries, s.TraceServers,
		s.RefineBudget, s.NoWorkloadReuse, s.Shard)
}

// RunFingerprint is Fingerprint with the shard identity erased: the
// identity of the whole distributed run, shared by all of its shards.
// The collector session is stamped with it — shards of different runs
// cannot mix — while each shard's journal keeps the shard-specific
// Fingerprint.
func (s Scale) RunFingerprint() string {
	s.Shard = Shard{}
	return s.Fingerprint()
}

func (s Scale) workload() workload.Config {
	return workload.Config{NumObjects: s.Objects, NumRequests: s.Requests}
}

// totalBytes estimates the unique-object volume for cache sizing. The
// sizing workload uses the seed of run 0 (sim.SplitSeed, matching what
// sim.Run derives internally) so the cache_pct axis is a fraction of an
// object population the simulations actually realize. Generation is
// memoized through the arena (nil generates fresh, identically): every
// runner at one scale sizes against the same workload, so a shared
// arena pays for it once.
func (s Scale) totalBytes(arena *sim.Arena) (int64, error) {
	w, _, err := arena.Workload(workload.Config{
		NumObjects:  s.Objects,
		NumRequests: 1,
		Seed:        sim.SplitSeed(s.Seed, 0),
	})
	if err != nil {
		return 0, err
	}
	return w.TotalUniqueBytes(), nil
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// policySweep builds the common grid: one simulation per (cache
// fraction, policy), a row per combination.
func policySweep(s Scale, meta TableMeta, policies []core.Policy, variation bandwidth.Variability) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: meta}
	sw.meta.Header = []string{"cache_pct", "policy", "traffic_reduction", "avg_delay_s", "avg_quality", "total_value", "hit_ratio"}
	for _, frac := range s.CacheFractions {
		for _, p := range policies {
			sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
				Workload:   s.workload(),
				CacheBytes: int64(frac * float64(total)),
				Policy:     p,
				Variation:  variation,
				Runs:       s.Runs,
				Seed:       s.Seed,
			}, func(m sim.Metrics) []string {
				return []string{
					f3(frac * 100), p.Name(),
					f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay),
					f3(m.AvgStreamQuality), f1(m.TotalAddedValue), f3(m.HitRatio),
				}
			}))
		}
	}
	return sw, nil
}

// Table1 reports the generated workload's characteristics against the
// paper's Table 1 targets.
func Table1(s Scale) (*Table, error) { return tableOf(s, table1Runner) }

func table1Runner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	w, _, err := s.newArena().Workload(workload.Config{
		NumObjects:  s.Objects,
		NumRequests: s.Requests,
		Seed:        s.Seed,
	})
	if err != nil {
		return nil, err
	}
	counts := w.RequestCounts()
	top10 := int64(0)
	for i := 0; i < 10 && i < len(counts); i++ {
		top10 += counts[i]
	}
	rate := w.Config.Rate()
	return &staticTable{
		meta: TableMeta{
			Name:   "Table 1: Characteristics of the Synthetic Workload",
			Note:   "paper targets: 5000 objects, 100000 requests, Zipf 0.73, ~55 min mean duration, 48 KB/s, ~790 GB total",
			Header: []string{"characteristic", "value"},
		},
		rows: [][]string{
			{"objects", strconv.Itoa(len(w.Objects))},
			{"requests", strconv.Itoa(len(w.Requests))},
			{"zipf_alpha", f3(w.Config.ZipfAlpha)},
			{"object_bitrate_KBps", f1(units.ToKBps(rate))},
			{"mean_duration_min", f1(w.MeanDurationSeconds() / 60)},
			{"total_unique_GB", f1(units.ToGBytes(w.TotalUniqueBytes()))},
			{"mean_request_rate_per_s", f3(float64(len(w.Requests)) / w.Span())},
			{"top10_request_share", f3(float64(top10) / float64(len(w.Requests)))},
		},
	}, nil
}

// Figure2 regenerates the NLANR bandwidth distribution: a synthetic
// Squid log is produced from the reconstructed model, then analyzed
// exactly as Section 3.1 describes (missed requests > 200 KB), yielding
// the histogram (4 KB/s slots) and CDF of Figure 2.
func Figure2(s Scale) (*Table, error) { return tableOf(s, figure2Runner) }

func figure2Runner(s Scale) (runner, error) {
	analysis, err := analyzeSyntheticLog(s, bandwidth.NoVariation{})
	if err != nil {
		return nil, err
	}
	hist, err := analysis.Histogram(units.KBps(4), units.KBps(452))
	if err != nil {
		return nil, err
	}
	t := &staticTable{
		meta: TableMeta{
			Name:   "Figure 2: Internet bandwidth distribution observed in (synthetic) NLANR cache logs",
			Note:   "anchors: 37% of requests below 50 KB/s, 56% below 100 KB/s",
			Header: []string{"bw_KBps", "samples", "cdf"},
		},
	}
	cdf := hist.CDF()
	for i := 0; i < hist.NumBins(); i++ {
		t.rows = append(t.rows, []string{
			f1(units.ToKBps(hist.BinStart(i))),
			strconv.FormatInt(hist.Bin(i), 10),
			f3(cdf[i]),
		})
	}
	return t, nil
}

// Figure3 regenerates the sample-to-mean bandwidth variability of the
// NLANR logs: per-server means, then the ratio histogram and CDF.
func Figure3(s Scale) (*Table, error) { return tableOf(s, figure3Runner) }

func figure3Runner(s Scale) (runner, error) {
	analysis, err := analyzeSyntheticLog(s, bandwidth.NLANRVariability())
	if err != nil {
		return nil, err
	}
	ratios := analysis.SampleToMeanRatios()
	h, err := metrics.NewHistogram(0, 0.1, 31) // 0..3.1 in 0.1 steps
	if err != nil {
		return nil, err
	}
	for _, r := range ratios {
		h.Add(r)
	}
	t := &staticTable{
		meta: TableMeta{
			Name:   "Figure 3: Variation of bandwidth observed in the (synthetic) NLANR cache logs",
			Note:   "paper: ~70% of samples fall within 0.5-1.5x the path mean",
			Header: []string{"ratio", "samples", "cdf"},
		},
	}
	cdf := h.CDF()
	for i := 0; i < h.NumBins(); i++ {
		t.rows = append(t.rows, []string{
			f3(h.BinStart(i)), strconv.FormatInt(h.Bin(i), 10), f3(cdf[i]),
		})
	}
	return t, nil
}

func analyzeSyntheticLog(s Scale, v bandwidth.Variability) (*trace.Analysis, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	entries, err := s.newArena().Trace(trace.GenConfig{
		Entries:       s.TraceEntries,
		Servers:       s.TraceServers,
		Base:          bandwidth.NLANR(),
		Variation:     v,
		HitFraction:   0.2,
		SmallFraction: 0.3,
		Seed:          s.Seed,
	})
	if err != nil {
		return nil, err
	}
	return trace.Analyze(entries, 0)
}

// Figure4 regenerates the measured-path bandwidth time series: 4-minute
// samples over 30-45 hours for the three modeled paths, plus each path's
// sample-to-mean CoV (the paper's variability comparison).
func Figure4(s Scale) (*Table, error) { return tableOf(s, figure4Runner) }

func figure4Runner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	t := &staticTable{
		meta: TableMeta{
			Name:   "Figure 4: Bandwidth variation of (modeled) real paths",
			Note:   "INRIA has much lower variability than the Far-East paths; all are below the NLANR-log level",
			Header: []string{"path", "t_hours", "bw_KBps"},
		},
	}
	rng := rand.New(rand.NewSource(s.Seed))
	hours := []float64{45, 40, 30} // per Figure 4's spans
	for i, p := range []bandwidth.PresetPath{bandwidth.PathINRIA, bandwidth.PathTaiwan, bandwidth.PathHongKong} {
		cfg, err := bandwidth.PresetSeriesConfig(p)
		if err != nil {
			return nil, err
		}
		n := int(time.Duration(hours[i]*float64(time.Hour)) / cfg.Step)
		series, err := bandwidth.GenerateSeries(cfg, rng, n)
		if err != nil {
			return nil, err
		}
		for _, sample := range series {
			t.rows = append(t.rows, []string{
				p.String(), f3(sample.T.Hours()), f1(units.ToKBps(sample.Rate)),
			})
		}
	}
	return t, nil
}

// Figure5 compares IF, PB and IB under the constant-bandwidth
// assumption across cache sizes.
func Figure5(s Scale) (*Table, error) { return tableOf(s, figure5Runner) }

func figure5Runner(s Scale) (runner, error) {
	return policySweep(s, TableMeta{
		Name: "Figure 5: IF vs PB vs IB under constant bandwidth",
		Note: "expect: IF best traffic reduction, PB best delay/quality, IB between",
	}, []core.Policy{core.NewIF(), core.NewPB(), core.NewIB()}, bandwidth.NoVariation{})
}

// Figure6 sweeps the Zipf popularity skew for IB and PB under constant
// bandwidth.
func Figure6(s Scale) (*Table, error) { return tableOf(s, figure6Runner) }

func figure6Runner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Figure 6: Effect of Zipf parameter alpha (IB and PB, constant bandwidth)",
		Note:   "expect: all metrics improve with alpha; orderings preserved",
		Header: []string{"alpha", "cache_pct", "policy", "traffic_reduction", "avg_delay_s", "avg_quality"},
	}}
	for _, alpha := range s.AlphaSweep {
		for _, frac := range s.CacheFractions {
			for _, p := range []core.Policy{core.NewIB(), core.NewPB()} {
				sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
					Workload: workload.Config{
						NumObjects:  s.Objects,
						NumRequests: s.Requests,
						ZipfAlpha:   alpha,
					},
					CacheBytes: int64(frac * float64(total)),
					Policy:     p,
					Runs:       s.Runs,
					Seed:       s.Seed,
				}, func(m sim.Metrics) []string {
					return []string{
						f3(alpha), f3(frac * 100), p.Name(),
						f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
					}
				}))
			}
		}
	}
	return sw, nil
}

// Figure7 repeats Figure 5 under the high (NLANR-log) variability model.
func Figure7(s Scale) (*Table, error) { return tableOf(s, figure7Runner) }

func figure7Runner(s Scale) (runner, error) {
	return policySweep(s, TableMeta{
		Name: "Figure 7: IF vs PB vs IB under NLANR-level bandwidth variability",
		Note: "expect: delays rise for all; IB no worse than PB",
	}, []core.Policy{core.NewIF(), core.NewPB(), core.NewIB()}, bandwidth.NLANRVariability())
}

// Figure8 repeats Figure 5 under the lower measured-path variability.
func Figure8(s Scale) (*Table, error) { return tableOf(s, figure8Runner) }

func figure8Runner(s Scale) (runner, error) {
	return policySweep(s, TableMeta{
		Name: "Figure 8: IF vs PB vs IB under measured-path bandwidth variability",
		Note: "expect: PB regains the best delay/quality",
	}, []core.Policy{core.NewIF(), core.NewPB(), core.NewIB()}, bandwidth.MeasuredVariability())
}

// Figure9 sweeps the bandwidth under-estimation factor e between IB
// (e=0) and PB (e=1) under NLANR variability.
func Figure9(s Scale) (*Table, error) { return tableOf(s, figure9Runner) }

func figure9Runner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Figure 9: Effect of partial caching based on bandwidth estimation (delay objective)",
		Note:   "expect: traffic reduction decreases in e; delay minimized at moderate e",
		Header: []string{"e", "cache_pct", "traffic_reduction", "avg_delay_s", "avg_quality"},
	}}
	for _, e := range s.ESweep {
		p, err := core.NewHybrid(e)
		if err != nil {
			return nil, err
		}
		for _, frac := range s.CacheFractions {
			sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
				Workload:   s.workload(),
				CacheBytes: int64(frac * float64(total)),
				Policy:     p,
				Variation:  bandwidth.NLANRVariability(),
				Runs:       s.Runs,
				Seed:       s.Seed,
			}, func(m sim.Metrics) []string {
				return []string{
					f3(e), f3(frac * 100),
					f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
				}
			}))
		}
	}
	return sw, nil
}

// Figure10 compares IF, PB-V and IB-V on the revenue objective under
// constant bandwidth.
func Figure10(s Scale) (*Table, error) { return tableOf(s, figure10Runner) }

func figure10Runner(s Scale) (runner, error) {
	return policySweep(s, TableMeta{
		Name: "Figure 10: IF vs PB-V vs IB-V under constant bandwidth (value objective)",
		Note: "expect: IF best traffic but worst value; PB-V best value; IB-V balanced",
	}, []core.Policy{core.NewIF(), core.NewPBV(), core.NewIBV()}, bandwidth.NoVariation{})
}

// Figure11 repeats Figure 10 under measured-path variability.
func Figure11(s Scale) (*Table, error) { return tableOf(s, figure11Runner) }

func figure11Runner(s Scale) (runner, error) {
	return policySweep(s, TableMeta{
		Name: "Figure 11: IF vs PB-V vs IB-V under measured-path variability (value objective)",
		Note: "expect: IB-V the best compromise (and top value) once bandwidth varies",
	}, []core.Policy{core.NewIF(), core.NewPBV(), core.NewIBV()}, bandwidth.MeasuredVariability())
}

// Figure12 sweeps the under-estimation factor e for the value objective
// under NLANR variability.
func Figure12(s Scale) (*Table, error) { return tableOf(s, figure12Runner) }

func figure12Runner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Figure 12: Effect of partial caching based on bandwidth estimation (value objective)",
		Note:   "expect: total value maximized at a moderate e",
		Header: []string{"e", "cache_pct", "traffic_reduction", "total_value"},
	}}
	for _, e := range s.ESweep {
		p, err := core.NewHybridV(e)
		if err != nil {
			return nil, err
		}
		for _, frac := range s.CacheFractions {
			sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
				Workload:   s.workload(),
				CacheBytes: int64(frac * float64(total)),
				Policy:     p,
				Variation:  bandwidth.NLANRVariability(),
				Runs:       s.Runs,
				Seed:       s.Seed,
			}, func(m sim.Metrics) []string {
				return []string{
					f3(e), f3(frac * 100), f3(m.TrafficReductionRatio), f1(m.TotalAddedValue),
				}
			}))
		}
	}
	return sw, nil
}

// AblationEvictionGranularity compares byte-granular (partial) eviction
// with whole-object eviction for the PB policy - the design choice
// called out in DESIGN.md section 6.
func AblationEvictionGranularity(s Scale) (*Table, error) { return tableOf(s, ablationEvictionRunner) }

func ablationEvictionRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Ablation: byte-granular vs whole-object eviction (PB policy, constant bandwidth)",
		Header: []string{"cache_pct", "eviction", "traffic_reduction", "avg_delay_s", "avg_quality"},
	}}
	for _, frac := range s.CacheFractions {
		for _, mode := range []struct {
			label string
			whole bool
		}{{"partial", false}, {"whole", true}} {
			sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
				Workload:     s.workload(),
				CacheBytes:   int64(frac * float64(total)),
				Policy:       core.NewPB(),
				CacheOptions: []core.Option{core.WithWholeObjectEviction(mode.whole)},
				Runs:         s.Runs,
				Seed:         s.Seed,
			}, func(m sim.Metrics) []string {
				return []string{
					f3(frac * 100), mode.label,
					f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
				}
			}))
		}
	}
	return sw, nil
}

// AblationEstimators compares the oracle-mean estimator with the passive
// EWMA estimator of Section 2.7 under measured-path variability.
func AblationEstimators(s Scale) (*Table, error) { return tableOf(s, ablationEstimatorsRunner) }

func ablationEstimatorsRunner(s Scale) (runner, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	arena := s.newArena()
	total, err := s.totalBytes(arena)
	if err != nil {
		return nil, err
	}
	sw := &taskSweep{meta: TableMeta{
		Name:   "Ablation: oracle vs passive EWMA bandwidth estimation (PB policy, measured variability)",
		Header: []string{"cache_pct", "estimator", "traffic_reduction", "avg_delay_s", "avg_quality"},
	}}
	estimators := []struct {
		label   string
		factory sim.EstimatorFactory
	}{
		{"oracle", sim.OracleEstimator},
		{"ewma_0.3", sim.EWMAEstimator(0.3)},
		{"underestimate_0.5", sim.UnderestimatingOracle(0.5)},
	}
	for _, frac := range s.CacheFractions {
		for _, est := range estimators {
			sw.tasks = append(sw.tasks, simRow(arena, sim.Config{
				Workload:   s.workload(),
				CacheBytes: int64(frac * float64(total)),
				Policy:     core.NewPB(),
				Variation:  bandwidth.MeasuredVariability(),
				Estimators: est.factory,
				Runs:       s.Runs,
				Seed:       s.Seed,
			}, func(m sim.Metrics) []string {
				return []string{
					f3(frac * 100), est.label,
					f3(m.TrafficReductionRatio), f1(m.AvgServiceDelay), f3(m.AvgStreamQuality),
				}
			}))
		}
	}
	return sw, nil
}

// All returns every experiment in paper order, followed by the
// ablations, the Section 6 extensions, the scenario matrix, and the
// adaptively refined axis sweeps.
func All(s Scale) ([]*Table, error) {
	exps := Experiments()
	out := make([]*Table, 0, len(exps))
	for _, e := range exps {
		t, err := e.Table(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Key, err)
		}
		out = append(out, t)
	}
	return out, nil
}
