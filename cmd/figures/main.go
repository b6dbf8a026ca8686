// Command figures regenerates every table and figure of the paper's
// evaluation as CSV files, one per experiment, plus an index. Rows are
// streamed to disk as sweep points complete (flushed row by row, in
// deterministic order), so long paper-scale sweeps can be tailed and
// plotted while they run.
//
//	figures -out results/            # fast small-scale run
//	figures -out results/ -scale paper -only figure5,figure9
//	figures -out results/ -jsonl -refine 8
//
// Sweeps distribute across processes and survive interruption (see
// OPERATIONS.md): each shard writes index-keyed JSONL plus a checkpoint
// journal, and -merge reassembles the canonical files afterwards,
// byte-identical to a single-process run.
//
//	figures -out results/ -shard 0/2 -journal results/j0.jsonl   # machine A
//	figures -out results/ -shard 1/2 -journal results/j1.jsonl   # machine B
//	figures -out results/ -shard 1/2 -journal results/j1.jsonl -resume  # after a crash
//	figures -out results/ -merge                                 # combine
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamcache/internal/collect"
	"streamcache/internal/experiments"
	"streamcache/internal/sim"
)

// files maps experiment keys to their CSV file names; keys missing here
// (future experiments) fall back to <key>.csv.
var files = map[string]string{
	"table1":              "table1_workload.csv",
	"figure2":             "figure2_bandwidth_distribution.csv",
	"figure3":             "figure3_bandwidth_variability.csv",
	"figure4":             "figure4_path_time_series.csv",
	"figure5":             "figure5_constant_bandwidth.csv",
	"figure6":             "figure6_zipf_alpha.csv",
	"figure7":             "figure7_nlanr_variability.csv",
	"figure8":             "figure8_measured_variability.csv",
	"figure9":             "figure9_estimator_sweep.csv",
	"figure10":            "figure10_value_constant.csv",
	"figure11":            "figure11_value_variable.csv",
	"figure12":            "figure12_value_estimator_sweep.csv",
	"ablation-eviction":   "ablation_eviction_granularity.csv",
	"ablation-estimators": "ablation_estimators.csv",
	"ext-merging":         "extension_stream_merging.csv",
	"ext-partial-viewing": "extension_partial_viewing.csv",
	"ext-active-probing":  "extension_active_probing.csv",
	"ext-baselines":       "extension_baselines.csv",
	"scenarios":           "scenario_matrix.csv",
	"refined-e":           "refined_e_sweep.csv",
	"refined-sigma":       "refined_sigma_sweep.csv",
	"refined-cache":       "refined_cache_sweep.csv",
	"refined-esigma":      "refined_esigma_sweep.csv",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out         = flag.String("out", "results", "output directory")
		scale       = flag.String("scale", "small", "experiment scale: small or paper")
		only        = flag.String("only", "", "comma-separated experiment keys (default: all)")
		seed        = flag.Int64("seed", 1, "base random seed")
		parallel    = flag.Int("parallel", 0, "worker goroutines per sweep (0 = GOMAXPROCS); tables are identical for any value")
		refine      = flag.Int("refine", -1, "extra adaptive points per refined sweep (-1 = scale default)")
		jsonl       = flag.Bool("jsonl", false, "also stream each experiment as JSON Lines next to its CSV")
		shard       = flag.String("shard", "", "compute only this shard of every sweep, as index/count (e.g. 0/2); output becomes per-shard JSONL for -merge")
		journal     = flag.String("journal", "", "checkpoint completed rows to this JSONL journal")
		resume      = flag.Bool("resume", false, "skip rows already recorded in -journal (resume an interrupted run)")
		merge       = flag.Bool("merge", false, "merge the per-shard JSONL outputs in -out into canonical CSV (and -jsonl) files, then exit")
		compact     = flag.Bool("compact-journal", false, "rewrite -journal to its live state (one line per completed row, superseded records dropped), then exit; pass the run's own -scale/-seed/-shard flags")
		collectURL  = flag.String("collect", "", "push rows and refinement metrics to this collector URL (see cmd/collectd); sharded refinement then simulates only owned points per round")
		knee        = flag.String("knee", "", "locate the SLO knee in this live-capacity CSV (from loadgen -mode open), print it, then exit")
		kneeFrac    = flag.Float64("knee-threshold", 0.1, "SLO-violation fraction that defines the knee for -knee")
		overlayLive = flag.String("overlay-live", "", "live CSV (loadgen output) to overlay against -overlay-sim, then exit")
		overlaySim  = flag.String("overlay-sim", "", "sim sweep CSV to overlay against -overlay-live")
		overlayOut  = flag.String("overlay-out", "-", "overlay CSV destination ('-' = stdout)")
		cpuprof     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof     = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures: mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "figures: mem profile:", err)
			}
		}()
	}

	if *knee != "" {
		return reportKnee(*knee, *kneeFrac)
	}
	if *overlayLive != "" || *overlaySim != "" {
		if *overlayLive == "" || *overlaySim == "" {
			return fmt.Errorf("-overlay-live and -overlay-sim go together")
		}
		return writeOverlay(*overlayLive, *overlaySim, *overlayOut)
	}
	if *merge {
		return mergeShardOutputs(*out, *jsonl)
	}
	if *resume && *journal == "" {
		return fmt.Errorf("-resume needs -journal to name the checkpoint file")
	}
	if *compact && *journal == "" {
		return fmt.Errorf("-compact-journal needs -journal to name the checkpoint file")
	}

	var s experiments.Scale
	switch *scale {
	case "small":
		s = experiments.SmallScale()
	case "paper":
		s = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want small or paper)", *scale)
	}
	s.Seed = *seed
	s.Parallelism = *parallel
	if *refine >= 0 {
		s.RefineBudget = *refine
	}
	sh, err := experiments.ParseShard(*shard)
	if err != nil {
		return err
	}
	s.Shard = sh
	// One arena for the whole figure set: the sizing workload, Table 1
	// trace, and Figures 2-3 synthetic logs are shared across
	// experiments, so they are generated once per distinct config
	// instead of once per experiment. Rows are bit-identical either way.
	if !s.NoWorkloadReuse {
		s.Arena = sim.NewArena()
	}

	exps := experiments.Experiments()
	known := map[string]bool{}
	keys := make([]string, 0, len(exps))
	for _, e := range exps {
		known[e.Key] = true
		keys = append(keys, e.Key)
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if k == "" { // tolerate trailing/doubled commas
				continue
			}
			if !known[k] {
				return fmt.Errorf("unknown experiment key %q (known: %s)", k, strings.Join(keys, ", "))
			}
			selected[k] = true
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	if *compact {
		// Standalone maintenance: rewrite the checkpoint to its live
		// state between runs of a long sweep. The fingerprint check makes
		// mismatched flags an error instead of a silent wipe.
		j, err := experiments.ResumeJournal(*journal, s.Fingerprint())
		if err != nil {
			return err
		}
		before, err := os.Stat(*journal)
		if err != nil {
			j.Close()
			return err
		}
		if err := j.Compact(); err != nil {
			j.Close()
			return err
		}
		if err := j.Close(); err != nil {
			return err
		}
		after, err := os.Stat(*journal)
		if err != nil {
			return err
		}
		fmt.Printf("compacted %s: %d -> %d bytes\n", *journal, before.Size(), after.Size())
		return nil
	}

	var collector *collect.Client
	if *collectURL != "" {
		collector = collect.NewClient(*collectURL, s.Shard, s.RunFingerprint())
		if collector.Down() {
			// Degraded but correct: every point evaluates locally and the
			// journal/merge workflow still reassembles the run.
			fmt.Fprintf(os.Stderr, "figures: collector %s unreachable; continuing without it (journal and -merge still work)\n", *collectURL)
			collector = nil
		} else {
			s.Exchange = collector
			defer func() {
				if err := collector.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "figures:", err)
				}
			}()
		}
	}

	var j *experiments.Journal
	if *journal != "" {
		if *resume {
			j, err = experiments.ResumeJournal(*journal, s.Fingerprint())
		} else {
			j, err = experiments.CreateJournal(*journal, s.Fingerprint())
		}
		if err != nil {
			return err
		}
		defer j.Close()
		if *resume {
			s.Resume = j
		}
	}

	var index strings.Builder
	fmt.Fprintf(&index, "# Regenerated %s at scale=%s seed=%d shard=%s\n",
		time.Now().Format(time.RFC3339), *scale, *seed, s.Shard)
	for _, e := range exps {
		if len(selected) > 0 && !selected[e.Key] {
			continue
		}
		file := files[e.Key]
		if file == "" {
			file = e.Key + ".csv"
		}
		stem := strings.TrimSuffix(file, ".csv")
		if s.Shard.Count > 1 {
			// Sharded runs emit index-keyed JSONL only: CSV rows carry no
			// index, so a shard's CSV could not be merged.
			file = shardFileName(file, s.Shard)
		}
		start := time.Now()
		name, rows, err := streamExperiment(e, s, j, collector, stem, filepath.Join(*out, file), *jsonl)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Key, err)
		}
		fmt.Printf("%-20s %-45s %5d rows  %v\n", e.Key, file, rows, time.Since(start).Round(time.Millisecond))
		index.WriteString(indexEntry(e.Key, file, rows, name))
	}
	indexName := "INDEX.txt"
	if s.Shard.Count > 1 {
		indexName = shardIndexName(s.Shard.Index, s.Shard.Count)
	}
	return os.WriteFile(filepath.Join(*out, indexName), []byte(index.String()), 0o644)
}

// reportKnee reads a live-capacity table (loadgen -mode open output)
// and prints the first ramp level whose SLO-violation fraction crosses
// the threshold — the proxy's measured capacity knee.
func reportKnee(path string, threshold float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	t, err := experiments.ReadCSVTable(f)
	if err != nil {
		return err
	}
	col := func(name string) int {
		for i, h := range t.Header {
			if h == name {
				return i
			}
		}
		return -1
	}
	offered, frac := col("offered_rps"), col("slo_violation_frac")
	if frac < 0 {
		return fmt.Errorf("%s: no slo_violation_frac column (not a live-capacity table?)", path)
	}
	knee := experiments.FindKnee(t, threshold)
	if knee < 0 {
		fmt.Printf("no knee: slo_violation_frac never exceeds %g across %d levels\n", threshold, len(t.Rows))
		return nil
	}
	row := t.Rows[knee]
	if offered >= 0 && offered < len(row) {
		fmt.Printf("knee at level %d: offered %s req/s, slo_violation_frac %s (threshold %g)\n",
			knee, row[offered], row[frac], threshold)
	} else {
		fmt.Printf("knee at level %d: slo_violation_frac %s (threshold %g)\n", knee, row[frac], threshold)
	}
	// The rows before and after the knee bracket the capacity estimate;
	// echo them so the operator sees the crossing context.
	for i := knee - 1; i <= knee+1 && i < len(t.Rows); i++ {
		if i < 0 {
			continue
		}
		fmt.Printf("  level %d: %s\n", i, strings.Join(t.Rows[i], ","))
	}
	return nil
}

// writeOverlay joins a live measurement CSV with a sim sweep CSV on
// their shared column names and renders the source-tagged overlay
// table — the one-file input for live-vs-sim cross-validation plots.
func writeOverlay(livePath, simPath, outPath string) error {
	readTable := func(path string) (*experiments.Table, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return experiments.ReadCSVTable(f)
	}
	live, err := readTable(livePath)
	if err != nil {
		return err
	}
	sim, err := readTable(simPath)
	if err != nil {
		return err
	}
	overlay, err := experiments.OverlayTables(live, sim)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	sink := experiments.NewCSVSink(w)
	if err := sink.Begin(experiments.TableMeta{Name: overlay.Name, Note: overlay.Note, Header: overlay.Header}); err != nil {
		return err
	}
	for _, row := range overlay.Rows {
		if err := sink.Row(row); err != nil {
			return err
		}
	}
	return sink.End()
}

// shardFileName turns figure5_x.csv into figure5_x.shard0-of-2.jsonl.
func shardFileName(csvName string, sh experiments.Shard) string {
	stem := strings.TrimSuffix(csvName, ".csv")
	return fmt.Sprintf("%s.shard%d-of-%d.jsonl", stem, sh.Index, sh.Count)
}

// metaCapture records the table name flowing past it, for the index
// file. It rides inside the MultiSink (not around it), so the engine
// still sees the index-aware sinks beside it.
type metaCapture struct {
	name string
}

func (m *metaCapture) Begin(meta experiments.TableMeta) error {
	m.name = meta.Name
	return nil
}
func (m *metaCapture) Row([]string) error { return nil }
func (m *metaCapture) End() error         { return nil }

// countingSink counts rows without rendering them.
type countingSink struct {
	rows int
}

func (c *countingSink) Begin(experiments.TableMeta) error { return nil }
func (c *countingSink) Row([]string) error                { c.rows++; return nil }
func (c *countingSink) End() error                        { return nil }

// streamExperiment streams one experiment to path — canonical CSV (plus
// an optional sibling .jsonl) when unsharded, per-shard JSONL when
// sharded — journaling rows when j is non-nil and pushing them to the
// collector when one is connected, and returns the table name and the
// row count this process emitted.
func streamExperiment(e experiments.Experiment, s experiments.Scale, j *experiments.Journal,
	collector *collect.Client, stem, path string, jsonl bool) (string, int, error) {

	out, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	defer out.Close()

	meta := &metaCapture{}
	count := &countingSink{}
	sink := experiments.MultiSink{meta, count}
	if s.Shard.Count > 1 {
		sink = append(sink, experiments.NewJSONLSink(out))
	} else {
		sink = append(sink, experiments.NewCSVSink(out))
		if jsonl {
			jsonlPath := strings.TrimSuffix(path, ".csv") + ".jsonl"
			jf, err := os.Create(jsonlPath)
			if err != nil {
				return "", 0, err
			}
			defer jf.Close()
			sink = append(sink, experiments.NewJSONLSink(jf))
		}
	}
	if j != nil {
		sink = append(sink, experiments.NewJournalSink(j))
	}
	if collector != nil {
		sink = append(sink, collector.Sink(stem))
	}

	if err := e.Stream(s, sink); err != nil {
		return "", 0, err
	}
	return meta.name, count.rows, out.Close()
}

// shardFilePattern matches per-shard outputs: <stem>.shard<i>-of-<n>.jsonl.
var shardFilePattern = regexp.MustCompile(`^(.+)\.shard(\d+)-of-(\d+)\.jsonl$`)

// indexEntry is the INDEX line recording one output file and its row
// count. A sharded run writes its INDEX.shard<i>-of-<n>.txt only after
// every experiment finished, which makes the entry -merge's proof that
// the shard's output file is complete.
func indexEntry(key, file string, rows int, name string) string {
	return fmt.Sprintf("%s: %s (%d rows) - %s\n", key, file, rows, name)
}

var indexEntryPattern = regexp.MustCompile(`(?m)^[^:#]+: (\S+) \((\d+) rows\) - `)

// shardIndexName names the INDEX file of one shard of a sharded run.
func shardIndexName(idx, count int) string {
	return fmt.Sprintf("INDEX.shard%d-of-%d.txt", idx, count)
}

// finishedRows reads the row count a finished shard recorded for file
// in its INDEX.shard<i>-of-<n>.txt.
func finishedRows(dir string, idx, count int, file string) (int, error) {
	index := shardIndexName(idx, count)
	b, err := os.ReadFile(filepath.Join(dir, index))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("shard %d of %d never finished: %s is missing", idx, count, index)
	}
	if err != nil {
		return 0, err
	}
	for _, m := range indexEntryPattern.FindAllStringSubmatch(string(b), -1) {
		if m[1] == file {
			return strconv.Atoi(m[2])
		}
	}
	return 0, fmt.Errorf("shard %d of %d did not finish %s: %s has no entry for it", idx, count, file, index)
}

// mergeShardOutputs scans dir for per-shard JSONL groups and merges
// every group into its canonical CSV (and, with jsonl, JSONL) file —
// byte-identical to an unsharded run. Each group's files are loaded
// into one in-memory journal, so the duplicate rule, the gap check and
// the writer are the journal's; a group counts as complete only when
// every shard recorded in its INDEX that it finished, with exactly the
// rows its file holds.
func mergeShardOutputs(dir string, jsonl bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type group struct {
		count int
		parts map[int]string // shard index -> file name
	}
	groups := map[string]*group{}
	for _, ent := range entries {
		m := shardFilePattern.FindStringSubmatch(ent.Name())
		if m == nil {
			continue
		}
		stem := m[1]
		var idx, count int
		fmt.Sscanf(m[2], "%d", &idx)
		fmt.Sscanf(m[3], "%d", &count)
		g := groups[stem]
		if g == nil {
			g = &group{count: count, parts: map[int]string{}}
			groups[stem] = g
		}
		if g.count != count {
			return fmt.Errorf("merge: %s has shards of both %d and %d", stem, g.count, count)
		}
		if prev, dup := g.parts[idx]; dup {
			return fmt.Errorf("merge: %s shard %d appears twice (%s, %s)", stem, idx, prev, ent.Name())
		}
		g.parts[idx] = ent.Name()
	}
	if len(groups) == 0 {
		return fmt.Errorf("merge: no *.shard<i>-of-<n>.jsonl files in %s", dir)
	}

	stems := make([]string, 0, len(groups))
	for stem := range groups {
		stems = append(stems, stem)
	}
	sort.Strings(stems)
	for _, stem := range stems {
		g := groups[stem]
		j := experiments.NewJournal()
		for idx := 0; idx < g.count; idx++ {
			name, ok := g.parts[idx]
			if !ok {
				return fmt.Errorf("merge: %s is missing shard %d of %d", stem, idx, g.count)
			}
			if err := loadShard(j, dir, name, idx, g.count); err != nil {
				return fmt.Errorf("merge: %s: %w", stem, err)
			}
		}
		tables := j.Tables()
		if len(tables) != 1 {
			return fmt.Errorf("merge: %s: shard files describe %d tables, want 1", stem, len(tables))
		}
		if err := writeCanonical(j, tables[0].Name, filepath.Join(dir, stem), jsonl); err != nil {
			return fmt.Errorf("merge: %s: %w", stem, err)
		}
		fmt.Printf("merged %-45s %d shards -> %s.csv\n", stem, g.count, stem)
	}
	return nil
}

// loadShard folds one finished shard's output file into j, checking
// that it contributed exactly the rows its INDEX entry records.
func loadShard(j *experiments.Journal, dir, name string, idx, count int) error {
	want, err := finishedRows(dir, idx, count, name)
	if err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	before := heldRows(j)
	if _, err := j.Load(f); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if got := heldRows(j) - before; got != want {
		return fmt.Errorf("%s adds %d rows, but its finished shard recorded %d", name, got, want)
	}
	return nil
}

// heldRows counts the rows j holds across its tables.
func heldRows(j *experiments.Journal) int {
	n := 0
	for _, t := range j.Tables() {
		n += t.Rows
	}
	return n
}

// writeCanonical writes the named table of j to <base>.csv and, with
// jsonl, <base>.jsonl.
func writeCanonical(j *experiments.Journal, table, base string, jsonl bool) error {
	csvFile, err := os.Create(base + ".csv")
	if err != nil {
		return err
	}
	defer csvFile.Close()
	sink := experiments.MultiSink{experiments.NewCSVSink(csvFile)}
	if jsonl {
		jf, err := os.Create(base + ".jsonl")
		if err != nil {
			return err
		}
		defer jf.Close()
		sink = append(sink, experiments.NewJSONLSink(jf))
	}
	if err := j.WriteTable(table, sink); err != nil {
		return err
	}
	return csvFile.Close()
}
