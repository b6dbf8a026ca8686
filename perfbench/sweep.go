package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamcache/internal/bandwidth"
	"streamcache/internal/core"
	"streamcache/internal/experiments"
	"streamcache/internal/sim"
	"streamcache/internal/workload"
)

// The sweep workload regenerates the whole figure set the way a
// researcher does: every experiment streamed through experiments.Stream
// into CSV files, one arena shared by the set, Parallelism = GOMAXPROCS.
// The scale is Table 1's object and request counts with the small
// scale's sweep axes: the small scale alone finishes a set in well under
// a second, too short to time steadily.

// sweepMinSets is the fewest figure sets a measured phase runs, so the
// reported figures never rest on one set.
const sweepMinSets = 3

// defaultSeed is the seed whose CSV digests the benchmark pins.
const defaultSeed = 1

func sweepScale(seed int64) experiments.Scale {
	s := experiments.SmallScale()
	s.Objects, s.Requests = 5000, 100000
	s.Seed = seed
	s.Parallelism = runtime.GOMAXPROCS(0)
	return s
}

type sweepBench struct {
	seed int64
	dir  string
	// ref holds the digest of every experiment's CSV from the first set
	// this instance ran; later sets must reproduce it byte for byte.
	ref map[string]string
}

// setupSweep makes the output directory and warms the process with one
// small-scale figure set into discarded sinks, so lazily built tables
// and the heap are in place before timing.
func setupSweep(seed int64, out string) (bench, error) {
	dir, err := os.MkdirTemp(out, "sweep-")
	if err != nil {
		return nil, fmt.Errorf("sweep dir: %w", err)
	}
	s := experiments.SmallScale()
	s.Seed = seed
	s.Parallelism = runtime.GOMAXPROCS(0)
	s.Arena = sim.NewArena()
	for _, e := range experiments.Experiments() {
		if err := e.Stream(s, experiments.NewCSVSink(io.Discard)); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("warm-up %s: %w", e.Key, err)
		}
	}
	return &sweepBench{seed: seed, dir: dir}, nil
}

func (b *sweepBench) close() { os.RemoveAll(b.dir) }

// setStats is what one figure set measured.
type setStats struct {
	wall, cpu  time.Duration
	expWall    map[string]time.Duration
	rows       int
	sinkTime   time.Duration
	allocBytes uint64
	gcCycles   uint32
}

func (b *sweepBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	var sets []setStats
	start := time.Now()
	cpu0 := readUsage().cpu
	for n := 0; n < sweepMinSets || time.Since(start) < d; n++ {
		// Every set starts from a collected heap, as a fresh process would,
		// so one set's garbage does not tax the next.
		runtime.GC()
		st, digests, err := b.runSet(filepath.Join(b.dir, fmt.Sprintf("set%d", n)), tr)
		if err != nil {
			return nil, err
		}
		ph.attempted += int64(len(digests))
		for key, sum := range digests {
			if !b.digestOK(key, sum) {
				ph.failed++
				ph.notes = append(ph.notes, fmt.Sprintf("MISMATCH %s.csv digest %s", key, sum))
			}
		}
		sets = append(sets, st)
		ph.opMS = append(ph.opMS, float64(st.wall)/float64(time.Millisecond))
	}
	ph.wall = time.Since(start)
	ph.cpu = readUsage().cpu - cpu0

	walls := make([]float64, len(sets))
	cpus := make([]float64, len(sets))
	for i, st := range sets {
		walls[i], cpus[i] = st.wall.Seconds(), st.cpu.Seconds()
	}
	ph.layer["sweep.wall_s"] = median(walls)
	ph.layer["sweep.cpu_s"] = median(cpus)
	ph.notes = append(ph.notes, fmt.Sprintf("sweep: %d figure sets, wall %.3f s, cpu %.3f s", len(sets), walls, cpus))
	if tr == nil {
		return ph, nil
	}

	// Per-layer figures are means over the sets of this traced phase.
	n := float64(len(sets))
	var busy, rows, sinkNS, alloc, gcs float64
	expS := map[string]float64{}
	for _, st := range sets {
		busy += st.cpu.Seconds() / (st.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		rows += float64(st.rows)
		sinkNS += float64(st.sinkTime)
		alloc += float64(st.allocBytes)
		gcs += float64(st.gcCycles)
		for k, v := range st.expWall {
			expS[k] += v.Seconds()
		}
	}
	for k, v := range expS {
		ph.layer["experiments."+k+".s"] = v / n
	}
	ph.layer["experiments.rows"] = rows / n
	ph.layer["experiments.sink_us_per_row"] = sinkNS / rows / 1e3
	ph.layer["par.busy_frac"] = busy / n
	ph.layer["sweep.alloc_mb"] = alloc / n / (1 << 20)
	ph.layer["sweep.gc_cycles"] = gcs / n
	if err := measureSimLayers(b.seed, tr, ph.layer); err != nil {
		return nil, err
	}
	return ph, nil
}

// digestOK checks one experiment's CSV digest against this instance's
// first set and, at the default seed, against the pinned digests.
func (b *sweepBench) digestOK(key, sum string) bool {
	if b.ref == nil {
		b.ref = map[string]string{}
	}
	if ref, ok := b.ref[key]; ok && ref != sum {
		return false
	}
	b.ref[key] = sum
	if b.seed == defaultSeed {
		return pinnedDigests[key] == sum
	}
	return true
}

// runSet streams every experiment into its own CSV file under dir and
// returns the set's measurements and each CSV's SHA-256.
func (b *sweepBench) runSet(dir string, tr *tracer) (setStats, map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return setStats{}, nil, fmt.Errorf("set dir: %w", err)
	}
	defer os.RemoveAll(dir)
	st := setStats{expWall: map[string]time.Duration{}}
	digests := map[string]string{}
	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	s := sweepScale(b.seed)
	s.Arena = sim.NewArena()
	start, cpu0 := time.Now(), readUsage().cpu
	setSpan := tr.begin("sweep.set", -1, 0)
	for _, e := range experiments.Experiments() {
		f, err := os.Create(filepath.Join(dir, e.Key+".csv"))
		if err != nil {
			return setStats{}, nil, fmt.Errorf("create csv: %w", err)
		}
		h := sha256.New()
		expStart := time.Now()
		sp := tr.begin("experiments."+e.Key, setSpan, 0)
		sink := &tracedSink{inner: experiments.NewCSVSink(io.MultiWriter(f, h)), tr: tr, parent: sp}
		err = experiments.Stream(e.Key, s, sink)
		tr.end(sp)
		st.expWall[e.Key] = time.Since(expStart)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close csv: %w", cerr)
		}
		if err != nil {
			return setStats{}, nil, fmt.Errorf("experiment %s: %w", e.Key, err)
		}
		st.rows += sink.rows
		st.sinkTime += sink.spent
		digests[e.Key] = hex.EncodeToString(h.Sum(nil))
	}
	tr.end(setSpan)
	st.wall, st.cpu = time.Since(start), readUsage().cpu-cpu0
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		st.gcCycles = ms1.NumGC - ms0.NumGC
	}
	return st, digests, nil
}

// tracedSink wraps the CSV sink to count rows and the time spent inside
// the sink, recording one span per call when tracing.
type tracedSink struct {
	inner  experiments.RowSink
	tr     *tracer
	parent int
	rows   int
	spent  time.Duration
}

func (t *tracedSink) call(name string, f func() error) error {
	sp := t.tr.begin(name, t.parent, 0)
	start := time.Now()
	err := f()
	t.spent += time.Since(start)
	t.tr.end(sp)
	return err
}

func (t *tracedSink) Begin(meta experiments.TableMeta) error {
	return t.call("experiments.sink.begin", func() error { return t.inner.Begin(meta) })
}

func (t *tracedSink) Row(row []string) error {
	t.rows++
	return t.call("experiments.sink.row", func() error { return t.inner.Row(row) })
}

func (t *tracedSink) End() error {
	return t.call("experiments.sink.end", func() error { return t.inner.End() })
}

// measureSimLayers times the sweep's inner layers on the Table 1
// configuration: workload generation, one PB simulation on a warm arena
// (Parallelism 1), and the Table 1 request stream replayed straight into
// core.Cache.Access with PB at 5% of the catalog.
func measureSimLayers(seed int64, tr *tracer, layer map[string]float64) error {
	const reps = 3
	cfg := workload.Config{Seed: seed} // Table 1 defaults: 5000 objects, 100k requests
	var gen []float64
	for i := 0; i < reps; i++ {
		sp := tr.begin("workload.Generate", -1, 0)
		start := time.Now()
		if _, err := workload.Generate(cfg); err != nil {
			return fmt.Errorf("workload.Generate: %w", err)
		}
		gen = append(gen, float64(time.Since(start))/float64(time.Millisecond))
		tr.end(sp)
	}
	layer["workload.generate_ms"] = median(gen)

	arena := sim.NewArena()
	wl, objs, err := arena.Workload(cfg)
	if err != nil {
		return fmt.Errorf("arena workload: %w", err)
	}
	capacity := wl.TotalUniqueBytes() / 20
	simCfg := sim.Config{
		Workload:    workload.Config{NumObjects: 5000, NumRequests: 100000},
		CacheBytes:  capacity,
		Policy:      core.NewPB(),
		Runs:        1,
		Seed:        seed,
		Parallelism: 1,
		Arena:       arena,
	}
	if _, err := sim.Run(simCfg); err != nil { // fills the arena
		return fmt.Errorf("sim.Run: %w", err)
	}
	var simNS, simAllocs []float64
	for i := 0; i < reps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin("sim.Run", -1, 0)
		start := time.Now()
		if _, err := sim.Run(simCfg); err != nil {
			return fmt.Errorf("sim.Run: %w", err)
		}
		el := time.Since(start)
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		simNS = append(simNS, float64(el)/float64(simCfg.Workload.NumRequests))
		simAllocs = append(simAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(simCfg.Workload.NumRequests))
	}
	layer["sim.ns_per_req"] = median(simNS)
	layer["sim.allocs_per_req"] = median(simAllocs)

	means := arena.PathMeans(bandwidth.NLANR(), seed, len(objs))
	var accNS, accAllocs []float64
	for i := 0; i < reps; i++ {
		c, err := core.New(capacity, core.NewPB(), core.WithExpectedObjects(len(objs)))
		if err != nil {
			return fmt.Errorf("core.New: %w", err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp := tr.begin("core.Cache.Access", -1, 0)
		start := time.Now()
		for _, r := range wl.Requests {
			c.Access(objs[r.ObjectID], means[r.ObjectID], r.Time)
		}
		el := time.Since(start)
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		accNS = append(accNS, float64(el)/float64(len(wl.Requests)))
		accAllocs = append(accAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(wl.Requests)))
	}
	layer["core.access_ns"] = median(accNS)
	layer["core.allocs_per_access"] = median(accAllocs)
	return nil
}

// pinnedDigests are the SHA-256 digests of every figure-set CSV at the
// default seed. The simulation is deterministic for any Parallelism, so
// a change that alters a byte of any table fails the benchmark.
var pinnedDigests = map[string]string{
	"table1":              "d601b145d66676fbd58be2c4053c3095c450e832d14672e02f9faa7bbcd6cefe",
	"figure2":             "33bbbc906cec0b5d7d200071365c7c30b7a0fda081a301c627ec6a8873203477",
	"figure3":             "c653ba28a9391c2ed92e1ac1a915e0c6b7b8abb891b224b02ea27cf9e8bd3d88",
	"figure4":             "1b8a63814588c232bd977b0cff1eedb21de24452ed8c85428aff234248a0373e",
	"figure5":             "bafb0f22148504077a746ab20c9ee0997d0659920b0a0862bdce031a4b02c4a2",
	"figure6":             "355aa9c9b4fda0fa211c36a88f498a5b8d1b855046f9a5091745b9745685f04f",
	"figure7":             "971cc40465686a861f578ca93be9c962785597af0caa84cfe5e211306299d687",
	"figure8":             "4e4710b942041f8f9f791862f3f70adf2a5e675b847e0ce0c1b71fc426461dfc",
	"figure9":             "4889fb4bcc774fab62edfd2e56d4be32db584d8b2f140da9132320c86690bb2e",
	"figure10":            "51b2ba5e04fcafa061650befc58172e306ce495324694001a878159e1edca376",
	"figure11":            "f94a2049c40aa14d0bd7c442729cb2affc6b5f07fac94a6ca6583b3725a601cf",
	"figure12":            "080f3263f447b012a67340ba48514c6a93ea31e102382628796f2949c73eeb99",
	"ablation-eviction":   "620dedb7553c4bf939ffb18a3acacb28c25e59f5f4e2cab248c22f5cefc46b74",
	"ablation-estimators": "cc4619264da17019f09cd432a2d9577f302f5ea27475eb5037c91ec36054b88e",
	"ext-merging":         "63f5f08284362ea9c52e50075706a2aa6431e75a1c7b654b349682db591821f5",
	"ext-partial-viewing": "b067af0c164cb6430d0a6aaaf8f93211501d69adb99338df58b33a7e55c3ac68",
	"ext-active-probing":  "5e2664e9bf2bf771f931b6a15ea897ea42b926915455fd31f6af84a75a71ad61",
	"ext-baselines":       "5b4509ed12f93f10ed64623a6646247f6cabe6e3de4ef1af2508a9982185625c",
	"scenarios":           "ed24dbc5d08883eb89ebd7f38d0b3284a9c906f01e97a2a813506823f67436db",
	"refined-e":           "d39408c18b3b46eafc654e6651c5ff2286770eca060a86ab9a479c163f2e0e3f",
	"refined-sigma":       "357860e2242aa9258b7bfe3279104efa075919688b9392d224fa8f5d80e57cd9",
	"refined-cache":       "36f449880884dd24d15331263fad210f49ef09c14c28908bf06bb1366373b434",
	"refined-esigma":      "4262ef5454c944a801f48b81977663dcb12aad7f97dc4cfdae053de8cb3417f2",
	"hierarchy":           "f217a0104d7669529f20e2c9a24a3e2a95de32714f1a2001cd98c9511d716f9a",
}
