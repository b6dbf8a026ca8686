// Command perfbench is the repository's benchmark. It runs one workload
// in a single process against in-process servers on 127.0.0.1:0
// listeners, checks every output, and prints its metrics, ending with
// one JSON line:
//
//	go run . -workload live-hit -seed 3 -seconds 20 -trace 0
//
// Workloads (see WORKLOADS.md for why each exists):
//
//	sweep         the 24-experiment figure set, in process, into CSV files
//	live-hit      closed-loop warmed hits on the sharded proxy (IF policy)
//	live-partial  open-loop partial-caching sessions over constrained paths (PB)
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With -trace 1 the same untraced phase runs first, then a
// traced phase of equal length whose spans give the per-layer metrics;
// the spans are written as JSONL under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext records where and how a result was measured.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Network    string `json:"network"`
}

// phase is what one measured phase of a workload produced.
type phase struct {
	attempted, failed int64
	// opMS holds each completed operation's latency in milliseconds: a
	// figure set's wall time, a response time, or a session's startup
	// delay.
	opMS []float64
	wall time.Duration // measured span, for throughput
	cpu  time.Duration // process CPU time over the phase
	// layer holds per-layer and workload-specific metrics keyed by their
	// per-layer names; only traced phases need to fill the span-derived
	// ones.
	layer map[string]float64
	// notes are printed for people reading the run.
	notes []string
}

// workloadDef names a workload and builds one set-up instance of it.
type workloadDef struct {
	name  string
	setup func(seed int64, out string) (bench, error)
}

// bench is one set-up workload instance.
type bench interface {
	// measure runs the timed phase for d, recording spans into tr when
	// tr is non-nil. It returns an error only for a broken invariant;
	// failed operations are counted in the phase.
	measure(d time.Duration, tr *tracer) (*phase, error)
	close()
}

// workloads are listed in BENCHMARK.json's order; WORKLOADS.md says why
// each exists.
var workloads = []workloadDef{
	{"sweep", setupSweep},
	{"live-hit", setupLiveHit},
	{"live-partial", setupLivePartial},
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sweep, live-hit or live-partial")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "length of the measured phase in seconds")
		traceOn = flag.Int("trace", 0, "1: add a traced phase and report per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for temporary outputs and traces")
	)
	flag.Parse()
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceOn)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx := runContext{
		Workload:   w.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *traceOn == 1,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Network:    "host loopback 127.0.0.1 (in-process servers); no real link crossed",
	}
	res, err := measureWorkload(w, ctx, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measureWorkload sets the workload up setupRepeats times, measures the
// last instance with tracing off and, when asked, once more with tracing
// on, and assembles the result.
func measureWorkload(w *workloadDef, ctx runContext, out string) (*result, error) {
	ctxJSON, err := json.Marshal(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Printf("context %s\n", ctxJSON)

	var b bench
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		b, err = w.setup(ctx.Seed, out)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	d := time.Duration(ctx.Seconds) * time.Second
	correct := true
	plain, err := b.measure(d, nil)
	if err != nil {
		fmt.Printf("CHECK FAILED: %v\n", err)
		correct = false
	}
	res := &result{Correct: correct, Metrics: map[string]metric{}}
	if plain == nil {
		res.Attempted, res.Failed = 1, 1 // the phase itself is the failed operation
		return res, nil
	}
	res.Attempted, res.Failed = plain.attempted, plain.failed
	if plain.failed > 0 {
		res.Correct = false
	}
	printNotes(plain)

	var traced *phase
	if ctx.Trace && res.Correct {
		tr := newTracer()
		traced, err = b.measure(d, tr)
		if err != nil {
			fmt.Printf("CHECK FAILED (traced phase): %v\n", err)
			res.Correct = false
		}
		if traced != nil {
			printNotes(traced)
			res.Attempted += traced.attempted
			res.Failed += traced.failed
			if traced.failed > 0 {
				res.Correct = false
			}
			path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.jsonl", ctx.Workload, ctx.Seed))
			if err := writeTrace(path, ctx, tr.snapshot()); err != nil {
				return nil, err
			}
			fmt.Printf("trace written to %s\n", path)
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // a run that attempted nothing is reported as one failure
		res.Failed = 1
		res.Correct = false
	}

	e2e := map[string]float64{
		"setup_s":         median(setups),
		"rss_peak_mb":     float64(readUsage().maxRSS) / (1 << 20),
		"latency_mean_ms": mean(plain.opMS),
		"cpu_ms_per_op":   plain.cpu.Seconds() * 1000 / float64(max(len(plain.opMS), 1)),
		"throughput_ops":  float64(len(plain.opMS)) / plain.wall.Seconds(),
	}
	fmt.Printf("setup_s samples %v\n", setups)
	if !ctx.Trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
		printMetrics(res.Metrics)
		return res, nil
	}
	// Span-derived metrics come from the traced phase; whatever the
	// untraced phase also measured is taken from it, as tracing is off.
	layer := map[string]float64{}
	if traced != nil {
		for k, v := range traced.layer {
			layer[k] = v
		}
		for k, v := range plain.layer {
			layer[k] = v
		}
		if base := mean(plain.opMS); base > 0 {
			layer["trace.overhead_frac"] = (mean(traced.opMS) - base) / base
		}
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
	}
	for k := range layer {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("workload %s reported undeclared per-layer metric %q", w.name, k)
		}
	}
	for _, m := range endToEnd {
		fmt.Printf("e2e %s = %.6g %s (untraced phase)\n", m.name, e2e[m.name], m.unit)
	}
	printMetrics(res.Metrics)
	return res, nil
}

func printNotes(p *phase) {
	for _, n := range p.notes {
		fmt.Println(n)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %s = %.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
