package collect

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streamcache/internal/experiments"
)

// tinyScale mirrors the experiments package's test scale: fast, but
// exercising every code path including adaptive refinement.
func tinyScale() experiments.Scale {
	return experiments.Scale{
		Objects:        100,
		Requests:       2000,
		Runs:           1,
		Seed:           1,
		CacheFractions: []float64{0.02, 0.1},
		AlphaSweep:     []float64{0.5, 1.0},
		ESweep:         []float64{0, 0.5, 1},
		TraceEntries:   3000,
		TraceServers:   50,
		RefineBudget:   3,
	}
}

// testKeys are the experiments the collector tests run: one fixed grid
// and one adaptive refinement (the case the exchange exists for).
var testKeys = []string{"figure5", "refined-e"}

// fileStem gives each test table a stable output stem.
func fileStem(key string) string { return "out_" + key }

// singleProcessCSV streams key unsharded and returns the canonical CSV
// bytes — the byte-identity reference for everything below.
func singleProcessCSV(t *testing.T, key string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := experiments.Stream(key, tinyScale(), experiments.NewCSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runShard streams every test experiment as one shard pushing to the
// collector at base, journaling to journalPath (resuming if asked), and
// returns the shard's evaluation counter. extraSink, when non-nil, is
// composed into every experiment's fan-out (tests inject crashes
// through it).
func runShard(t *testing.T, base string, shard experiments.Shard, journalPath string,
	resume bool, metricWait time.Duration, extraSink experiments.RowSink) (evals int64, runErr error) {
	t.Helper()
	s := tinyScale()
	s.Shard = shard
	s.Counters = &experiments.Counters{}
	client := NewClient(base, shard, s.RunFingerprint())
	client.MetricWait = metricWait
	s.Exchange = client

	var j *experiments.Journal
	var err error
	if resume {
		j, err = experiments.ResumeJournal(journalPath, s.Fingerprint())
	} else {
		j, err = experiments.CreateJournal(journalPath, s.Fingerprint())
	}
	if err != nil {
		t.Fatal(err)
	}
	if resume {
		s.Resume = j
	}
	for _, key := range testKeys {
		sink := experiments.MultiSink{client.Sink(fileStem(key)), experiments.NewJournalSink(j)}
		if extraSink != nil {
			sink = append(sink, extraSink)
		}
		if err := experiments.Stream(key, s, sink); err != nil {
			runErr = err
			break
		}
	}
	j.Close()
	if err := client.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return s.Counters.Evaluations.Load(), runErr
}

// collectedCSV reads the CSV the collector wrote for key.
func collectedCSV(t *testing.T, dir, key string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, fileStem(key)+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCollectedByteIdenticalAndSplitWork is the collector acceptance
// contract: two shards pushing to one collector produce canonical CSVs
// byte-identical to a single-process run, while each shard simulates
// only its owned points of the refinement rounds.
func TestCollectedByteIdenticalAndSplitWork(t *testing.T) {
	srv := NewServer(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	evals := make([]int64, 2)
	for idx := 0; idx < 2; idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			dir := t.TempDir()
			n, err := runShard(t, ts.URL, experiments.Shard{Index: idx, Count: 2},
				filepath.Join(dir, "j.jsonl"), false, 15*time.Second, nil)
			if err != nil {
				t.Errorf("shard %d: %v", idx, err)
			}
			evals[idx] = n
		}(idx)
	}
	wg.Wait()

	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("collector never saw both shards done")
	}
	out := t.TempDir()
	if err := srv.WriteTables(out); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, key := range testKeys {
		want := singleProcessCSV(t, key)
		got := collectedCSV(t, out, key)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: collected CSV differs from single-process run:\n%s\nwant:\n%s", key, got, want)
		}
	}
	// Work-splitting: the two shards together simulate each point once;
	// round-robin keeps them within one point of half each.
	total = evals[0] + evals[1]
	if diff := evals[0] - evals[1]; diff < -1 || diff > 1 {
		t.Errorf("shards simulated %d and %d points; want an even split of %d", evals[0], evals[1], total)
	}

	// The unsharded reference count comes from a counter-equipped run.
	s := tinyScale()
	s.Counters = &experiments.Counters{}
	for _, key := range testKeys {
		var null bytes.Buffer
		if err := experiments.Stream(key, s, experiments.NewJSONLSink(&null)); err != nil {
			t.Fatal(err)
		}
	}
	if want := s.Counters.Evaluations.Load(); total != want {
		t.Errorf("sharded run simulated %d points in total, want exactly the unsharded %d", total, want)
	}
}

// TestCollectorDownAtStart: shards started against a dead collector run
// journal-only — the client goes down, every point is evaluated
// locally, and the per-shard journals still merge to the canonical
// stream.
func TestCollectorDownAtStart(t *testing.T) {
	// A port nothing listens on: a started-then-closed test server.
	dead := httptest.NewServer(http.NotFoundHandler())
	base := dead.URL
	dead.Close()

	key := "refined-e"
	var want bytes.Buffer
	if err := experiments.Stream(key, tinyScale(), experiments.NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	outs := make([]bytes.Buffer, 2)
	for idx := 0; idx < 2; idx++ {
		sh := experiments.Shard{Index: idx, Count: 2}
		s := tinyScale()
		s.Shard = sh
		client := NewClient(base, sh, s.RunFingerprint())
		if !client.Down() {
			t.Fatal("client connected to a dead collector")
		}
		s.Exchange = client
		j, err := experiments.CreateJournal(filepath.Join(dir, fmt.Sprintf("j%d.jsonl", idx)), s.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		sink := experiments.MultiSink{client.Sink(fileStem(key)), experiments.NewJournalSink(j), experiments.NewJSONLSink(&outs[idx])}
		if err := experiments.Stream(key, s, sink); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if err := client.Close(); err != nil {
			t.Errorf("down client Close: %v", err)
		}
	}

	merged := experiments.NewJournal()
	for _, out := range outs {
		if _, err := merged.Load(&out); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := merged.WriteTable(merged.Tables()[0].Name, experiments.NewCSVSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("journal-only fallback merge differs from the unsharded stream")
	}
}

// crashSink injects a mid-sweep death: it fails the stream after
// letting a fixed number of rows through.
type crashSink struct {
	allow int
	seen  int
}

var errCrash = errors.New("injected crash")

func (c *crashSink) Begin(experiments.TableMeta) error { return nil }
func (c *crashSink) End() error                        { return nil }
func (c *crashSink) Row([]string) error {
	c.seen++
	if c.seen > c.allow {
		return errCrash
	}
	return nil
}

// TestShardDiesMidPushAndResumes: a shard killed mid-sweep (after some
// rows were already pushed) restarts, re-registers, and replays; the
// collector ends with every row exactly once and the CSVs stay
// byte-identical. The push-session reset plus the journal's duplicate
// rule is what makes the whole-log replay safe.
func TestShardDiesMidPushAndResumes(t *testing.T) {
	srv := NewServer(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	j0 := filepath.Join(dir, "j0.jsonl")

	// Shard 0 dies after 5 rows of the first experiment. The partial
	// push log drains on Close (which reports the aborted sweep's
	// remainder as the stream error we injected, not a client failure).
	// The shards here run sequentially, so foreign-metric polls against
	// the not-yet-run peer must time out fast and fall back locally.
	const wait = 300 * time.Millisecond
	if _, err := runShard(t, ts.URL, experiments.Shard{Index: 0, Count: 2}, j0, false,
		wait, &crashSink{allow: 5}); !errors.Is(err, errCrash) {
		t.Fatalf("crashed shard run returned %v, want the injected crash", err)
	}

	// Shard 1 runs to completion meanwhile.
	if _, err := runShard(t, ts.URL, experiments.Shard{Index: 1, Count: 2},
		filepath.Join(dir, "j1.jsonl"), false, wait, nil); err != nil {
		t.Fatalf("shard 1: %v", err)
	}

	// Shard 0 restarts with -resume: journal replay re-emits the
	// completed prefix through the sinks (repopulating the push log
	// from index zero), the fresh hello resets the push session, and
	// the duplicate rule absorbs the overlap.
	if _, err := runShard(t, ts.URL, experiments.Shard{Index: 0, Count: 2}, j0, true, wait, nil); err != nil {
		t.Fatalf("resumed shard 0: %v", err)
	}

	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("collector never saw both shards done")
	}
	out := t.TempDir()
	if err := srv.WriteTables(out); err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys {
		want := singleProcessCSV(t, key)
		got := collectedCSV(t, out, key)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: CSV after crash+resume differs from single-process run:\n%s\nwant:\n%s", key, got, want)
		}
	}
}

// TestSlowCollectorDoesNotBlockWorkers: with a collector that stalls on
// every push, sink appends must stay non-blocking — the bounded backlog
// sheds to the journal instead. WriteTables then refuses the gapped
// table rather than writing a silently truncated CSV.
func TestSlowCollectorDoesNotBlockWorkers(t *testing.T) {
	srv := NewServer(1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/push" {
			time.Sleep(300 * time.Millisecond)
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()

	sh := experiments.Shard{Index: 0, Count: 1}
	client := NewClient(ts.URL, sh, "fp")
	client.MaxBacklog = 8
	client.DrainWait = 100 * time.Millisecond
	sink := client.Sink("slow")
	if err := sink.Begin(experiments.TableMeta{Name: "slow", Header: []string{"v"}}); err != nil {
		t.Fatal(err)
	}
	const rows = 500
	start := time.Now()
	for i := 0; i < rows; i++ {
		if err := sink.Row([]string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 500 appends against a collector that takes 300ms per push: if
	// appends blocked on the network this would take minutes.
	if elapsed > 2*time.Second {
		t.Fatalf("appends took %v; the push path is blocking simulation workers", elapsed)
	}
	if client.Shed() == 0 {
		t.Error("bounded backlog never shed against a stalled collector")
	}
	if err := client.Close(); err == nil {
		t.Error("Close returned nil despite shed rows; the operator would trust an incomplete CSV")
	}
	if err := srv.WriteTables(t.TempDir()); err == nil {
		t.Error("WriteTables wrote a gapped table instead of refusing")
	}
}

// TestMetricLongPoll pins the exchange transport: a waiting metric
// request is answered the moment the owning shard's push lands, at full
// float64 precision.
func TestMetricLongPoll(t *testing.T) {
	srv := NewServer(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	owner := NewClient(ts.URL, experiments.Shard{Index: 0, Count: 2}, "fp")
	peer := NewClient(ts.URL, experiments.Shard{Index: 1, Count: 2}, "fp")
	peer.MetricWait = 5 * time.Second

	const exact = 0.1234567890123456789 // rounds to a non-terminating binary fraction
	go func() {
		time.Sleep(50 * time.Millisecond)
		sink := owner.Sink("t")
		sink.Begin(experiments.TableMeta{Name: "T", Header: []string{"v"}})
		sink.MetricRow(experiments.MetricRow{Index: 7, Row: []string{"x"}, Metric: exact, HasMetric: true})
		sink.End()
	}()
	m, ok := peer.ForeignMetric("T", 7)
	if !ok {
		t.Fatal("long-poll missed the pushed metric")
	}
	if m != exact {
		t.Errorf("metric %v crossed the wire as %v; refinement decisions would diverge", exact, m)
	}
	owner.Close()
	peer.Close()
}

// TestPushRefusesConflictingDuplicates: the collector shares the
// journal's duplicate rule — a replayed identical record is accepted,
// a row that contradicts a held one is refused with 409, and a
// malformed record with 400.
func TestPushRefusesConflictingDuplicates(t *testing.T) {
	srv := NewServer(1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/jsonl", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/hello?shard=0&count=1&fingerprint=fp", ""); code != http.StatusOK {
		t.Fatalf("hello: %d", code)
	}
	batch := `{"type":"table","name":"T","header":["v"],"file":"out_T"}` + "\n" +
		`{"type":"row","table":"T","index":0,"row":["a"],"metric":1.5}`
	if code := post("/v1/push?shard=0&seq=0", batch); code != http.StatusOK {
		t.Fatalf("first push: %d", code)
	}
	if code := post("/v1/push?shard=0&seq=0", batch); code != http.StatusOK {
		t.Errorf("identical replay: %d, want 200", code)
	}
	conflict := `{"type":"row","table":"T","index":0,"row":["b"]}`
	if code := post("/v1/push?shard=0&seq=2", conflict); code != http.StatusConflict {
		t.Errorf("conflicting row: %d, want 409", code)
	}
	if code := post("/v1/push?shard=0&seq=2", "not json"); code != http.StatusBadRequest {
		t.Errorf("corrupt record: %d, want 400", code)
	}
	if code := post("/v1/done?shard=0", ""); code != http.StatusOK {
		t.Fatalf("done: %d", code)
	}
	out := t.TempDir()
	if err := srv.WriteTables(out); err != nil {
		t.Fatal(err)
	}
	if got, want := string(collectedCSV(t, out, "T")), "# T\nv\na\n"; got != want {
		t.Errorf("collected CSV = %q, want %q (the conflicting row must not replace the first)", got, want)
	}
}
