package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
)

// journaledStream runs one experiment with a journal at path attached
// (and optionally consulted for resume), returning the CSV bytes.
func journaledStream(t *testing.T, key string, s Scale, path string, resume bool) []byte {
	t.Helper()
	var j *Journal
	var err error
	if resume {
		j, err = ResumeJournal(path, s.Fingerprint())
	} else {
		j, err = CreateJournal(path, s.Fingerprint())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if resume {
		s.Resume = j
	}
	var csv bytes.Buffer
	if err := Stream(key, s, MultiSink{NewCSVSink(&csv), NewJournalSink(j)}); err != nil {
		t.Fatal(err)
	}
	return csv.Bytes()
}

// countJournalRows parses a journal file, failing on duplicate
// (table, index) keys, and returns the number of row records.
func countJournalRows(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		var rec rowRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("corrupt journal line %q: %v", line, err)
		}
		if rec.Type != "row" {
			continue
		}
		key := fmt.Sprintf("%s#%d", rec.Table, rec.Index)
		if seen[key] {
			t.Fatalf("journal holds duplicate row %s", key)
		}
		seen[key] = true
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestJournalResumeAfterTruncation is the resumability acceptance
// contract: a journal cut off mid-sweep (including mid-line, as a kill
// would leave it) resumes to the byte-identical final output, and the
// resumed journal holds every row exactly once. Covers a fixed grid and
// an adaptive refinement sweep, whose resumed refinement decisions rank
// on journaled full-precision metrics.
func TestJournalResumeAfterTruncation(t *testing.T) {
	for _, key := range []string{"figure5", "refined-e"} {
		t.Run(key, func(t *testing.T) {
			s := tinyScale()
			s.RefineBudget = 3
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.jsonl")

			want := journaledStream(t, key, s, path, false)
			total := countJournalRows(t, path)
			if total == 0 {
				t.Fatal("journal recorded no rows")
			}

			// Kill simulation: chop the journal mid-file, leaving a
			// partial trailing line.
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := len(full) * 3 / 5
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			j, err := ResumeJournal(path, s.Fingerprint())
			if err != nil {
				t.Fatal(err)
			}
			completed := 0
			for _, tbl := range j.Tables() {
				completed += tbl.Rows
			}
			j.Close()
			if completed == 0 || completed >= total {
				t.Fatalf("truncated journal holds %d of %d rows; want a strict mid-sweep prefix", completed, total)
			}

			got := journaledStream(t, key, s, path, true)
			if !bytes.Equal(got, want) {
				t.Errorf("resumed output differs from the uninterrupted run:\n%s\nwant:\n%s", got, want)
			}
			if n := countJournalRows(t, path); n != total {
				t.Errorf("resumed journal holds %d rows, want %d", n, total)
			}
		})
	}
}

// TestResumeSkipsCompletedTasks proves resume actually skips work: a
// synthetic sweep journals half its rows, and the resumed run executes
// only the other half.
func TestResumeSkipsCompletedTasks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	const n = 10

	var executed atomic.Int64
	build := func() *taskSweep {
		sw := &taskSweep{meta: TableMeta{Name: "resume probe", Header: []string{"i"}}}
		for i := 0; i < n; i++ {
			sw.tasks = append(sw.tasks, func() ([]string, error) {
				executed.Add(1)
				return []string{strconv.Itoa(i)}, nil
			})
		}
		return sw
	}

	s := tinyScale()
	fp := s.Fingerprint()

	// First run: journal rows but fail the sink after 6 rows, as a
	// mid-sweep crash would.
	j, err := CreateJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	boom := errors.New("crash")
	err = stream(s, build(), MultiSink{NewJournalSink(j), sinkFunc(func(row []string) error {
		rows++
		if rows > 6 {
			return boom
		}
		return nil
	})})
	j.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want the injected crash", err)
	}
	if executed.Load() == 0 {
		t.Fatal("no tasks executed before the crash")
	}

	// Resume: journaled rows replay, only the remainder executes.
	j, err = ResumeJournal(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	journaled := j.Tables()[0].Rows
	if journaled == 0 || journaled >= n {
		t.Fatalf("journal holds %d rows, want a strict prefix of %d", journaled, n)
	}
	executed.Store(0)
	s.Resume = j
	var ts TableSink
	if err := stream(s, build(), MultiSink{NewJournalSink(j), &ts}); err != nil {
		t.Fatal(err)
	}
	if got := int(executed.Load()); got != n-journaled {
		t.Errorf("resume executed %d tasks, want %d (journal already held %d)", got, n-journaled, journaled)
	}
	tbl := ts.Table()
	if len(tbl.Rows) != n {
		t.Fatalf("resumed table has %d rows, want %d", len(tbl.Rows), n)
	}
	for i, row := range tbl.Rows {
		if row[0] != strconv.Itoa(i) {
			t.Errorf("row %d = %q, want %q", i, row[0], strconv.Itoa(i))
		}
	}
}

// TestCreateRefusesExistingJournal: re-running a crashed sweep without
// -resume must not truncate the checkpoint.
func TestCreateRefusesExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s := tinyScale()
	journaledStream(t, "figure5", s, path, false)
	before := countJournalRows(t, path)
	if before == 0 {
		t.Fatal("journal recorded no rows")
	}
	if _, err := CreateJournal(path, s.Fingerprint()); err == nil {
		t.Fatal("CreateJournal overwrote a non-empty journal")
	}
	if after := countJournalRows(t, path); after != before {
		t.Errorf("refused create still changed the journal: %d -> %d rows", before, after)
	}
}

// TestResumeRejectsScaleMismatch guards against splicing journals from
// incompatible runs.
func TestResumeRejectsScaleMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s := tinyScale()
	j, err := CreateJournal(path, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := s
	other.Seed = 99
	if _, err := ResumeJournal(path, other.Fingerprint()); !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("resume at a different scale returned %v, want ErrJournalMismatch", err)
	}
	if _, err := ResumeJournal(path, s.Fingerprint()); err != nil {
		t.Errorf("resume at the same scale failed: %v", err)
	}
}

// TestJournalAndShardCompose: each shard journals and resumes
// independently; the merged union still matches the unsharded stream.
func TestJournalAndShardCompose(t *testing.T) {
	key := "figure5"
	base := tinyScale()
	var want bytes.Buffer
	if err := Stream(key, base, NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const count = 2
	paths := make([]string, count)
	for idx := 0; idx < count; idx++ {
		s := tinyScale()
		s.Shard = Shard{Index: idx, Count: count}
		paths[idx] = filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", idx))
		journaledStream(t, key, s, paths[idx], false)
		// Truncate and resume this shard's journal mid-way.
		full, err := os.ReadFile(paths[idx])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paths[idx], full[:len(full)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		journaledStream(t, key, s, paths[idx], true)
	}

	// The resumed journals themselves are valid merge inputs.
	in := make([]io.Reader, count)
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		in[i] = f
	}
	var got bytes.Buffer
	if err := mergeParts(in, NewCSVSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("merged resumed-shard journals differ from the unsharded stream:\n%s\nwant:\n%s",
			got.String(), want.String())
	}
}

// TestJournalRefusesConflictingDuplicates pins the duplicate rule on
// the resume and append paths: a journal holding two different
// payloads for one row is refused on resume, a sweep emitting a
// different payload for a journaled row fails, and identical replays
// stay no-ops.
func TestJournalRefusesConflictingDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	head := `{"type":"journal","fingerprint":"fp"}` + "\n" +
		`{"type":"table","name":"T","header":["x"]}` + "\n" +
		`{"type":"row","table":"T","index":0,"row":["a"]}` + "\n"
	if err := os.WriteFile(path, []byte(head+`{"type":"row","table":"T","index":0,"row":["b"]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeJournal(path, "fp"); !errors.Is(err, ErrRecordConflict) {
		t.Fatalf("resume of a conflicting journal returned %v, want ErrRecordConflict", err)
	}

	if err := os.WriteFile(path, []byte(head+`{"type":"row","table":"T","index":0,"row":["a"]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := ResumeJournal(path, "fp")
	if err != nil {
		t.Fatalf("resume of an identical replay failed: %v", err)
	}
	defer j.Close()
	sink := NewJournalSink(j)
	if err := sink.Begin(TableMeta{Name: "T", Header: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.MetricRow(MetricRow{Index: 0, Row: []string{"a"}}); err != nil {
		t.Errorf("identical replay of a journaled row failed: %v", err)
	}
	if err := sink.MetricRow(MetricRow{Index: 0, Row: []string{"c"}}); !errors.Is(err, ErrRecordConflict) {
		t.Errorf("conflicting row returned %v, want ErrRecordConflict", err)
	}
	if err := sink.Begin(TableMeta{Name: "T", Header: []string{"y"}}); !errors.Is(err, ErrRecordConflict) {
		t.Errorf("re-declared header returned %v, want ErrRecordConflict", err)
	}
}

// compactBytes renders the journal's live state as Compact writes it.
func compactBytes(t *testing.T, j *Journal) []byte {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	var b bytes.Buffer
	if err := j.writeCompact(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzJournalLoad drives the single record decoder with journal lines,
// merge inputs and collector push bodies, corrupt, truncated and
// conflicting ones included. It must never panic, and any input it
// accepts must survive a Compact round trip: the compacted state
// replays onto itself as a no-op and reloads into an identical state.
func FuzzJournalLoad(f *testing.F) {
	for _, seed := range []string{
		// A journal with a refined row and a metric checkpoint.
		`{"type":"journal","fingerprint":"scale=small seed=1"}` + "\n" +
			`{"type":"table","name":"T","note":"n","header":["x","source"]}` + "\n" +
			`{"type":"row","table":"T","index":0,"row":["1","coarse"],"metric":0.1234567890123456}` + "\n" +
			`{"type":"metric","table":"T","index":1,"metric":-0}` + "\n",
		// A shard's JSONL output, as figures -merge reads it.
		`{"type":"table","name":"T","header":["x"]}` + "\n" +
			`{"type":"row","table":"T","index":1,"row":["a"]}` + "\n" +
			`{"type":"row","table":"T","index":3,"row":["b"]}` + "\n",
		// A collector push body: file stem, identical replay.
		`{"type":"table","name":"T","header":["v"],"file":"out_T"}` + "\n" +
			`{"type":"row","table":"T","index":0,"row":["x"],"metric":2}` + "\n" +
			`{"type":"row","table":"T","index":0,"row":["x"],"metric":2}` + "\n",
		// Conflicts: payload, metric, header.
		`{"type":"table","name":"T","header":["x"]}` + "\n" +
			`{"type":"row","table":"T","index":0,"row":["a"]}` + "\n" +
			`{"type":"row","table":"T","index":0,"row":["b"]}` + "\n",
		`{"type":"table","name":"T","header":["x"]}` + "\n" +
			`{"type":"metric","table":"T","index":0,"metric":1}` + "\n" +
			`{"type":"row","table":"T","index":0,"row":["a"],"metric":2}` + "\n",
		`{"type":"table","name":"T","header":["x"]}` + "\n" +
			`{"type":"table","name":"T","header":["y"]}` + "\n",
		// Corrupt and truncated lines.
		`{"type":"row","table":"T","index":0,"row":["a"]}` + "\n",
		`{"type":"table","name":"T","header":["x"]}` + "\n" + `{"type":"row","table":"T","ind`,
		"not json\n\n{}\n",
		`{"type":"row","table":"T","index":-4,"row":null}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		j := NewJournal()
		if _, err := j.Load(bytes.NewReader(data)); err != nil {
			return
		}
		once := compactBytes(t, j)
		if _, err := j.Load(bytes.NewReader(once)); err != nil {
			t.Fatalf("replaying the compacted state onto itself failed: %v\n%s", err, once)
		}
		if again := compactBytes(t, j); !bytes.Equal(again, once) {
			t.Fatalf("replaying the compacted state changed it:\n%s\nwant:\n%s", again, once)
		}
		k := NewJournal()
		if _, err := k.Load(bytes.NewReader(once)); err != nil {
			t.Fatalf("compacted state does not reload: %v\n%s", err, once)
		}
		if twice := compactBytes(t, k); !bytes.Equal(twice, once) {
			t.Fatalf("reloaded state differs:\n%s\nwant:\n%s", twice, once)
		}
		for _, tbl := range k.Tables() {
			_ = k.WriteTable(tbl.Name, &TableSink{})
		}
	})
}
