package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
)

// The checkpoint journal: a JSONL file of completed row keys and
// payloads that makes long sweeps resumable. Every row that flows
// through a JournalSink is appended (and flushed) as a
// {"type":"row","table":...,"index":...,"row":[...]} record — the key
// is (table name, global row index), the payload is the rendered row,
// and adaptive-sweep rows additionally carry the full-precision
// refinement metric so resumed refinement ranks intervals on exactly
// the values a fresh run would compute. A sweep restarted with the
// journal as Scale.Resume replays journaled rows instead of
// re-simulating them, so an interrupted run finishes from where it
// died; a journal truncated mid-line by a kill is trimmed back to its
// last complete record on open.
//
// The journal is also the results plane's only table store. JSONL sink
// outputs, journals and collector pushes share one line grammar, and
// an in-memory Journal (NewJournal) loads any mix of them — the shard
// files figures -merge reassembles, the rows collectd accepts — under
// one duplicate rule, and WriteTable renders a complete table
// byte-identical to a single-process run.

// ErrJournalMismatch reports a resume journal whose recorded scale
// fingerprint differs from the scale of the resuming run.
var ErrJournalMismatch = errors.New("experiments: journal written at a different scale")

// ErrRecordConflict reports a record that contradicts one the journal
// already holds: a row index recorded with a different payload or
// metric, or a table re-declared with a different header. Replaying an
// identical record is never a conflict.
var ErrRecordConflict = errors.New("experiments: conflicting duplicate record")

// The line grammar. Each record kind has its own encoding struct so
// the bytes every producer writes stay fixed; decoding goes through
// the union type record, in Journal.apply only.

// headerRecord is the first line of a journal: the scale fingerprint
// that guards resumes against mixing incompatible runs.
type headerRecord struct {
	Type        string `json:"type"` // "journal"
	Fingerprint string `json:"fingerprint"`
}

// tableRecord declares a table. File is the output stem a collector
// writes the table under; sinks and journals leave it empty.
type tableRecord struct {
	Type   string   `json:"type"` // "table"
	Name   string   `json:"name"`
	Note   string   `json:"note,omitempty"`
	Header []string `json:"header"`
	File   string   `json:"file,omitempty"`
}

// rowRecord is one completed row under its global index, with the
// refinement metric of adaptive-sweep rows.
type rowRecord struct {
	Type   string   `json:"type"` // "row"
	Table  string   `json:"table"`
	Index  int      `json:"index"`
	Row    []string `json:"row"`
	Metric *float64 `json:"metric,omitempty"`
}

// metricRecord checkpoints the refinement metric of a point this shard
// does not own (fetched through the MetricExchange): no row to emit,
// but the metric keeps a resumed refinement off the network.
type metricRecord struct {
	Type   string  `json:"type"` // "metric"
	Table  string  `json:"table"`
	Index  int     `json:"index"`
	Metric float64 `json:"metric"`
}

// record is any decoded line: the union of the record kinds.
type record struct {
	Type        string   `json:"type"`
	Fingerprint string   `json:"fingerprint"`
	Name        string   `json:"name"`
	Note        string   `json:"note"`
	Header      []string `json:"header"`
	File        string   `json:"file"`
	Table       string   `json:"table"`
	Index       int      `json:"index"`
	Row         []string `json:"row"`
	Metric      *float64 `json:"metric"`
}

func newRowRecord(table string, m MetricRow) rowRecord {
	rec := rowRecord{Type: "row", Table: table, Index: m.Index, Row: m.Row}
	if m.HasMetric {
		rec.Metric = &m.Metric
	}
	return rec
}

// TableRecord encodes the "table" line declaring meta, tagged with the
// output file stem a collector writes the table under (omitted when
// empty).
func TableRecord(meta TableMeta, file string) ([]byte, error) {
	return json.Marshal(tableRecord{Type: "table", Name: meta.Name, Note: meta.Note, Header: meta.Header, File: file})
}

// RowRecord encodes the "row" line of one indexed row of the named
// table, carrying the refinement metric when the row has one.
func RowRecord(table string, m MetricRow) ([]byte, error) {
	return json.Marshal(newRowRecord(table, m))
}

// journalTable is the completed-row set of one declared table. next is
// one past the highest recorded index, maintained on every insert so
// direct (non-engine) Row appends stay O(1). metrics holds the
// refinement metrics of row records and metric-only checkpoints alike.
type journalTable struct {
	meta    TableMeta
	file    string
	rows    map[int][]string
	metrics map[int]float64
	next    int
}

// addMetric records a refinement metric under the duplicate rule,
// reporting whether it was new.
func (t *journalTable) addMetric(index int, metric float64) (bool, error) {
	if known, ok := t.metrics[index]; ok {
		if math.Float64bits(known) != math.Float64bits(metric) {
			return false, fmt.Errorf("%w: metric %d of table %q is %v, recorded %v",
				ErrRecordConflict, index, t.meta.Name, metric, known)
		}
		return false, nil
	}
	t.metrics[index] = metric
	return true, nil
}

// addRow records a row (and its metric) under the duplicate rule,
// reporting whether the journal changed.
func (t *journalTable) addRow(m MetricRow) (bool, error) {
	old, dup := t.rows[m.Index]
	if dup && !slices.Equal(old, m.Row) {
		return false, fmt.Errorf("%w: row %d of table %q differs from the recorded one",
			ErrRecordConflict, m.Index, t.meta.Name)
	}
	changed := !dup
	if m.HasMetric {
		added, err := t.addMetric(m.Index, m.Metric)
		if err != nil {
			return false, err
		}
		changed = changed || added
	}
	if !dup {
		t.rows[m.Index] = m.Row
		if m.Index >= t.next {
			t.next = m.Index + 1
		}
	}
	return changed, nil
}

// Journal is the checkpoint store of one sweep process — the in-memory
// index of completed rows loaded from a prior run (consulted via
// Scale.Resume) plus the append side written through JournalSink — and
// the table store of merges and the collector. All methods are safe
// for concurrent use; one journal may span many experiments (rows are
// keyed by table name and global row index).
type Journal struct {
	mu          sync.Mutex
	f           *os.File // nil for an in-memory journal
	w           *bufio.Writer
	fingerprint string
	tables      map[string]*journalTable
}

// NewJournal returns an empty in-memory journal. It writes no file and
// accepts records stamped with any fingerprint, so it can hold the
// outputs and journals of every shard of one run.
func NewJournal() *Journal {
	return &Journal{tables: map[string]*journalTable{}}
}

// CreateJournal starts a fresh journal at path and stamps it with the
// scale fingerprint. It refuses to overwrite an existing non-empty
// journal — the likeliest cause is an operator re-running a crashed
// sweep without -resume, and truncating the checkpoint would destroy
// exactly the progress it exists to protect. Resume it, or remove the
// file to genuinely start over.
func CreateJournal(path, fingerprint string) (*Journal, error) {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return nil, fmt.Errorf("experiments: journal %s already holds records; pass -resume to continue it or remove it to start over", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), fingerprint: fingerprint, tables: map[string]*journalTable{}}
	if err := j.writeLine(headerRecord{Type: "journal", Fingerprint: fingerprint}); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// ResumeJournal opens the journal at path for a resumed run: completed
// records are loaded (a trailing record left incomplete by a kill is
// discarded and the file truncated back to the last complete line), the
// recorded fingerprint is checked against the resuming scale's, and the
// file is left positioned for appending new rows. A missing file is not
// an error — the resume simply has nothing to skip.
func ResumeJournal(path, fingerprint string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, w: bufio.NewWriter(f), fingerprint: fingerprint, tables: map[string]*journalTable{}}
	complete, records, err := j.load(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Trim a partial trailing record so appended records start on their
	// own line, then position writes at the new end.
	if err := f.Truncate(complete); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(complete, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if records == 0 {
		if err := j.writeLine(headerRecord{Type: "journal", Fingerprint: fingerprint}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// Load folds every newline-terminated record of r into the journal
// (without appending them to its file) and returns how many it
// applied. Blank lines are skipped; a final line without its newline —
// a record a killed writer cut short — is ignored.
func (j *Journal) Load(r io.Reader) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, records, err := j.load(r)
	return records, err
}

// load is Load without the lock, also returning the byte offset just
// past the last complete line.
func (j *Journal) load(r io.Reader) (complete int64, records int, err error) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return complete, records, nil
		}
		if err != nil {
			return 0, 0, err
		}
		complete += int64(len(line))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if err := j.apply(line); err != nil {
			return 0, 0, err
		}
		records++
	}
}

// apply decodes one record line and folds it into the journal; it is
// the only decoder of the line grammar. Callers hold j.mu.
func (j *Journal) apply(line []byte) error {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("experiments: corrupt record %q: %w", line, err)
	}
	switch rec.Type {
	case "journal":
		// Only a resumed file journal is bound to one scale; an
		// in-memory journal merges journals stamped per shard.
		if j.f != nil && rec.Fingerprint != j.fingerprint {
			return fmt.Errorf("%w: journal has %q, run has %q",
				ErrJournalMismatch, rec.Fingerprint, j.fingerprint)
		}
		return nil
	case "table":
		_, err := j.declare(TableMeta{Name: rec.Name, Note: rec.Note, Header: rec.Header}, rec.File)
		return err
	case "row", "metric":
		if rec.Index < 0 {
			return fmt.Errorf("experiments: negative index in record %q", line)
		}
		t, err := j.declared(rec.Table)
		if err != nil {
			return err
		}
		if rec.Type == "metric" {
			if rec.Metric == nil {
				return fmt.Errorf("experiments: metric record %q carries no metric", line)
			}
			_, err = t.addMetric(rec.Index, *rec.Metric)
			return err
		}
		m := MetricRow{Index: rec.Index, Row: rec.Row, HasMetric: rec.Metric != nil}
		if m.HasMetric {
			m.Metric = *rec.Metric
		}
		_, err = t.addRow(m)
		return err
	default:
		return fmt.Errorf("experiments: unknown record type %q", rec.Type)
	}
}

// declare records a table declaration, reporting whether the journal
// changed. Re-declaring a table with a different header is a conflict;
// the first note and the first non-empty file stem win. Callers hold
// j.mu.
func (j *Journal) declare(meta TableMeta, file string) (bool, error) {
	t := j.tables[meta.Name]
	if t == nil {
		j.tables[meta.Name] = &journalTable{meta: meta, file: file, rows: map[int][]string{}, metrics: map[int]float64{}}
		return true, nil
	}
	if !slices.Equal(t.meta.Header, meta.Header) {
		return false, fmt.Errorf("%w: table %q re-declared with a different header", ErrRecordConflict, meta.Name)
	}
	if t.file == "" && file != "" {
		t.file = file
		return true, nil
	}
	return false, nil
}

// declared returns the named table, which must already be declared.
// Callers hold j.mu.
func (j *Journal) declared(name string) (*journalTable, error) {
	t := j.tables[name]
	if t == nil {
		return nil, fmt.Errorf("experiments: record for table %q before its table record", name)
	}
	return t, nil
}

// writeLine marshals one record and flushes it to disk, so a kill loses
// at most the record being written. In-memory journals write nothing.
func (j *Journal) writeLine(v any) error {
	if j.f == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.w.Flush()
}

// replay looks up the completed row at (tableName, index) from the
// loaded journal. Nil-safe on a nil receiver (no journal = no skips).
func (j *Journal) replay(tableName string, index int) (MetricRow, bool) {
	if j == nil {
		return MetricRow{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	t := j.tables[tableName]
	if t == nil {
		return MetricRow{}, false
	}
	row, ok := t.rows[index]
	if !ok {
		return MetricRow{}, false
	}
	m, has := t.metrics[index]
	return MetricRow{Index: index, Row: row, Metric: m, HasMetric: has}, true
}

// Metric looks up the refinement metric recorded at (tableName, index)
// by a row or a metric-only record. Nil-safe.
func (j *Journal) Metric(tableName string, index int) (float64, bool) {
	if j == nil {
		return 0, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	t := j.tables[tableName]
	if t == nil {
		return 0, false
	}
	m, ok := t.metrics[index]
	return m, ok
}

// recordMetric checkpoints a foreign point's refinement metric; a
// metric already recorded is not rewritten.
func (j *Journal) recordMetric(tableName string, index int, metric float64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	t, err := j.declared(tableName)
	if err != nil {
		return err
	}
	added, err := t.addMetric(index, metric)
	if err != nil || !added {
		return err
	}
	return j.writeLine(metricRecord{Type: "metric", Table: tableName, Index: index, Metric: metric})
}

// TableProgress summarizes one table a journal holds.
type TableProgress struct {
	Name string `json:"name"`
	File string `json:"file,omitempty"`
	Rows int    `json:"rows"`
	Gaps int    `json:"gaps"` // indexes missing below the highest recorded one
}

// Tables summarizes every declared table, sorted by name.
func (j *Journal) Tables() []TableProgress {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]TableProgress, 0, len(j.tables))
	for name, t := range j.tables {
		out = append(out, TableProgress{Name: name, File: t.file, Rows: len(t.rows), Gaps: t.next - len(t.rows)})
	}
	slices.SortFunc(out, func(a, b TableProgress) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// WriteTable streams the named table into sink — Begin, every row in
// index order with its index and metric, End — exactly as a
// single-process run streams it. A table with a gap in its indexes is
// refused before anything reaches the sink; a table cut short at its
// tail cannot be told from a complete one here, so callers gate on
// every producer having finished.
func (j *Journal) WriteTable(name string, sink RowSink) error {
	j.mu.Lock()
	t := j.tables[name]
	if t == nil {
		j.mu.Unlock()
		return fmt.Errorf("experiments: journal holds no table %q", name)
	}
	rows := make([]MetricRow, len(t.rows))
	for i := range rows {
		row, ok := t.rows[i]
		if !ok {
			j.mu.Unlock()
			return fmt.Errorf("experiments: table %q has a gap at row %d (holds %d rows; a shard output is missing or incomplete)",
				name, i, len(t.rows))
		}
		m, has := t.metrics[i]
		rows[i] = MetricRow{Index: i, Row: row, Metric: m, HasMetric: has}
	}
	meta := t.meta
	j.mu.Unlock()

	if err := sink.Begin(meta); err != nil {
		return err
	}
	for _, m := range rows {
		if err := sinkEmit(sink, m); err != nil {
			return err
		}
	}
	return sink.End()
}

// beginTable declares a table, journaling the declaration unless a
// resumed run already holds it.
func (j *Journal) beginTable(meta TableMeta) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	added, err := j.declare(meta, "")
	if err != nil || !added {
		return err
	}
	return j.writeLine(tableRecord{Type: "table", Name: meta.Name, Note: meta.Note, Header: meta.Header})
}

// record appends one engine-emitted row. Rows already present —
// replays of a prior run's work — are not rewritten, so a resumed
// journal stays duplicate-free.
func (j *Journal) record(tableName string, m MetricRow) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	t, err := j.declared(tableName)
	if err != nil {
		return err
	}
	changed, err := t.addRow(m)
	if err != nil || !changed {
		return err
	}
	return j.writeLine(newRowRecord(tableName, m))
}

// recordNext appends a row under one past the table's highest recorded
// index, holding the lock across the index choice and the write so
// concurrent direct Row calls cannot collide (and sparse index sets —
// a resumed sharded journal — are never silently overwritten).
func (j *Journal) recordNext(tableName string, row []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	t, err := j.declared(tableName)
	if err != nil {
		return err
	}
	m := MetricRow{Index: t.next, Row: row}
	if _, err := t.addRow(m); err != nil {
		return err
	}
	return j.writeLine(newRowRecord(tableName, m))
}

// writeCompact writes the journal's live state to w — one fingerprint
// stamp, then per table (sorted by name) the table record, its rows in
// index order, and the metric-only checkpoints no row carries. Loading
// the output reproduces the state exactly. Callers hold j.mu.
func (j *Journal) writeCompact(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeRec := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(append(b, '\n'))
		return err
	}
	if err := writeRec(headerRecord{Type: "journal", Fingerprint: j.fingerprint}); err != nil {
		return err
	}
	names := make([]string, 0, len(j.tables))
	for name := range j.tables {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t := j.tables[name]
		if err := writeRec(tableRecord{Type: "table", Name: name, Note: t.meta.Note, Header: t.meta.Header, File: t.file}); err != nil {
			return err
		}
		idxs := make([]int, 0, len(t.rows))
		for i := range t.rows {
			idxs = append(idxs, i)
		}
		slices.Sort(idxs)
		for _, i := range idxs {
			m, has := t.metrics[i]
			if err := writeRec(newRowRecord(name, MetricRow{Index: i, Row: t.rows[i], Metric: m, HasMetric: has})); err != nil {
				return err
			}
		}
		midxs := make([]int, 0, len(t.metrics))
		for i := range t.metrics {
			if _, owned := t.rows[i]; !owned {
				midxs = append(midxs, i)
			}
		}
		slices.Sort(midxs)
		for _, i := range midxs {
			if err := writeRec(metricRecord{Type: "metric", Table: name, Index: i, Metric: t.metrics[i]}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Compact rewrites the journal file to exactly its live state (see
// writeCompact), dropping everything else: lines trimmed as partial on
// load, duplicate declarations from concatenated journals, and metric
// records a row now carries. Very long refined sweeps accumulate
// journal lines linearly in completed points; compacting between runs
// bounds what a resume (or a collector replay) must parse.
//
// The rewrite is atomic: records are written to a sibling
// <path>.compact file which is renamed over the journal only once
// complete, so a crash mid-compaction leaves either the original or
// the fully compacted file — never a hybrid — and a resume against
// either yields byte-identical sweep output. A stale .compact file
// from a crashed compaction is simply overwritten next time.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("experiments: compact of an in-memory journal")
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	path := j.f.Name()
	tmpPath := path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := j.writeCompact(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	// The commit point: before the rename a resume reads the original
	// journal, after it the compacted one; both describe the same rows.
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	old := j.f
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but unappendable; surface the
		// error and leave the journal closed for writes.
		old.Close()
		j.f, j.w = nil, nil
		return err
	}
	old.Close()
	j.f = f
	j.w = bufio.NewWriter(f)
	return nil
}

// Close flushes and closes the underlying file.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// JournalSink is the journaling RowSink: every row streamed through it
// is appended to the journal before (conceptually alongside) reaching
// the run's other sinks — compose it with them via MultiSink. Rows the
// engine replayed from the same journal are recognized by key and not
// rewritten.
type JournalSink struct {
	j     *Journal
	table string
}

// NewJournalSink wraps a journal as a RowSink.
func NewJournalSink(j *Journal) *JournalSink {
	return &JournalSink{j: j}
}

// Begin declares the table in the journal.
func (s *JournalSink) Begin(meta TableMeta) error {
	s.table = meta.Name
	return s.j.beginTable(meta)
}

// Row journals a row without engine context, assigning the next unused
// index. The engine path (MetricRow) supplies true global indices; this
// variant keeps JournalSink a complete RowSink for direct use.
func (s *JournalSink) Row(row []string) error {
	return s.j.recordNext(s.table, row)
}

// MetricRow journals one engine-emitted row under its global index.
func (s *JournalSink) MetricRow(m MetricRow) error {
	return s.j.record(s.table, m)
}

// End flushes the journal (records are flushed per line already).
func (s *JournalSink) End() error {
	if s.j.f == nil {
		return nil
	}
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	return s.j.w.Flush()
}
