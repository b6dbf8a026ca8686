package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The streaming results path: every experiment pushes its rows into a
// RowSink incrementally, in deterministic task order, as sweep workers
// finish out of order (a reorder buffer over the par pool sequences
// them). Long sweeps therefore produce consumable output from the first
// completed point; the in-memory Table of the old collect-then-return
// contract is just one sink among several.

// TableMeta identifies a streamed table before any of its rows arrive.
type TableMeta struct {
	Name   string
	Note   string
	Header []string
}

// RowSink consumes one experiment's rows incrementally. Begin is called
// exactly once before the first row, Row once per row in deterministic
// task order, and End exactly once after the last row (End is not
// called when the sweep aborts on an error). Implementations need not
// be safe for concurrent use: the engine serializes all calls.
//
// A sweep that fails mid-flight may already have delivered a prefix of
// its rows; sinks that require all-or-nothing semantics should buffer
// (see TableSink).
type RowSink interface {
	Begin(meta TableMeta) error
	Row(row []string) error
	End() error
}

// MetricRow is the engine-side view of one emitted row: its global
// index — the row's position in the unsharded deterministic stream,
// the stable key of the sharding and journaling subsystems — its
// payload, and the refinement metric of adaptive-sweep rows (HasMetric
// false for fixed-grid rows). In an unsharded run the indices are the
// contiguous sequence 0, 1, 2, ...; a sharded run delivers only the
// shard-owned subset. The metric must survive transport at full
// float64 precision so a foreign shard's refinement decisions are
// bit-identical to local evaluation.
type MetricRow struct {
	Index     int
	Row       []string
	Metric    float64
	HasMetric bool
}

// MetricSink is the indexed RowSink extension: sinks that implement it
// receive each engine-emitted row with its global index and refinement
// metric through MetricRow instead of Row.
type MetricSink interface {
	RowSink
	MetricRow(m MetricRow) error
}

// sinkEmit delivers one engine-emitted row to a sink through the
// richest interface it implements.
func sinkEmit(sink RowSink, m MetricRow) error {
	if ms, ok := sink.(MetricSink); ok {
		return ms.MetricRow(m)
	}
	return sink.Row(m.Row)
}

// TableSink buffers a streamed experiment into an in-memory Table — the
// old aggregate contract expressed as a sink. The zero value is ready
// to use.
type TableSink struct {
	table Table
}

// Begin records the table identity.
func (t *TableSink) Begin(meta TableMeta) error {
	t.table = Table{Name: meta.Name, Note: meta.Note, Header: meta.Header}
	return nil
}

// Row appends one row.
func (t *TableSink) Row(row []string) error {
	t.table.Rows = append(t.table.Rows, row)
	return nil
}

// End is a no-op; the table is complete.
func (t *TableSink) End() error { return nil }

// Table returns the accumulated table.
func (t *TableSink) Table() *Table {
	tbl := t.table
	return &tbl
}

// CSVSink streams a table as CSV: two leading comment lines (name and
// note), the header, then one line per row, flushed row by row so a
// consumer tailing the file sees points as they complete.
type CSVSink struct {
	w    *bufio.Writer
	rows int
}

// NewCSVSink wraps w in a streaming CSV renderer.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: bufio.NewWriter(w)}
}

// Begin writes the comment preamble and header.
func (c *CSVSink) Begin(meta TableMeta) error {
	fmt.Fprintf(c.w, "# %s\n", meta.Name)
	if meta.Note != "" {
		fmt.Fprintf(c.w, "# %s\n", meta.Note)
	}
	fmt.Fprintln(c.w, strings.Join(meta.Header, ","))
	return c.w.Flush()
}

// Row writes and flushes one CSV line.
func (c *CSVSink) Row(row []string) error {
	c.rows++
	fmt.Fprintln(c.w, strings.Join(row, ","))
	return c.w.Flush()
}

// End flushes any buffered output.
func (c *CSVSink) End() error { return c.w.Flush() }

// Rows returns the number of rows streamed so far.
func (c *CSVSink) Rows() int { return c.rows }

// JSONLSink streams a table as JSON Lines: one "table" record carrying
// name/note/header, then one "row" record per row. Field order is fixed
// by the record structs, so the byte stream is deterministic for a
// deterministic row stream. Engine-streamed rows carry their global
// index (see MetricRow), which makes per-shard JSONL files the merge
// units of sharded sweeps; rows pushed via plain Row are numbered by a
// local counter.
type JSONLSink struct {
	w     *bufio.Writer
	table string
	index int
}

// NewJSONLSink wraps w in a streaming JSONL renderer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

func (j *JSONLSink) writeLine(b []byte, err error) error {
	if err != nil {
		return fmt.Errorf("experiments: jsonl sink: %w", err)
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.w.Flush()
}

// Begin writes the table record.
func (j *JSONLSink) Begin(meta TableMeta) error {
	j.table = meta.Name
	j.index = 0
	return j.writeLine(TableRecord(meta, ""))
}

// Row writes one row record under the next locally counted index.
func (j *JSONLSink) Row(row []string) error {
	m := MetricRow{Index: j.index, Row: row}
	j.index++
	return j.writeLine(RowRecord(j.table, m))
}

// MetricRow writes one row record under its global index. The metric
// stays out of the sink's bytes, which match a single-process run.
func (j *JSONLSink) MetricRow(m MetricRow) error {
	return j.writeLine(RowRecord(j.table, MetricRow{Index: m.Index, Row: m.Row}))
}

// End flushes any buffered output.
func (j *JSONLSink) End() error { return j.w.Flush() }

// MultiSink fans every call out to several sinks (e.g. CSV to disk plus
// a live JSONL feed). The first error aborts the fan-out.
type MultiSink []RowSink

// Begin forwards to every sink.
func (m MultiSink) Begin(meta TableMeta) error {
	for _, s := range m {
		if err := s.Begin(meta); err != nil {
			return err
		}
	}
	return nil
}

// Row forwards to every sink.
func (m MultiSink) Row(row []string) error {
	for _, s := range m {
		if err := s.Row(row); err != nil {
			return err
		}
	}
	return nil
}

// MetricRow forwards an engine-emitted row to every sink through the
// richest interface each implements, so one fan-out can mix plain,
// indexed and journaling sinks.
func (m MultiSink) MetricRow(row MetricRow) error {
	for _, s := range m {
		if err := sinkEmit(s, row); err != nil {
			return err
		}
	}
	return nil
}

// End forwards to every sink.
func (m MultiSink) End() error {
	for _, s := range m {
		if err := s.End(); err != nil {
			return err
		}
	}
	return nil
}
