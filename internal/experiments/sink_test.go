package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

func feedSink(t *testing.T, sink RowSink) {
	t.Helper()
	meta := TableMeta{
		Name:   "Test Table",
		Note:   "a note",
		Header: []string{"x", "y"},
	}
	if err := sink.Begin(meta); err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]string{{"1", "a"}, {"2", "b"}} {
		if err := sink.Row(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.End(); err != nil {
		t.Fatal(err)
	}
}

func TestTableSink(t *testing.T) {
	var ts TableSink
	feedSink(t, &ts)
	tbl := ts.Table()
	if tbl.Name != "Test Table" || tbl.Note != "a note" {
		t.Errorf("meta = %q / %q", tbl.Name, tbl.Note)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[1][1] != "b" {
		t.Errorf("rows = %v", tbl.Rows)
	}
}

func TestCSVSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSVSink(&buf)
	feedSink(t, sink)
	want := "# Test Table\n# a note\nx,y\n1,a\n2,b\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
	if sink.Rows() != 2 {
		t.Errorf("Rows() = %d, want 2", sink.Rows())
	}

	// A table without a note has a one-line preamble.
	buf.Reset()
	sink = NewCSVSink(&buf)
	if err := sink.Begin(TableMeta{Name: "T", Header: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "# T\na\n"; got != want {
		t.Errorf("CSV preamble = %q, want %q", got, want)
	}
}

func TestJSONLSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	feedSink(t, NewJSONLSink(&buf))
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	var table tableRecord
	if err := json.Unmarshal(lines[0], &table); err != nil {
		t.Fatal(err)
	}
	if table.Type != "table" || table.Name != "Test Table" || len(table.Header) != 2 {
		t.Errorf("table record = %+v", table)
	}
	for i, line := range lines[1:] {
		var row rowRecord
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		if row.Type != "row" || row.Table != "Test Table" || row.Index != i || len(row.Row) != 2 {
			t.Errorf("row record %d = %+v", i, row)
		}
	}
}

func TestMultiSinkFansOut(t *testing.T) {
	var ts TableSink
	var buf bytes.Buffer
	feedSink(t, MultiSink{&ts, NewCSVSink(&buf)})
	if len(ts.Table().Rows) != 2 {
		t.Errorf("table sink rows = %d, want 2", len(ts.Table().Rows))
	}
	if buf.Len() == 0 {
		t.Error("CSV sink saw nothing")
	}
}
