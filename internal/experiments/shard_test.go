package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestParseShard(t *testing.T) {
	cases := []struct {
		in   string
		want Shard
		ok   bool
	}{
		{"", Shard{}, true},
		{"0/1", Shard{0, 1}, true},
		{"0/2", Shard{0, 2}, true},
		{"1/2", Shard{1, 2}, true},
		{"4/5", Shard{4, 5}, true},
		{"2/2", Shard{}, false},  // index out of range
		{"-1/2", Shard{}, false}, // negative index
		{"0/0", Shard{}, false},  // zero count
		{"1", Shard{}, false},    // no slash
		{"a/b", Shard{}, false},  // not numeric
	}
	for _, c := range cases {
		got, err := ParseShard(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseShard(%q) accepted, want error", c.in)
		}
	}
}

func TestShardOwnershipPartitions(t *testing.T) {
	// Every index is owned by exactly one shard, and indices() agrees
	// with owns().
	for _, count := range []int{1, 2, 5} {
		seen := map[int]int{}
		for idx := 0; idx < count; idx++ {
			sh := Shard{Index: idx, Count: count}
			for _, g := range sh.indices(17) {
				if !sh.owns(g) {
					t.Errorf("shard %v: indices() yields %d but owns() denies it", sh, g)
				}
				seen[g]++
			}
		}
		for g := 0; g < 17; g++ {
			if seen[g] != 1 {
				t.Errorf("count %d: index %d owned by %d shards, want 1", count, g, seen[g])
			}
		}
	}
}

func TestScaleRejectsBadShard(t *testing.T) {
	s := tinyScale()
	s.Shard = Shard{Index: 3, Count: 2}
	if _, err := Figure5(s); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// shardJSONL streams one experiment shard into JSONL bytes.
func shardJSONL(t *testing.T, key string, s Scale, sh Shard) []byte {
	t.Helper()
	s.Shard = sh
	var buf bytes.Buffer
	if err := Stream(key, s, NewJSONLSink(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardUnionByteIdentical is the sharding acceptance contract: for
// Shard.Count in {1, 2, 5} and Parallelism in {1, 8}, merging the
// per-shard JSONL outputs reproduces the exact CSV and JSONL bytes of
// the unsharded single-process stream. Covers a fixed grid (figure5),
// the scenario matrix (stateful estimators), and an adaptive refinement
// sweep (refined-e), whose refinement decisions must not depend on
// which shard emits which row.
func TestShardUnionByteIdentical(t *testing.T) {
	for _, key := range []string{"figure5", "scenarios", "refined-e", "refined-esigma"} {
		t.Run(key, func(t *testing.T) {
			base := tinyScale()
			base.RefineBudget = 3
			var wantCSV, wantJSONL bytes.Buffer
			if err := Stream(key, base, MultiSink{NewCSVSink(&wantCSV), NewJSONLSink(&wantJSONL)}); err != nil {
				t.Fatal(err)
			}

			for _, count := range []int{1, 2, 5} {
				for _, par := range []int{1, 8} {
					t.Run(fmt.Sprintf("count%d_par%d", count, par), func(t *testing.T) {
						s := tinyScale()
						s.RefineBudget = 3
						s.Parallelism = par
						parts := make([]io.Reader, 0, count)
						for idx := 0; idx < count; idx++ {
							b := shardJSONL(t, key, s, Shard{Index: idx, Count: count})
							parts = append(parts, bytes.NewReader(b))
						}
						var gotCSV, gotJSONL bytes.Buffer
						if err := mergeParts(parts, MultiSink{NewCSVSink(&gotCSV), NewJSONLSink(&gotJSONL)}); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
							t.Errorf("merged CSV differs from unsharded stream:\n%s\nwant:\n%s",
								gotCSV.String(), wantCSV.String())
						}
						if !bytes.Equal(gotJSONL.Bytes(), wantJSONL.Bytes()) {
							t.Errorf("merged JSONL differs from unsharded stream")
						}
					})
				}
			}
		})
	}
}

// mergeParts reassembles per-shard JSONL outputs (or journals) the way
// figures -merge does: load them all into one in-memory journal, then
// write its only table into sink.
func mergeParts(parts []io.Reader, sink RowSink) error {
	j := NewJournal()
	for _, p := range parts {
		if _, err := j.Load(p); err != nil {
			return err
		}
	}
	tables := j.Tables()
	if len(tables) != 1 {
		return fmt.Errorf("merge inputs describe %d tables, want 1", len(tables))
	}
	return j.WriteTable(tables[0].Name, sink)
}

// TestJournalRecordValidation exercises the shared decoder's duplicate
// rule and the writer's gap check on merge-shaped inputs: identical
// replays are no-ops, while conflicting rows, re-declared headers,
// gaps, rows before their table, and corrupt lines are refused.
func TestJournalRecordValidation(t *testing.T) {
	table := `{"type":"table","name":"T","header":["x"]}` + "\n"
	row := func(i int, v string) string {
		return fmt.Sprintf(`{"type":"row","table":"T","index":%d,"row":["%s"]}`+"\n", i, v)
	}
	merge := func(parts ...string) error {
		in := make([]io.Reader, len(parts))
		for i, p := range parts {
			in[i] = strings.NewReader(p)
		}
		return mergeParts(in, &TableSink{})
	}

	if err := merge(table+row(0, "0")+row(2, "2"), table+row(1, "1")); err != nil {
		t.Errorf("complete merge rejected: %v", err)
	}
	if err := merge(); err == nil {
		t.Error("zero parts accepted")
	}
	if err := merge(table+row(0, "0")+row(0, "0"), table+row(0, "0")); err != nil {
		t.Errorf("identical replay rejected: %v", err)
	}
	if err := merge(table + row(0, "0") + row(0, "x")); !errors.Is(err, ErrRecordConflict) {
		t.Errorf("conflicting duplicate index not caught: %v", err)
	}
	if err := merge(table+row(0, "0"), table+row(0, "x")); !errors.Is(err, ErrRecordConflict) {
		t.Errorf("cross-shard conflicting duplicate not caught: %v", err)
	}
	if err := merge(table + row(0, "0") + row(2, "2")); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap not caught: %v", err)
	}
	if err := merge(table, `{"type":"table","name":"T","header":["y"]}`+"\n"); !errors.Is(err, ErrRecordConflict) {
		t.Errorf("header mismatch not caught: %v", err)
	}
	if err := merge(table, `{"type":"table","name":"U","header":["x"]}`+"\n"); err == nil {
		t.Error("table mismatch not caught")
	}
	if err := merge(row(0, "0")); err == nil {
		t.Error("row before table record accepted")
	}
	for _, bad := range []string{
		"not json\n",
		`{"type":"row","table":"T","index":-1,"row":["x"]}` + "\n",
		`{"type":"metric","table":"T","index":1}` + "\n",
		`{"type":"bogus"}` + "\n",
	} {
		if err := merge(table + bad); err == nil {
			t.Errorf("malformed line %q accepted", bad)
		}
	}
	// Journal fingerprint stamps are tolerated (journals are merge inputs
	// too, each stamped with its own shard's fingerprint).
	if err := merge(`{"type":"journal","fingerprint":"f"}`+"\n"+table+row(0, "0"),
		`{"type":"journal","fingerprint":"g"}`+"\n"+table); err != nil {
		t.Errorf("journal stamps rejected: %v", err)
	}
}
