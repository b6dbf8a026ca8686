package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamcache/internal/experiments"
)

// tinyScale is a fast scale that still exercises every sweep path.
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

// runShards writes every shard's output of key into dir the way a
// finished `figures -shard i/n` run does: the index-keyed JSONL file,
// then the INDEX file recording its row count.
func runShards(t *testing.T, dir, key string, count int) {
	t.Helper()
	e, ok := experiments.ExperimentByKey(key)
	if !ok {
		t.Fatalf("unknown experiment %q", key)
	}
	for idx := 0; idx < count; idx++ {
		s := tinyScale()
		s.Shard = experiments.Shard{Index: idx, Count: count}
		file := shardFileName(files[key], s.Shard)
		name, rows, err := streamExperiment(e, s, nil, nil, "", filepath.Join(dir, file), false)
		if err != nil {
			t.Fatal(err)
		}
		index := "# test run\n" + indexEntry(key, file, rows, name)
		if err := os.WriteFile(filepath.Join(dir, shardIndexName(idx, count)), []byte(index), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// singleRun returns the unsharded CSV and JSONL bytes of key.
func singleRun(t *testing.T, key string) (csv, jsonl []byte) {
	t.Helper()
	dir := t.TempDir()
	e, _ := experiments.ExperimentByKey(key)
	path := filepath.Join(dir, files[key])
	if _, _, err := streamExperiment(e, tinyScale(), nil, nil, "", path, true); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path), readFile(t, strings.TrimSuffix(path, ".csv")+".jsonl")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeByteIdentical: -merge of 2 and 5 finished shards writes the
// single-process CSV and JSONL bytes.
func TestMergeByteIdentical(t *testing.T) {
	for _, key := range []string{"figure5", "refined-e"} {
		wantCSV, wantJSONL := singleRun(t, key)
		for _, count := range []int{2, 5} {
			dir := t.TempDir()
			runShards(t, dir, key, count)
			if err := mergeShardOutputs(dir, true); err != nil {
				t.Fatalf("%s/%d: %v", key, count, err)
			}
			stem := strings.TrimSuffix(files[key], ".csv")
			if got := readFile(t, filepath.Join(dir, stem+".csv")); !bytes.Equal(got, wantCSV) {
				t.Errorf("%s/%d: merged CSV differs:\n%s\nwant:\n%s", key, count, got, wantCSV)
			}
			if got := readFile(t, filepath.Join(dir, stem+".jsonl")); !bytes.Equal(got, wantJSONL) {
				t.Errorf("%s/%d: merged JSONL differs", key, count)
			}
		}
	}
}

// TestMergeRefusesIncompleteGroups: a group is merged only when every
// shard recorded that it finished with exactly the rows its file
// holds. A shard that lost its tail rows, never wrote its INDEX, or
// whose INDEX lacks the file is refused with a named error, as are
// conflicting rows and shard files describing different tables.
func TestMergeRefusesIncompleteGroups(t *testing.T) {
	const key = "figure5"
	shard0 := shardFileName(files[key], experiments.Shard{Index: 0, Count: 2})
	shard1 := shardFileName(files[key], experiments.Shard{Index: 1, Count: 2})
	edit := func(t *testing.T, dir, name string, f func(lines []string) []string) {
		t.Helper()
		path := filepath.Join(dir, name)
		lines := strings.SplitAfter(string(readFile(t, path)), "\n")
		if err := os.WriteFile(path, []byte(strings.Join(f(lines[:len(lines)-1]), "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		breakG func(t *testing.T, dir string)
		want   string
	}{
		{"truncated tail", func(t *testing.T, dir string) {
			edit(t, dir, shard0, func(l []string) []string { return l[:len(l)-1] })
		}, "recorded"},
		{"missing INDEX", func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, shardIndexName(1, 2)))
		}, "never finished"},
		{"INDEX without entry", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, shardIndexName(1, 2)), []byte("# other run\n"), 0o644)
		}, "no entry"},
		{"conflicting row", func(t *testing.T, dir string) {
			row0 := strings.SplitAfter(string(readFile(t, filepath.Join(dir, shard0))), "\n")[1]
			edit(t, dir, shard1, func(l []string) []string {
				return append(l, strings.Replace(row0, `"row":[`, `"row":["x",`, 1))
			})
		}, experiments.ErrRecordConflict.Error()},
		{"shard holding another's row", func(t *testing.T, dir string) {
			row0 := strings.SplitAfter(string(readFile(t, filepath.Join(dir, shard0))), "\n")[1]
			edit(t, dir, shard1, func(l []string) []string { return append(l[:len(l)-1], row0) })
		}, "recorded"},
		{"table mismatch", func(t *testing.T, dir string) {
			edit(t, dir, shard1, func(l []string) []string {
				return append(l, `{"type":"table","name":"other","header":["x"]}`+"\n")
			})
		}, "2 tables"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			runShards(t, dir, key, 2)
			c.breakG(t, dir)
			err := mergeShardOutputs(dir, false)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("merge returned %v, want an error naming %q", err, c.want)
			}
			if _, statErr := os.Stat(filepath.Join(dir, strings.TrimSuffix(files[key], ".csv")+".csv")); !errors.Is(statErr, os.ErrNotExist) {
				t.Errorf("a refused merge still wrote the canonical CSV (stat: %v)", statErr)
			}
		})
	}
}
