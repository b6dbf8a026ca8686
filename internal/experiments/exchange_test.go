package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// memStore is an in-memory MetricExchange shared by concurrently
// running test shards: each shard publishes its owned metrics through a
// memSink and resolves foreign ones here, exactly the collector's
// contract without the HTTP transport.
type memStore struct {
	mu   sync.Mutex
	vals map[string]map[int]float64
	fail bool // simulate an unreachable collector
}

func newMemStore() *memStore {
	return &memStore{vals: map[string]map[int]float64{}}
}

func (s *memStore) publish(table string, index int, m float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.vals[table]
	if t == nil {
		t = map[int]float64{}
		s.vals[table] = t
	}
	t[index] = m
}

func (s *memStore) lookup(table string, index int) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.vals[table][index]
	return m, ok
}

func (s *memStore) ForeignMetric(table string, index int) (float64, bool) {
	if s.fail {
		return 0, false
	}
	// Poll with a generous deadline: the owning shard runs concurrently
	// and publishes as its round progresses.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if m, ok := s.lookup(table, index); ok {
			return m, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(time.Millisecond)
	}
}

// memSink feeds a shard's emitted metrics into the shared store.
type memSink struct {
	st    *memStore
	table string
}

func (m *memSink) Begin(meta TableMeta) error { m.table = meta.Name; return nil }
func (m *memSink) Row([]string) error         { return nil }
func (m *memSink) End() error                 { return nil }
func (m *memSink) MetricRow(mr MetricRow) error {
	if mr.HasMetric {
		m.st.publish(m.table, mr.Index, mr.Metric)
	}
	return nil
}

// runShardsWithExchange streams key on count concurrent shards sharing
// one exchange, returning each shard's JSONL bytes and evaluation
// counts.
func runShardsWithExchange(t *testing.T, key string, base Scale, count, par int,
	st *memStore) ([][]byte, []int64) {
	t.Helper()
	outs := make([][]byte, count)
	evals := make([]int64, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for idx := 0; idx < count; idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s := base
			s.Shard = Shard{Index: idx, Count: count}
			s.Parallelism = par
			s.Exchange = st
			s.Counters = &Counters{}
			var buf bytes.Buffer
			sink := MultiSink{NewJSONLSink(&buf), &memSink{st: st}}
			errs[idx] = Stream(key, s, sink)
			outs[idx] = buf.Bytes()
			evals[idx] = s.Counters.Evaluations.Load()
		}(idx)
	}
	wg.Wait()
	for idx, err := range errs {
		if err != nil {
			t.Fatalf("shard %d/%d: %v", idx, count, err)
		}
	}
	return outs, evals
}

// TestShardedRefinementExchangeByteIdentical is the shard-aware
// scheduling acceptance contract: with a healthy exchange, concurrent
// shards split the refinement evaluation — each shard simulates exactly
// its owned points, the global evaluation count equals the unsharded
// run's, and the merged union stays byte-identical to the unsharded
// stream — for the 1-D and the 2-D adaptive sweeps at ShardCount
// {1, 2, 5} x Parallelism {1, 8}.
func TestShardedRefinementExchangeByteIdentical(t *testing.T) {
	for _, key := range []string{"refined-e", "refined-esigma"} {
		t.Run(key, func(t *testing.T) {
			base := tinyScale()
			base.RefineBudget = 3
			base.Counters = &Counters{}
			var wantCSV, wantJSONL bytes.Buffer
			if err := Stream(key, base, MultiSink{NewCSVSink(&wantCSV), NewJSONLSink(&wantJSONL)}); err != nil {
				t.Fatal(err)
			}
			totalEvals := base.Counters.Evaluations.Load()
			totalRows := int(totalEvals) // unsharded: every point is one evaluation

			for _, count := range []int{1, 2, 5} {
				for _, par := range []int{1, 8} {
					t.Run(fmt.Sprintf("count%d_par%d", count, par), func(t *testing.T) {
						st := newMemStore()
						s := tinyScale()
						s.RefineBudget = 3
						outs, evals := runShardsWithExchange(t, key, s, count, par, st)

						var sum int64
						for idx, n := range evals {
							want := int64(len(Shard{Index: idx, Count: count}.indices(totalRows)))
							if n != want {
								t.Errorf("shard %d/%d simulated %d points, want exactly its %d owned",
									idx, count, n, want)
							}
							sum += n
						}
						if sum != totalEvals {
							t.Errorf("global evaluations %d, want %d (each point simulated exactly once)",
								sum, totalEvals)
						}

						parts := make([]io.Reader, count)
						for i, b := range outs {
							parts[i] = bytes.NewReader(b)
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

// TestExchangeUnavailableFallsBackLocally pins the failure contract: an
// exchange that cannot produce any metric (collector down) degrades to
// the PR 4 behavior — every shard evaluates the full point set — and
// the union is still byte-identical.
func TestExchangeUnavailableFallsBackLocally(t *testing.T) {
	key := "refined-e"
	base := tinyScale()
	base.RefineBudget = 3
	base.Counters = &Counters{}
	var want bytes.Buffer
	if err := Stream(key, base, NewJSONLSink(&want)); err != nil {
		t.Fatal(err)
	}
	totalEvals := base.Counters.Evaluations.Load()

	st := newMemStore()
	st.fail = true
	s := tinyScale()
	s.RefineBudget = 3
	outs, evals := runShardsWithExchange(t, key, s, 2, 2, st)
	for idx, n := range evals {
		if n != totalEvals {
			t.Errorf("shard %d with dead exchange simulated %d points, want the full %d", idx, n, totalEvals)
		}
	}
	parts := make([]io.Reader, len(outs))
	for i, b := range outs {
		parts[i] = bytes.NewReader(b)
	}
	var got bytes.Buffer
	if err := mergeParts(parts, NewJSONLSink(&got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("dead-exchange merged stream differs from unsharded stream")
	}
}

// TestRefined2DDeterministicAcrossParallelism pins the 2-D driver's
// half of the Parallelism contract directly.
func TestRefined2DDeterministicAcrossParallelism(t *testing.T) {
	s := tinyScale()
	s.RefineBudget = 4
	var want bytes.Buffer
	s.Parallelism = 1
	if err := Stream("refined-esigma", s, NewCSVSink(&want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want.Bytes(), []byte(",refined")) {
		t.Fatal("budget 4 produced no refined rows")
	}
	for _, par := range []int{2, 8} {
		var got bytes.Buffer
		s.Parallelism = par
		if err := Stream("refined-esigma", s, NewCSVSink(&got)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("parallelism %d changed the 2-D refined stream", par)
		}
	}
}

// TestRefined2DCellSpreadScoring pins the quadtree scoring unit: the
// spread of a cell is the metric range over samples on its closed
// bounds, and center() bisects exactly.
func TestRefined2DCellSpreadScoring(t *testing.T) {
	samples := []sample2d{
		{0, 0, 1}, {1, 0, 5}, {0, 1, 2}, {1, 1, 3}, // corners
		{2, 2, 100}, // outside
	}
	c := cell2d{0, 1, 0, 1}
	if got := c.spread(samples); got != 4 {
		t.Errorf("spread = %v, want 4", got)
	}
	cx, cy := c.center()
	if cx != 0.5 || cy != 0.5 {
		t.Errorf("center = (%v,%v), want (0.5,0.5)", cx, cy)
	}
	// A sample on the boundary counts for both adjacent cells.
	left, right := cell2d{0, 0.5, 0, 1}, cell2d{0.5, 1, 0, 1}
	boundary := []sample2d{{0.5, 0.5, 10}, {0, 0, 4}, {1, 0, 7}}
	if got := left.spread(boundary); got != 6 {
		t.Errorf("left spread = %v, want 6", got)
	}
	if got := right.spread(boundary); got != 3 {
		t.Errorf("right spread = %v, want 3", got)
	}
}
