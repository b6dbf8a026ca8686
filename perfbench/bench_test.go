package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"streamcache/internal/proxy"
)

func testCatalog(t *testing.T) *proxy.Catalog {
	t.Helper()
	c, err := proxy.BuildCatalog(partialObjects, partialMeanKB, partialRateKBps, partialCatalogSeed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScheduleDeterministic(t *testing.T) {
	c := testCatalog(t)
	render := func(seed int64) string {
		s, err := buildSchedule(seed, 20*time.Second, partialRate, c)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", s)
	}
	if a, b := render(7), render(7); a != b {
		t.Fatal("same seed gave different schedules")
	}
	if render(7) == render(8) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleMix(t *testing.T) {
	c := testCatalog(t)
	const span = 20 * time.Second
	s, err := buildSchedule(1, span, partialRate, c)
	if err != nil {
		t.Fatal(err)
	}
	want := int(partialRate * span.Seconds())
	if len(s) != want {
		t.Fatalf("%d sessions, want %d", len(s), want)
	}
	abandoned := 0
	for i, x := range s {
		m, _ := c.Get(x.id)
		if x.limit < m.Size {
			abandoned++
		}
		if x.due < 0 || x.due >= span || (i > 0 && x.due < s[i-1].due) {
			t.Fatalf("session %d due at %v: not sorted within [0, %v)", i, x.due, span)
		}
	}
	if want := int(float64(len(s)) * partialAbandon); abandoned != want {
		t.Fatalf("%d abandoned sessions, want %d", abandoned, want)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n      int
		p, v   float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 9990, 10, true},
		{1000, 99, 990, 10, true},
		{999, 90, 900, 99, true},
		{100, 90, 90, 10, true},
		{99, 50, 50, 49, true},
		{20, 50, 10, 10, true},
		{19, 0, 0, 0, false},
	}
	for _, c := range cases {
		p, v, beyond, ok := tail(ramp(c.n))
		if p != c.p || v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got p%g=%g with %d beyond (ok %v), want p%g=%g with %d beyond (ok %v)",
				c.n, p, v, beyond, ok, c.p, c.v, c.beyond, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
		{Name: "open", Start: 0, End: -1, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// serveContent answers GET /objects/<id> with the object's content,
// flipping byte corrupt when it is in range.
func serveContent(c *proxy.Catalog, corrupt int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.Atoi(r.URL.Path[len("/objects/"):])
		m, _ := c.Get(id)
		body := proxy.Content(id, 0, m.Size)
		if corrupt >= 0 && corrupt < int64(len(body)) {
			body[corrupt] ^= 0x01
		}
		w.Header().Set("Content-Length", strconv.FormatInt(m.Size, 10))
		w.Write(body)
	})
}

func TestCorruptByteCountsAsFailed(t *testing.T) {
	c, err := proxy.BuildCatalog(4, 64, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.Get(2)
	for _, tc := range []struct {
		name    string
		corrupt int64
		limit   int64
		ok      bool
	}{
		{"intact", -1, 0, true},
		{"corrupt last byte", m.Size - 1, 0, false},
		{"corrupt first byte", 0, 0, false},
		{"abandoned before the corrupt byte", m.Size - 1, m.Size / 2, true},
		{"abandoned after the corrupt byte", 10, m.Size / 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := listen()
			if err != nil {
				t.Fatal(err)
			}
			srv.serve(serveContent(c, tc.corrupt))
			defer srv.close()
			e := &liveEnv{
				catalog:  c,
				content:  map[int][]byte{2: proxy.Content(2, 0, m.Size)},
				proxySrv: srv,
				client:   &http.Client{Transport: &http.Transport{}},
			}
			r := e.fetch(2, tc.limit, time.Now(), make([]byte, 4096))
			if r.ok != tc.ok {
				t.Fatalf("ok = %v (err %v), want %v", r.ok, r.err, tc.ok)
			}
			if !tc.ok && !errors.Is(r.err, errMismatch) {
				t.Fatalf("err = %v, want a content mismatch", r.err)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload declarations in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
