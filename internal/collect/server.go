// Package collect is the streaming results plane of sharded sweeps: an
// HTTP collector service that shards push completed rows and refinement
// metrics to as they finish, replacing the per-shard-files-plus-offline-
// merge workflow with one process that holds the canonical result set
// live. It carries two kinds of traffic:
//
//   - Rows. Every engine-emitted row (global index, payload, optional
//     refinement metric) is appended to the shard's local record log and
//     pushed in the background; the collector folds them into an
//     in-memory experiments.Journal — the same decoder and duplicate
//     rule as journal resume and figures -merge — and writes the
//     canonical CSV files once every shard reports done, byte-identical
//     to a single-process run.
//
//   - Metrics. A shard refining adaptively needs the metrics of points
//     other shards own. Client.ForeignMetric long-polls the collector,
//     which answers as soon as the owning shard's push lands, so each
//     shard simulates only its owned points per refinement round
//     (O(total/N) instead of O(total) simulations per shard).
//
// The transport is JSONL over HTTP with per-shard sequence numbers
// within a session: a reconnecting shard re-registers via /v1/hello and
// replays its whole log, which the duplicate rule makes idempotent — a
// shard killed mid-push resumes (engine journal replay repopulates its
// log) with no duplicated and no lost rows. Exactness note: metrics cross
// the wire as JSON float64 numbers, which Go round-trips bit-exactly
// (strconv shortest representation), so refinement decisions taken on
// fetched metrics are identical to local evaluation — the collector is
// purely a compute optimization, never a correctness dependency, and
// every failure mode degrades to local evaluation plus the journal.
package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"streamcache/internal/experiments"
)

// shardState tracks one shard's push session.
type shardState struct {
	accepted int // records accepted this session; the next expected seq
	done     bool
}

// Server is the collector: an http.Handler accumulating pushed records
// in an in-memory experiments.Journal and answering metric long-polls.
// The canonical files are written by WriteTables once every shard is
// done.
type Server struct {
	mu          sync.Mutex
	cond        *sync.Cond
	fingerprint string // stamped by the first hello; later hellos must match
	expected    int    // shard count; 0 until configured or first hello
	shards      map[int]*shardState
	results     *experiments.Journal
	done        chan struct{}
}

// NewServer builds a collector expecting the given shard count
// (0 = adopt the count announced by the first hello).
func NewServer(expectedShards int) *Server {
	s := &Server{
		expected: expectedShards,
		shards:   map[int]*shardState{},
		results:  experiments.NewJournal(),
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Done is closed once every expected shard has reported done.
func (s *Server) Done() <-chan struct{} { return s.done }

// Handler returns the collector's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/hello", s.handleHello)
	mux.HandleFunc("POST /v1/push", s.handlePush)
	mux.HandleFunc("POST /v1/done", s.handleDone)
	mux.HandleFunc("GET /v1/metric", s.handleMetric)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	return mux
}

func intParam(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing %s", name)
	}
	return strconv.Atoi(v)
}

// handleHello registers (or re-registers) a shard, resetting its push
// session so a reconnect replays its record log from sequence zero.
func (s *Server) handleHello(w http.ResponseWriter, r *http.Request) {
	shard, err := intParam(r, "shard")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	count, err := intParam(r, "count")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := r.URL.Query().Get("fingerprint")

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.expected == 0 {
		s.expected = count
	}
	if count != s.expected {
		http.Error(w, fmt.Sprintf("collector expects %d shards, shard announced %d", s.expected, count), http.StatusConflict)
		return
	}
	if shard < 0 || shard >= s.expected {
		http.Error(w, fmt.Sprintf("shard %d out of range 0..%d", shard, s.expected-1), http.StatusBadRequest)
		return
	}
	if s.fingerprint == "" {
		s.fingerprint = fp
	}
	// The empty fingerprint is a wildcard: live producers (loadgen) have
	// no sweep scale. Non-empty fingerprints must agree — mixing scales
	// would silently interleave incompatible sweeps.
	if fp != "" && fp != s.fingerprint {
		http.Error(w, fmt.Sprintf("collector holds fingerprint %q, shard sent %q", s.fingerprint, fp), http.StatusConflict)
		return
	}
	s.shards[shard] = &shardState{}
	w.WriteHeader(http.StatusOK)
}

// handlePush accepts a batch of JSONL records at the shard's next
// sequence number. Batches at or below the accepted sequence replay
// records the journal already holds, which its duplicate rule makes
// idempotent; a batch beyond it means lost traffic, answered with 409
// so the client re-hellos and replays its whole log. A record that
// contradicts a held one is refused with 409 too, a malformed one with
// 400.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	shard, err := intParam(r, "shard")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	seq, err := intParam(r, "seq")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > 0 && body[len(body)-1] != '\n' {
		body = append(body, '\n') // the last record of a push is complete
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.shards[shard]
	if ss == nil {
		http.Error(w, "unknown shard: hello first", http.StatusConflict)
		return
	}
	if seq > ss.accepted {
		http.Error(w, fmt.Sprintf("sequence gap: got %d, accepted %d", seq, ss.accepted), http.StatusConflict)
		return
	}
	n, err := s.results.Load(bytes.NewReader(body))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, experiments.ErrRecordConflict) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	if end := seq + n; end > ss.accepted {
		ss.accepted = end
	}
	s.cond.Broadcast()
	w.WriteHeader(http.StatusOK)
}

// handleDone marks a shard finished; when the last expected shard
// reports, Done() closes.
func (s *Server) handleDone(w http.ResponseWriter, r *http.Request) {
	shard, err := intParam(r, "shard")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss := s.shards[shard]
	if ss == nil {
		http.Error(w, "unknown shard: hello first", http.StatusConflict)
		return
	}
	ss.done = true
	if s.expected > 0 && len(s.shards) == s.expected {
		all := true
		for _, st := range s.shards {
			all = all && st.done
		}
		if all {
			select {
			case <-s.done:
			default:
				close(s.done)
			}
		}
	}
	w.WriteHeader(http.StatusOK)
}

// handleMetric answers one metric long-poll: it blocks up to wait_ms
// for the keyed metric to arrive (from the owning shard's push),
// returning 204 on timeout. The requesting shard falls back to local
// evaluation on timeout, so a slow or dead peer costs time, never
// correctness.
func (s *Server) handleMetric(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	index, err := intParam(r, "index")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	waitMS, _ := strconv.Atoi(r.URL.Query().Get("wait_ms"))
	if waitMS < 0 {
		waitMS = 0
	}
	if waitMS > 30_000 {
		waitMS = 30_000
	}
	m, ok := s.waitMetric(table, index, time.Duration(waitMS)*time.Millisecond)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Metric float64 `json:"metric"`
	}{m})
}

// waitMetric blocks until the metric at (table, index) is known or wait
// elapses.
func (s *Server) waitMetric(table string, index int, wait time.Duration) (float64, bool) {
	deadline := time.Now().Add(wait)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if m, ok := s.results.Metric(table, index); ok {
			return m, true
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return 0, false
		}
		timer := time.AfterFunc(remaining, s.cond.Broadcast)
		s.cond.Wait()
		timer.Stop()
	}
}

// handleStatus reports shard sessions and per-table progress.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	type shardStatus struct {
		Shard    int  `json:"shard"`
		Accepted int  `json:"accepted"`
		Done     bool `json:"done"`
	}
	var out struct {
		Expected int                         `json:"expected_shards"`
		Shards   []shardStatus               `json:"shards"`
		Tables   []experiments.TableProgress `json:"tables"`
	}
	s.mu.Lock()
	out.Expected = s.expected
	for i, ss := range s.shards {
		out.Shards = append(out.Shards, shardStatus{Shard: i, Accepted: ss.accepted, Done: ss.done})
	}
	s.mu.Unlock()
	slices.SortFunc(out.Shards, func(a, b shardStatus) int { return a.Shard - b.Shard })
	out.Tables = s.results.Tables()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// WriteTables renders every collected table to dir as its canonical CSV
// — the same preamble, header, and index-ordered rows a single-process
// sweep streams, so the bytes are identical. A table with index gaps is
// refused, not silently truncated: the caller falls back to merging the
// per-shard outputs.
func (s *Server) WriteTables(dir string) error {
	s.mu.Lock()
	ready := s.expected > 0 && len(s.shards) == s.expected
	for _, ss := range s.shards {
		ready = ready && ss.done
	}
	s.mu.Unlock()
	if !ready {
		// A shard that shed rows never reports done (its Close errors),
		// and its missing tail is a contiguous prefix cut — invisible to
		// the journal's gap check — so done-ness is the gate.
		return fmt.Errorf("collect: not every shard has reported done; refusing to write partial tables")
	}
	for _, t := range s.results.Tables() {
		if t.File == "" {
			return fmt.Errorf("collect: table %q was declared without an output file stem", t.Name)
		}
		path := filepath.Join(dir, t.File+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.results.WriteTable(t.Name, experiments.NewCSVSink(f)); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("collect: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
