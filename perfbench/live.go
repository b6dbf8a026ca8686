package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamcache/internal/proxy"
)

// The live workloads run origins, the proxy and the load generator in
// this one process, on ephemeral 127.0.0.1 listeners. Traffic crosses
// the host loopback, not a real link.

// server is one in-process HTTP server on an ephemeral loopback port.
type server struct {
	srv      *http.Server
	ln       net.Listener
	url      string
	newConns atomic.Int64 // connections accepted
	done     chan struct{}
}

// listen reserves the port; serve starts answering on it. They are
// separate because the catalog must name origin URLs before the origin
// handlers, which need the catalog, exist.
func listen() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &server{ln: ln, url: "http://" + ln.Addr().String(), done: make(chan struct{})}, nil
}

func (s *server) serve(h http.Handler) {
	s.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.newConns.Add(1)
			}
		},
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(s.ln) // returns http.ErrServerClosed on close
	}()
}

func (s *server) close() {
	if s.srv == nil {
		s.ln.Close()
		return
	}
	s.srv.Close()
	<-s.done
}

// liveEnv is one deployment: origins, the proxy, their servers, the
// expected content of every object, and the tracing hooks.
type liveEnv struct {
	catalog    *proxy.Catalog
	ids        []int
	content    map[int][]byte // every object's bytes, generated at set-up
	px         *proxy.Proxy
	cacheBytes int64
	proxySrv   *server
	origins    []*server
	rates      []float64 // configured path rate per origin, bytes/s (0 = unconstrained)
	client     *http.Client
	transport  *http.Transport

	originFetches atomic.Int64

	// traceEvery traces one request in this many (0 or 1: all), so a
	// traced phase of a fast workload keeps a trace of manageable size.
	traceEvery int64
	tr         atomic.Pointer[tracer]
	mu         sync.Mutex
	open       map[int][]int     // object ID -> proxy spans in progress
	reqs       map[int]*reqTrace // proxy span -> what the handler saw
	seqID      atomic.Int64
}

// reqTrace is what the traced proxy handler saw of one request.
type reqTrace struct {
	firstWrite int64 // tracer time of the first body write, -1 if none
	fullHit    bool  // whole object served from the cached prefix
}

// newLiveEnv wires origins (one per rate) and a proxy over catalog. The
// caller has already reserved the origin listeners named by the catalog.
func newLiveEnv(catalog *proxy.Catalog, origins []*server, rates []float64, cfg proxy.Config) (*liveEnv, error) {
	e := &liveEnv{
		catalog:    catalog,
		ids:        catalog.IDs(),
		content:    map[int][]byte{},
		origins:    origins,
		rates:      rates,
		cacheBytes: cfg.CacheBytes,
		open:       map[int][]int{},
		reqs:       map[int]*reqTrace{},
	}
	for _, id := range e.ids {
		m, _ := catalog.Get(id)
		e.content[id] = proxy.Content(id, 0, m.Size)
	}
	for i, o := range origins {
		h, err := proxy.NewOrigin(catalog, rates[i])
		if err != nil {
			return nil, err
		}
		o.serve(e.originHandler(h))
	}
	px, err := proxy.New(cfg)
	if err != nil {
		return nil, err
	}
	e.px = px
	ps, err := listen()
	if err != nil {
		return nil, err
	}
	e.proxySrv = ps
	ps.serve(http.HandlerFunc(e.proxyHandler))
	// One keep-alive connection per load goroutine.
	e.transport = &http.Transport{
		MaxIdleConnsPerHost: loadConns,
		MaxConnsPerHost:     loadConns,
		DisableCompression:  true,
	}
	e.client = &http.Client{Transport: e.transport}
	return e, nil
}

// closeAll shuts every server down and drops idle client connections.
func (e *liveEnv) closeAll() {
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.proxySrv != nil {
		e.proxySrv.close()
	}
	for _, o := range e.origins {
		o.close()
	}
}

// originConns counts the connections the origins have accepted.
func (e *liveEnv) originConns() int64 {
	var n int64
	for _, o := range e.origins {
		n += o.newConns.Load()
	}
	return n
}

// closeServers releases reserved origin listeners when set-up fails
// before newLiveEnv owns them.
func closeServers(ss []*server) {
	for _, s := range ss {
		s.close()
	}
}

// proxyHandler serves through the proxy; for a request the client
// traces it records a span, the first body write, and whether the
// request was a full-prefix hit.
func (e *liveEnv) proxyHandler(w http.ResponseWriter, r *http.Request) {
	tr := e.tr.Load()
	ridHeader := r.Header.Get("X-Request-Id")
	if tr == nil || ridHeader == "" {
		e.px.ServeHTTP(w, r)
		return
	}
	rid, _ := strconv.ParseInt(ridHeader, 10, 64)
	parent, err := strconv.Atoi(r.Header.Get("X-Parent-Span"))
	if err != nil {
		parent = -1
	}
	id, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/objects/"))
	sp := tr.begin("proxy.ServeHTTP", parent, rid)
	rt := &reqTrace{firstWrite: -1}
	e.mu.Lock()
	e.open[id] = append(e.open[id], sp)
	e.reqs[sp] = rt
	e.mu.Unlock()
	tw := &tracedWriter{ResponseWriter: w, tr: tr, rt: rt}
	e.px.ServeHTTP(tw, r)
	e.mu.Lock()
	spans := e.open[id]
	for i, s := range spans {
		if s == sp {
			e.open[id] = append(spans[:i:i], spans[i+1:]...)
			break
		}
	}
	if m, ok := e.catalog.Get(id); ok {
		rt.fullHit = w.Header().Get("X-Cache") == "HIT-PREFIX; bytes="+strconv.FormatInt(m.Size, 10)
	}
	e.mu.Unlock()
	tr.end(sp)
}

// originHandler counts origin fetches and, while tracing, records a span
// per fetch whose parent is the earliest proxy span of the same object
// in progress when the fetch started.
func (e *liveEnv) originHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.originFetches.Add(1)
		tr := e.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/objects/"))
		parent := -1
		e.mu.Lock()
		if open := e.open[id]; len(open) > 0 {
			parent = open[0]
		}
		e.mu.Unlock()
		sp := tr.begin("origin.ServeHTTP", parent, 0)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// tracedWriter notes the time of the first body write.
type tracedWriter struct {
	http.ResponseWriter
	tr *tracer
	rt *reqTrace
}

func (t *tracedWriter) Write(p []byte) (int, error) {
	if t.rt.firstWrite < 0 && len(p) > 0 {
		t.rt.firstWrite = t.tr.now()
	}
	return t.ResponseWriter.Write(p)
}

func (t *tracedWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// snapshot reads the proxy's counters, inside a span while tracing.
func (e *liveEnv) snapshot() proxy.Stats {
	tr := e.tr.Load()
	sp := tr.begin("proxy.Snapshot", -1, 0)
	s := e.px.Snapshot()
	tr.end(sp)
	return s
}

// fetchResult is one client request as the load generator saw it.
type fetchResult struct {
	bytes    int64
	hitBytes int64
	ok       bool
	// startup is the smallest playout start, measured from the request's
	// due time, at which playback at the object's rate never stalls.
	startup time.Duration
	elapsed time.Duration // due time to last byte read
	err     error
}

var errMismatch = errors.New("payload differs from the object's content")

// fetch GETs object id and byte-compares every byte read with the
// object's content. limit > 0 reads only that many bytes and then hangs
// up, as an abandoning viewer does. Times are measured from due.
func (e *liveEnv) fetch(id int, limit int64, due time.Time, buf []byte) fetchResult {
	meta, _ := e.catalog.Get(id)
	want := meta.Size
	if limit > 0 && limit < want {
		want = limit
	}
	req, err := http.NewRequest(http.MethodGet, e.proxySrv.url+"/objects/"+strconv.Itoa(id), nil)
	if err != nil {
		return fetchResult{err: err}
	}
	rid := e.seqID.Add(1)
	tr := e.tr.Load()
	if e.traceEvery > 1 && rid%e.traceEvery != 0 {
		tr = nil
	}
	sp := tr.begin("client.GET", -1, rid)
	defer tr.end(sp)
	if tr != nil {
		req.Header.Set("X-Request-Id", strconv.FormatInt(rid, 10))
		req.Header.Set("X-Parent-Span", strconv.Itoa(sp))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return fetchResult{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != meta.Size {
		return fetchResult{err: fmt.Errorf("status %s, length %d for object %d of %d bytes", resp.Status, resp.ContentLength, id, meta.Size)}
	}
	cached := proxy.FetchResult{CacheState: resp.Header.Get("X-Cache")}
	res := fetchResult{hitBytes: cached.HitBytes()}
	expect := e.content[id]
	var worst time.Duration
	for res.bytes < want {
		chunk := buf
		if rest := want - res.bytes; rest < int64(len(chunk)) {
			chunk = chunk[:rest]
		}
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			if !bytes.Equal(chunk[:n], expect[res.bytes:res.bytes+int64(n)]) {
				res.err = errMismatch
				return res
			}
			res.bytes += int64(n)
			// Byte res.bytes-1 plays at res.bytes/rate after the start;
			// it arrived now, so the start can be no earlier than this.
			at := time.Since(due) - time.Duration(float64(res.bytes)/meta.Rate*float64(time.Second))
			if at > worst {
				worst = at
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			res.err = rerr
			return res
		}
	}
	res.elapsed = time.Since(due)
	if res.bytes != want {
		res.err = fmt.Errorf("object %d: read %d of %d bytes", id, res.bytes, want)
		return res
	}
	if want == meta.Size {
		// Drain the zero-length tail so the connection is reused.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			res.err = err
			return res
		}
	}
	res.startup = max(worst, 0)
	res.ok = true
	if res.hitBytes > res.bytes {
		res.hitBytes = res.bytes
	}
	return res
}

// checkInvariants waits for the proxy to go idle and checks that no
// relay leaked and that every object's stored prefix equals the cache's
// accounting.
func (e *liveEnv) checkInvariants() error {
	done := make(chan struct{})
	go func() {
		e.px.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return errors.New("proxy did not quiesce within 60s")
	}
	if n := e.px.InflightRelays(); n != 0 {
		return fmt.Errorf("%d relays in flight after quiesce", n)
	}
	for _, id := range e.ids {
		if s, a := e.px.StoredBytes(id), e.px.AccountedBytes(id); s != a {
			return fmt.Errorf("object %d: stored %d bytes, cache accounts %d", id, s, a)
		}
	}
	return nil
}

// installTracer starts (tr non-nil) or stops span recording. Stopping
// keeps what the handlers recorded for the phase's span analysis.
func (e *liveEnv) installTracer(tr *tracer) {
	if tr != nil {
		e.mu.Lock()
		e.open = map[int][]int{}
		e.reqs = map[int]*reqTrace{}
		e.mu.Unlock()
	}
	e.tr.Store(tr)
}

// liveSpanLayers derives the proxy, origin and client layer metrics of a
// traced live phase from its spans.
func liveSpanLayers(e *liveEnv, tr *tracer, layer map[string]float64) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	e.mu.Lock()
	reqs := e.reqs
	e.mu.Unlock()

	handler := map[int64]int{} // request id -> proxy span
	var hitUS, relayMS, firstUS, selfUS, originMS, waitMS, overheadUS []float64
	firstOrigin := map[int]int64{} // proxy span -> start of its first origin child
	for i, s := range spans {
		switch s.Name {
		case "proxy.ServeHTTP":
			handler[s.RID] = i
			selfUS = append(selfUS, float64(self[i])/1e3)
			rt := reqs[i]
			if rt == nil {
				continue
			}
			if rt.firstWrite >= 0 {
				firstUS = append(firstUS, float64(rt.firstWrite-s.Start)/1e3)
			}
			if rt.fullHit {
				hitUS = append(hitUS, float64(s.dur())/1e3)
			} else {
				relayMS = append(relayMS, float64(s.dur())/1e6)
			}
		case "origin.ServeHTTP":
			originMS = append(originMS, float64(s.dur())/1e6)
			if s.Parent >= 0 {
				if t, ok := firstOrigin[s.Parent]; !ok || s.Start < t {
					firstOrigin[s.Parent] = s.Start
				}
			}
		}
	}
	for p, t := range firstOrigin {
		waitMS = append(waitMS, float64(t-spans[p].Start)/1e6)
	}
	for _, s := range spans {
		if s.Name != "client.GET" {
			continue
		}
		if h, ok := handler[s.RID]; ok {
			overheadUS = append(overheadUS, float64(s.dur()-spans[h].dur())/1e3)
		}
	}
	pct := func(xs []float64, p float64) float64 {
		v, _ := percentile(sorted(xs), p)
		return v
	}
	layer["proxy.hit_serve_us.p50"] = pct(hitUS, 50)
	layer["proxy.hit_serve_us.p99"] = pct(hitUS, 99)
	layer["proxy.first_write_us.p50"] = pct(firstUS, 50)
	layer["proxy.relay_serve_ms.p50"] = pct(relayMS, 50)
	layer["proxy.relay_serve_ms.p90"] = pct(relayMS, 90)
	layer["proxy.self_us_per_req"] = mean(selfUS)
	layer["origin.serve_ms.p50"] = pct(originMS, 50)
	layer["upstream.wait_ms.p50"] = pct(waitMS, 50)
	layer["client.overhead_us.p50"] = pct(overheadUS, 50)
}
