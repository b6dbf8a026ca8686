package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/dist"
	"streamcache/internal/proxy"
)

// loadConns bounds the load generator: at most this many goroutines and
// connections, the core count of the machine the bounds were set on.
const loadConns = 2

// live-hit: a closed loop of loadConns keep-alive clients requesting
// Zipf(0.73)-popular whole objects from a warmed catalog that fits the
// cache. IF caches whole objects, so after warm-up every request is a
// full-prefix hit: the proxy's read path with no origin, policy churn or
// relay. (PB would cache nothing here: an unconstrained path is faster
// than playback.) The catalog is fixed; the seed draws the request
// sequence.
const (
	hitObjects     = 200
	hitMeanKB      = 64
	hitRateKBps    = 256
	hitCatalogSeed = 1
	hitShards      = 2
	hitZipfAlpha   = 0.73
	hitSeqLen      = 1 << 16 // per-client request sequence, replayed cyclically
	hitTraceEvery  = 8       // a 25 s traced phase still records ~70k requests
)

type liveHitBench struct {
	env  *liveEnv
	seqs [][]int
}

func setupLiveHit(seed int64, _ string) (bench, error) {
	catalog, err := proxy.BuildCatalog(hitObjects, hitMeanKB, hitRateKBps, hitCatalogSeed)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, id := range catalog.IDs() {
		m, _ := catalog.Get(id)
		total += m.Size
	}
	origin, err := listen()
	if err != nil {
		return nil, err
	}
	env, err := newLiveEnv(catalog, []*server{origin}, []float64{0}, proxy.Config{
		Catalog:    catalog,
		OriginURL:  origin.url,
		Shards:     hitShards,
		CacheBytes: total + total/4,
		NewPolicy:  core.NewIF,
	})
	if err != nil {
		closeServers([]*server{origin})
		return nil, err
	}
	env.traceEvery = hitTraceEvery
	b := &liveHitBench{env: env}
	if err := b.warm(); err != nil {
		b.close()
		return nil, err
	}
	z, err := dist.NewZipf(hitObjects, hitZipfAlpha)
	if err != nil {
		b.close()
		return nil, err
	}
	for c := 0; c < loadConns; c++ {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		seq := make([]int, hitSeqLen)
		for i := range seq {
			seq[i] = env.ids[z.Sample(rng)-1]
		}
		b.seqs = append(b.seqs, seq)
	}
	return b, nil
}

// warm fetches every object once, which makes IF cache it whole, and
// checks that the whole catalog is then stored.
func (b *liveHitBench) warm() error {
	buf := make([]byte, 64<<10)
	for _, id := range b.env.ids {
		if r := b.env.fetch(id, 0, time.Now(), buf); !r.ok {
			return fmt.Errorf("warm object %d: %v", id, r.err)
		}
	}
	if err := b.env.checkInvariants(); err != nil {
		return err
	}
	for _, id := range b.env.ids {
		m, _ := b.env.catalog.Get(id)
		if got := b.env.px.StoredBytes(id); got != m.Size {
			return fmt.Errorf("object %d: %d of %d bytes cached after warm-up", id, got, m.Size)
		}
	}
	return nil
}

func (b *liveHitBench) close() { b.env.closeAll() }

func (b *liveHitBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	e := b.env
	e.installTracer(tr)
	before := e.snapshot()
	conns0 := e.proxySrv.newConns.Load()
	fetches0 := e.originFetches.Load()
	mem0 := readMem()
	cpu0 := readUsage().cpu

	type clientOut struct {
		lat               []float64
		bytes, hit        int64
		attempted, failed int64
		firstErr          error
	}
	outs := make([]clientOut, loadConns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.lat = make([]float64, 0, 1<<18)
			buf := make([]byte, 64<<10)
			seq := b.seqs[c]
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				o.attempted++
				r := e.fetch(seq[i%len(seq)], 0, t0, buf)
				if !r.ok {
					o.failed++
					if o.firstErr == nil {
						o.firstErr = r.err
					}
					continue
				}
				o.lat = append(o.lat, float64(r.elapsed)/float64(time.Millisecond))
				o.bytes += r.bytes
				o.hit += r.hitBytes
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := readUsage().cpu - cpu0
	mem1 := readMem()
	e.installTracer(nil)
	if err := e.checkInvariants(); err != nil {
		return nil, err
	}
	after := e.px.Snapshot()

	ph := &phase{wall: wall, cpu: cpu, layer: map[string]float64{}}
	var bytesOut, hitOut int64
	for _, o := range outs {
		ph.attempted += o.attempted
		ph.failed += o.failed
		ph.opMS = append(ph.opMS, o.lat...)
		bytesOut += o.bytes
		hitOut += o.hit
		if o.firstErr != nil {
			ph.notes = append(ph.notes, fmt.Sprintf("FAILED request: %v", o.firstErr))
		}
	}
	reqs := float64(len(ph.opMS))
	lat := sorted(ph.opMS)
	p50, _ := percentile(lat, 50)
	p99, beyond := percentile(lat, 99)
	tp, tv, tb, _ := tail(lat)
	ph.layer["live.resp_p50_ms"] = p50
	ph.layer["live.resp_p99_ms"] = p99
	ph.layer["live.goodput_mbps"] = float64(bytesOut) * 8 / 1e6 / wall.Seconds()
	ph.layer["live.byte_hit_ratio"] = float64(hitOut) / float64(max(bytesOut, 1))
	ph.layer["live.failed_frac"] = float64(ph.failed) / float64(max(ph.attempted, 1))
	ph.layer["proxy.prefix_hit_ratio"] = float64(after.PrefixHits-before.PrefixHits) / float64(max(after.Requests-before.Requests, 1))
	ph.layer["proxy.coalesced_frac"] = float64(after.CoalescedRequests-before.CoalescedRequests) / float64(max(after.Requests-before.Requests, 1))
	ph.layer["proxy.cache_used_frac"] = float64(after.UsedBytes) / float64(e.cacheBytes)
	ph.layer["client.conn_reuse_frac"] = 1 - float64(e.proxySrv.newConns.Load()-conns0)/reqs
	ph.layer["origin.fetches_per_req"] = float64(e.originFetches.Load()-fetches0) / reqs
	if tr == nil {
		ph.layer["proxy.alloc_kb_per_req"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / reqs
		ph.layer["proxy.gc_per_kreq"] = float64(mem1.NumGC-mem0.NumGC) * 1000 / reqs
	}
	ph.notes = append(ph.notes, fmt.Sprintf(
		"live-hit: %d requests in %.2fs, resp p50 %.4f ms, p99 %.4f ms (%d beyond), tail p%g %.4f ms (%d beyond), byte hit ratio %.4f, connection reuse %.5f",
		len(lat), wall.Seconds(), p50, p99, beyond, tp, tv, tb, ph.layer["live.byte_hit_ratio"], ph.layer["client.conn_reuse_frac"]))
	if tr != nil {
		liveSpanLayers(e, tr, ph.layer)
	}
	return ph, nil
}
