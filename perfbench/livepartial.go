package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamcache/internal/core"
	"streamcache/internal/dist"
	"streamcache/internal/proxy"
)

// live-partial: the paper's scenario. Objects are spread over origins
// whose paths are slower than, faster than, or unconstrained relative
// to the playback rate; PB caches the prefix each constrained object
// needs in a cache of 5% of the catalog. Sessions arrive open loop at
// one fixed rate, about a seventh of what loadConns connections sustain
// when saturated, and a share of viewers abandons early. Set-up plays
// partialWarm of arrivals to warm the cache and the estimators; they are
// not measured. Latency is the startup delay from each session's due
// time, so a stalled generator shows up in it.
//
// Objects are short (about 94 ms of playback on average) so that a
// 25-second phase holds 100 sessions, enough for a p90 with ten samples
// beyond it. The catalog and the session mix (how often each object is
// watched and how much of it) are fixed by the configuration; the seed
// draws the order of the sessions and their arrival times. With the mix
// left to chance, the few most popular objects' draws would dominate
// the run-to-run spread.
const (
	partialObjects     = 120
	partialMeanKB      = 96
	partialRateKBps    = 1024 // playback rate of every object
	partialCatalogSeed = 1
	partialShards      = 2
	partialCacheFrac   = 0.05
	partialZipfAlpha   = 0.73
	partialAbandon     = 0.3 // share of sessions that stop early
	partialMinView     = 0.05
	partialRate        = 4.0 // offered sessions per second
	partialWarm        = 4 * time.Second
	partialSLO         = 100 * time.Millisecond // startup-delay limit for slo_miss_frac
)

// partialPaths are the origin path rates as multiples of the playback
// rate; 0 is unconstrained. Object i is stored on origin i mod len.
var partialPaths = []float64{0.25, 0.5, 1.5, 0}

// session is one scheduled viewing.
type session struct {
	due   time.Duration // since the start of the schedule
	id    int
	limit int64 // bytes watched; the object's size for a full view
}

// sessionMix returns the n sessions of a phase, without due times: each
// object appears as often as Zipf(partialZipfAlpha) popularity gives it
// (largest remainders round), and a partialAbandon share of them, spread
// evenly over the popularity order, watch a fraction in
// [partialMinView, 1) taken from a low-discrepancy sequence.
func sessionMix(n int, catalog *proxy.Catalog) ([]session, error) {
	ids := catalog.IDs()
	z, err := dist.NewZipf(len(ids), partialZipfAlpha)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(ids))
	rem := make([]int, len(ids))
	left := n
	for r := range ids {
		exact := float64(n) * z.P(r+1)
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
	}
	sort.SliceStable(rem, func(a, b int) bool {
		fa := float64(n)*z.P(rem[a]+1) - float64(counts[rem[a]])
		fb := float64(n)*z.P(rem[b]+1) - float64(counts[rem[b]])
		return fa > fb
	})
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	out := make([]session, 0, n)
	abandoned := 0
	for r, id := range ids {
		m, _ := catalog.Get(id)
		for k := 0; k < counts[r]; k++ {
			s := session{id: id, limit: m.Size}
			j := len(out)
			if int(float64(j+1)*partialAbandon) > int(float64(j)*partialAbandon) {
				abandoned++
				frac := partialMinView + (1-partialMinView)*math.Mod(float64(abandoned)*0.6180339887498949, 1)
				s.limit = int64(math.Ceil(frac * float64(m.Size)))
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// buildSchedule returns the sessions due in [0, span) at the offered
// rate: the fixed mix in seeded order, one arrival at a uniformly drawn
// instant inside each 1/rate slot. Unlike Poisson arrivals these cannot
// bunch up behind the load generator's few connections: with Poisson
// arrivals the wait for a free connection, which is the harness's and
// not the proxy's, moved the mean startup of a run by up to a third.
// The same arguments always give the same schedule.
func buildSchedule(seed int64, span time.Duration, rate float64, catalog *proxy.Catalog) ([]session, error) {
	n := int(math.Round(rate * span.Seconds()))
	out, err := sessionMix(n, catalog)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	slot := float64(span) / float64(n)
	for i := range out {
		out[i].due = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	return out, nil
}

type livePartialBench struct {
	env   *liveEnv
	seed  int64
	phase int // schedules already run; each draws its own stream
}

func setupLivePartial(seed int64, _ string) (bench, error) {
	origins := make([]*server, len(partialPaths))
	rates := make([]float64, len(partialPaths))
	for i := range origins {
		o, err := listen()
		if err != nil {
			closeServers(origins[:i])
			return nil, err
		}
		origins[i] = o
		rates[i] = partialPaths[i] * partialRateKBps * 1024
	}
	base, err := proxy.BuildCatalog(partialObjects, partialMeanKB, partialRateKBps, partialCatalogSeed)
	if err != nil {
		closeServers(origins)
		return nil, err
	}
	var metas []proxy.Meta
	var total int64
	for _, id := range base.IDs() {
		m, _ := base.Get(id)
		m.Origin = origins[id%len(origins)].url
		metas = append(metas, m)
		total += m.Size
	}
	catalog, err := proxy.NewCatalog(metas)
	if err != nil {
		closeServers(origins)
		return nil, err
	}
	env, err := newLiveEnv(catalog, origins, rates, proxy.Config{
		Catalog:    catalog,
		OriginURL:  origins[len(origins)-1].url,
		Shards:     partialShards,
		CacheBytes: int64(float64(total) * partialCacheFrac),
		NewPolicy:  core.NewPB,
	})
	if err != nil {
		closeServers(origins)
		return nil, err
	}
	b := &livePartialBench{env: env, seed: seed}
	warm, err := b.nextSchedule(partialWarm)
	if err != nil {
		b.close()
		return nil, err
	}
	outs := b.drive(warm)
	for _, o := range outs {
		if !o.ok {
			b.close()
			return nil, fmt.Errorf("warm-up session for object %d: %v", o.id, o.err)
		}
	}
	if err := env.checkInvariants(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *livePartialBench) close() { b.env.closeAll() }

// nextSchedule draws the next phase's schedule from its own stream of
// the workload seed.
func (b *livePartialBench) nextSchedule(span time.Duration) ([]session, error) {
	b.phase++
	return buildSchedule(b.seed*7919+int64(b.phase), span, partialRate, b.env.catalog)
}

// sessionOut is one driven session.
type sessionOut struct {
	fetchResult
	session
	queueWait time.Duration // due until a connection was free
	lateness  time.Duration // generator's delay beyond that point
	done      time.Duration // completion, since the schedule start
}

// drive plays a schedule open loop over loadConns connections: each
// free connection takes the next session in due order, waits for its due
// time, and runs it.
func (b *livePartialBench) drive(sched []session) []sessionOut {
	outs := make([]sessionOut, len(sched))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < loadConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				s := sched[i]
				due := start.Add(s.due)
				free := time.Now()
				if free.Before(due) {
					time.Sleep(due.Sub(free))
				}
				sent := time.Now()
				o := &outs[i]
				o.session = s
				if free.After(due) {
					o.queueWait = free.Sub(due)
					o.lateness = sent.Sub(free)
				} else {
					o.lateness = sent.Sub(due)
				}
				o.fetchResult = b.env.fetch(s.id, s.limit, due, buf)
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return outs
}

func (b *livePartialBench) measure(d time.Duration, tr *tracer) (*phase, error) {
	e := b.env
	sched, err := b.nextSchedule(d)
	if err != nil {
		return nil, err
	}
	e.installTracer(tr)
	before := e.snapshot()
	conns0 := e.proxySrv.newConns.Load()
	fetches0 := e.originFetches.Load()
	originConns0 := e.originConns()
	mem0 := readMem()
	cpu0 := readUsage().cpu
	outs := b.drive(sched)
	cpu := readUsage().cpu - cpu0
	mem1 := readMem()
	e.installTracer(nil)
	if err := e.checkInvariants(); err != nil {
		return nil, err
	}
	after := e.px.Snapshot()
	originConns := e.originConns()

	ph := &phase{cpu: cpu, layer: map[string]float64{}}
	var bytesOut, hitOut int64
	pathBytes := make([]int64, len(e.rates))
	var hitSessions, relayed, abandoned, slowMiss, pastBurst int
	var waits, late []float64
	for _, o := range outs {
		ph.attempted++
		m, _ := e.catalog.Get(o.id)
		if o.limit < m.Size {
			abandoned++
		}
		if !o.ok {
			ph.failed++
			slowMiss++
			ph.notes = append(ph.notes, fmt.Sprintf("FAILED session for object %d: %v", o.id, o.err))
			continue
		}
		ph.opMS = append(ph.opMS, float64(o.startup)/float64(time.Millisecond))
		if o.startup > partialSLO {
			slowMiss++
		}
		if o.done > ph.wall {
			ph.wall = o.done
		}
		bytesOut += o.bytes
		hitOut += o.hitBytes
		if o.hitBytes > 0 {
			hitSessions++
		}
		if o.bytes > o.hitBytes {
			relayed++
		}
		path := o.id % len(e.rates)
		pathBytes[path] += o.bytes
		// An origin sends the first 1/8 s of its path's bytes (at least
		// 4 KiB) unthrottled; only bytes past that wait on the path rate.
		if rate := e.rates[path]; rate > 0 && float64(o.bytes-o.hitBytes) > max(rate/8, 4096) {
			pastBurst++
		}
		waits = append(waits, float64(o.queueWait)/float64(time.Millisecond))
		late = append(late, float64(o.lateness)/float64(time.Millisecond))
	}
	n := float64(len(outs))
	done := float64(len(ph.opMS))
	st := sorted(ph.opMS)
	p90, beyond := percentile(st, 90)
	tp, tv, tb, _ := tail(st)
	ph.layer["live.startup_p90_ms"] = p90
	ph.layer["live.slo_miss_frac"] = float64(slowMiss) / n
	ph.layer["live.byte_hit_ratio"] = float64(hitOut) / float64(max(bytesOut, 1))
	ph.layer["live.goodput_mbps"] = float64(bytesOut) * 8 / 1e6 / ph.wall.Seconds()
	ph.layer["live.failed_frac"] = float64(ph.failed) / n
	reqs := float64(max(after.Requests-before.Requests, 1))
	ph.layer["proxy.prefix_hit_ratio"] = float64(after.PrefixHits-before.PrefixHits) / reqs
	ph.layer["proxy.coalesced_frac"] = float64(after.CoalescedRequests-before.CoalescedRequests) / reqs
	ph.layer["proxy.cache_used_frac"] = float64(after.UsedBytes) / float64(e.cacheBytes)
	fetches := float64(e.originFetches.Load() - fetches0)
	ph.layer["origin.fetches_per_req"] = fetches / n
	ph.layer["origin.new_conns_per_fetch"] = float64(originConns-originConns0) / math.Max(fetches, 1)
	ph.layer["client.conn_reuse_frac"] = 1 - float64(e.proxySrv.newConns.Load()-conns0)/n
	ph.layer["estimator.rel_error.mean"] = estimatorError(e, after)
	lw, _ := percentile(sorted(late), 90)
	qw, _ := percentile(sorted(waits), 90)
	ph.layer["gen.lateness_ms.p90"] = lw
	ph.layer["gen.queue_wait_ms.p90"] = qw
	if tr == nil {
		ph.layer["proxy.alloc_kb_per_req"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / n
		ph.layer["proxy.gc_per_kreq"] = float64(mem1.NumGC-mem0.NumGC) * 1000 / n
	}
	ph.notes = append(ph.notes, fmt.Sprintf(
		"live-partial: %d sessions (%d completed) in %.2fs; startup mean %.2f ms, p90 %.2f ms (%d beyond), tail p%g %.2f ms (%d beyond); over %v or failed %.3f",
		len(outs), int(done), ph.wall.Seconds(), mean(ph.opMS), p90, beyond, tp, tv, tb, partialSLO, ph.layer["live.slo_miss_frac"]))
	pathShare := make([]string, len(pathBytes))
	for i, b := range pathBytes {
		pathShare[i] = fmt.Sprintf("%gx %.3f", partialPaths[i], float64(b)/float64(max(bytesOut, 1)))
	}
	ph.notes = append(ph.notes, fmt.Sprintf(
		"live-partial shares of sessions: prefix-hit %.3f, relayed %.3f, abandoned %.3f, relayed past the origin burst on a throttled path %.3f; bytes by path rate (0x = unconstrained) %v; byte hit ratio %.3f",
		float64(hitSessions)/done, float64(relayed)/done, float64(abandoned)/n, float64(pastBurst)/done,
		pathShare, ph.layer["live.byte_hit_ratio"]))
	ph.notes = append(ph.notes, fmt.Sprintf(
		"live-partial generator: lateness mean %.2f ms, p90 %.2f ms; connection wait mean %.2f ms, p90 %.2f ms; connection reuse %.3f",
		mean(late), lw, mean(waits), qw, ph.layer["client.conn_reuse_frac"]))
	ph.notes = append(ph.notes, fmt.Sprintf("live-partial estimator: mean relative error %.3f over constrained paths; estimates %v B/s for configured %v B/s",
		ph.layer["estimator.rel_error.mean"], pathEstimates(e, after), e.rates))
	if tr != nil {
		liveSpanLayers(e, tr, ph.layer)
	}
	return ph, nil
}

// pathEstimates lists the proxy's estimate per origin, in origin order.
func pathEstimates(e *liveEnv, s proxy.Stats) []int64 {
	out := make([]int64, len(e.origins))
	for i, o := range e.origins {
		out[i] = s.EstimatesBps[o.url]
	}
	return out
}

// estimatorError is the mean relative error of the proxy's passive
// bandwidth estimate over the constrained paths it has observed.
func estimatorError(e *liveEnv, s proxy.Stats) float64 {
	var sum float64
	var n int
	for i, o := range e.origins {
		if e.rates[i] == 0 {
			continue
		}
		if est, ok := s.EstimatesBps[o.url]; ok {
			sum += math.Abs(float64(est)-e.rates[i]) / e.rates[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
