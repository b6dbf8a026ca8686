package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples strictly beyond it.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// tailLadder lists the percentiles tail reports, highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// tail picks the highest percentile of tailLadder that has at least ten
// samples beyond it, so a reported tail is never a single outlier. It
// returns the percentile, its value and the count of samples beyond it;
// ok is false when even the median has fewer than ten beyond.
func tail(sorted []float64) (p, value float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if v, b := percentile(sorted, p); b >= 10 {
			return p, v, b, true
		}
	}
	return 0, 0, 0, false
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// usage is a snapshot of the process's CPU time and peak resident set.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

// readMem reads the Go heap's cumulative allocation and GC counters.
func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, maxRSS: ru.Maxrss * 1024} // Linux reports KiB
}
