package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to describe a tail rather than a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// whether at least minBeyond samples lie strictly above its rank. xs need
// not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || p <= 0 || p > 1 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cpuTime returns the process's user+system CPU time so far (getrusage
// RUSAGE_SELF: every thread, so loopback servers and their in-process
// participants are charged together).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perUnit divides a CPU (or any) duration over units of work and returns
// it in the requested unit (time.Millisecond, time.Microsecond, ...).
// It is NaN when no unit completed, so a run that did no work cannot
// report a cost of zero.
func perUnit(d time.Duration, units int64, unit time.Duration) float64 {
	if units <= 0 {
		return math.NaN()
	}
	return float64(d) / float64(unit) / float64(units)
}

// stealSeconds reads the host's cumulative stolen CPU time from the
// aggregate "cpu" line of /proc/stat (field 8, in USER_HZ ticks). It
// returns NaN where the file is unreadable (not Linux, or a sandbox).
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		ticks, err := strconv.ParseFloat(fields[8], 64)
		if err != nil {
			return math.NaN()
		}
		return ticks / 100 // USER_HZ is 100 on every Linux ABI Go supports
	}
	return math.NaN()
}

// heapSampler tracks the peak live heap — the bytes the most recent GC
// found reachable — by polling runtime/metrics, which reads without
// stopping the world. Live bytes, unlike bytes in heap objects, do not
// swing with where a sample falls in the GC cycle, so the peak repeats
// from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		v := sample[0].Value.Uint64()
		h.mu.Lock()
		if v > h.peak {
			h.peak = v
		}
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// minOf and maxOf are the extremes of xs (±Inf when empty).
func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
