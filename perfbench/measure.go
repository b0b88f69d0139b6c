package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// fewer make the tail a handful of individual samples, not a statistic.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs, and false
// when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, false
	}
	s := sorted(xs)
	return s[rank-1], true
}

// tail returns the highest whole percentile up to want that percentile
// supports, with its value; p is 0 when not even the median is.
func tail(xs []float64, want int) (p int, v float64) {
	for p = want; p >= 50; p-- {
		if v, ok := percentile(xs, float64(p)); ok {
			return p, v
		}
	}
	return 0, 0
}

// window is the length of the slices a run's requests are grouped into
// by start time. A timing is computed per slice and the median slice is
// reported, so a stall or a burst of hypervisor CPU steal moves the
// slices it falls in and not the figure.
const window = 2 * time.Second

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, 0 when b is 0 (a quantity the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler records the highest live heap (as marked by the last
// garbage collection) in each window of a phase while it runs.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	start time.Time
	peaks []uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), start: time.Now()}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	k := int(time.Since(h.start) / window)
	for len(h.peaks) <= k {
		h.peaks = append(h.peaks, 0)
	}
	h.peaks[k] = max(h.peaks[k], liveHeap())
}

// peakMB stops the sampler and returns the median over the windows of
// the highest live heap each saw: the peak a steady run holds, which
// one late collection in one window does not move.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	xs := make([]float64, len(h.peaks))
	for k, p := range h.peaks {
		xs[k] = float64(p) / (1 << 20)
	}
	return median(xs)
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuClock reads the process's total and garbage-collector CPU time.
func cpuClock() (total, gc float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// allocated returns the bytes allocated on the heap so far. It stops the
// world, so it is read only around calls that take far longer.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// stolen returns the CPU time the hypervisor gave to other guests, summed
// over all CPUs, from the steal column of /proc/stat; 0 where the file is
// missing.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100) // USER_HZ
}
