package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
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

// mean returns the mean of xs (0 for none).
func mean(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return ratio(total, float64(len(xs)), 0)
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// durations, in microseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return float64(s[rank-1]) / float64(time.Microsecond)
}

// ratio returns num/den, or vacuous when den is 0 — the convention of
// eval.PRF, under which a score over nothing is 1.
func ratio(num, den, vacuous float64) float64 {
	if den == 0 {
		return vacuous
	}
	return num / den
}

// heapPeak samples heap in use (runtime.MemStats.HeapInuse: spans
// holding objects, live or awaiting collection) on its own goroutine
// until Stop. runtime/metrics reads it without stopping the world.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// startHeapPeak collects garbage, so every timed phase starts from the
// same heap, and starts sampling every 2 ms.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64()+sample[1].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters is a reading of the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// setRuntime reports the runtime's work between two readings.
func setRuntime(m metricSet, before, after runtimeCounters) {
	m.set("runtime.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20), "MB")
	m.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), "count")
	m.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU, 0), "ratio")
}
