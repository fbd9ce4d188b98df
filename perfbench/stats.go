package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapBytes is the live heap right after a collection.
func heapBytes() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// processCounts reads the process's CPU time (rusage) and the Go
// runtime's allocation and GC CPU counters.
func processCounts() counts {
	c := counts{}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c["proc.cpu_s"] = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	c["proc.alloc_bytes"] = sampleValue(samples[0])
	c["proc.gc_cpu_s"] = sampleValue(samples[1])
	c["proc.total_cpu_s"] = sampleValue(samples[2])
	return c
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// calibrate times a fixed CPU-bound loop (a SHA-256 chain), the median
// of several repetitions in µs. Read beside the workload's figures, it
// tells a slower program from a slower host.
func calibrate() float64 {
	xs := make([]float64, 15)
	h := sha256.Sum256(nil)
	for i := range xs {
		t := time.Now()
		for j := 0; j < 2000; j++ {
			h = sha256.Sum256(h[:])
		}
		xs[i] = float64(time.Since(t)) / 1e3
	}
	return median(xs)
}
