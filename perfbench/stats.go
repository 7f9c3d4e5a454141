package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place, and an error unless at least minTail samples lie beyond it.
func quantile(xs []float64, q float64, minTail int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-rank, minTail)
	}
	return xs[rank-1], nil
}

func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5, 0)
	return v
}

// Runtime counters the benchmark samples (runtime/metrics names).
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

// readRuntime reads the named uint64 runtime metrics.
func readRuntime(names ...string) map[string]uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make(map[string]uint64, len(names))
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			out[x.Name] = x.Value.Uint64()
		}
	}
	return out
}

// gcSnap is the garbage collector's work so far.
type gcSnap struct {
	cycles  uint64
	pauseNs uint64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{cycles: readRuntime(mGCCycles)[mGCCycles], pauseNs: ms.PauseTotalNs}
}

// timeAllocs runs fn n times and returns its mean time and heap
// allocations per call, like testing.AllocsPerRun.
func timeAllocs(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}
