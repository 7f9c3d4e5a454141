package main

import (
	"fmt"
	"time"
)

// family describes how one client call's latency is reported: its
// metric prefix and unit. The median is a metric; the p95 (p99 has
// too few samples beyond it per slice) is printed as context: on the
// shared reference host it tripled for minutes at a time while the
// host was contended, which no bound of at most a quarter can hold
// (README.md).
type family struct {
	prefix string
	unit   string
	scale  time.Duration
}

var families = map[opType]family{
	opPush:  {"push", "us", time.Microsecond},
	opBatch: {"batch", "ms", time.Millisecond},
	opQuery: {"query", "us", time.Microsecond},
}

// Every figure is a median over slices of the run, so a burst of
// outside interference (CPU steal on a shared host) spoils a few
// slices, not the median. Rates are sliced by time, sliceWidth each;
// latencies by count, latencySlice consecutive calls per slice (per
// query shape, for queries): the fewest that leave 10 samples beyond
// the p95. Short slices matter: a burst long enough to fill 5% of a
// slice moves that slice's p95. Query medians use a quarter of that
// per shape, so that query-mix's 100 queries/s give seven slices in a
// 15-second window.
const (
	sliceWidth   = 2 * time.Second
	latencySlice = 200
)

// slices groups ops by the slice of the interval they started in; a
// phase shorter than one slice is one slice.
func slices(ops []op, iv interval) [][]op {
	w := int64(sliceWidth)
	n := int((iv.end - iv.start) / w)
	if n < 1 {
		n, w = 1, iv.end-iv.start+1
	}
	out := make([][]op, n)
	for _, o := range ops {
		if i := int((o.start - iv.start) / w); i >= 0 && i < n {
			out[i] = append(out[i], o)
		}
	}
	return out
}

// groups cuts ops into consecutive groups of n; the last group takes
// a remainder shorter than n.
func groups(ops []op, n int) [][]op {
	var out [][]op
	for len(ops) >= 2*n {
		out = append(out, ops[:n])
		ops = ops[n:]
	}
	return append(out, ops)
}

// latencySlices picks the calls a latency comes from, sliced for the
// q-quantile: the workload's own load in phase ph when the workload
// times that call, otherwise the probe.
func latencySlices(sp spec, all []op, t opType, ph int32, q float64) [][]op {
	if !hasCall(sp.timed, t) {
		ph = phProbe
	}
	var ops []op
	for _, o := range all {
		if o.typ == t && o.phase == ph && !o.failed {
			ops = append(ops, o)
		}
	}
	return groups(ops, sliceCalls(t, q))
}

// sliceCalls is the number of consecutive calls in one latency slice
// for the q-quantile.
func sliceCalls(t opType, q float64) int {
	switch {
	case t != opQuery:
		return latencySlice
	case q <= 0.5:
		return latencySlice / 4 * len(queryShapes)
	}
	return latencySlice * len(queryShapes)
}

// sliceMedian returns the median over slices of f applied to each.
func sliceMedian(sl [][]op, f func([]op) (float64, error)) (float64, error) {
	vals := make([]float64, len(sl))
	for i, s := range sl {
		v, err := f(s)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	return median(vals), nil
}

func countOps(sl [][]op) int {
	n := 0
	for _, s := range sl {
		n += len(s)
	}
	return n
}

// latencyQuantile is the q-quantile of the calls' latencies, timed
// from when each was due. For queries it is the mean over the query
// shapes of each shape's own quantile: the shapes' latencies form
// separate clusters, and a quantile of the mixture that falls between
// two clusters jumps from one to the other on a small shift.
func latencyQuantile(ops []op, t opType, q float64, scale time.Duration, minTail int) (float64, error) {
	kinds := 1
	if t == opQuery {
		kinds = len(queryShapes)
	}
	lat := make([][]float64, kinds)
	for _, o := range ops {
		k := 0
		if t == opQuery {
			k = o.shape
		}
		lat[k] = append(lat[k], float64(o.end-o.due)/float64(scale))
	}
	sum := 0.0
	for _, l := range lat {
		v, err := quantile(l, q, minTail)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum / float64(kinds), nil
}

// endToEnd sets the end-to-end metrics from the untraced timed window.
func endToEnd(res *result, cfg config, sp spec, all []op, iv interval, allocBytes, heapPeak uint64, setups []float64) error {
	var timed []op
	records := 0
	for _, o := range all {
		if o.phase == phTimed {
			timed = append(timed, o)
			records += o.records
		}
	}
	if records == 0 {
		return fmt.Errorf("no push was acked in the timed window")
	}
	sl := slices(timed, iv)
	secs := iv.seconds() / float64(len(sl))
	rate := func(field func(op) int) func([]op) (float64, error) {
		return func(ops []op) (float64, error) {
			n := 0
			for _, o := range ops {
				n += field(o)
			}
			return float64(n) / secs, nil
		}
	}
	items, _ := sliceMedian(sl, rate(func(o op) int { return o.items }))
	pushes, _ := sliceMedian(sl, rate(func(o op) int { return o.records }))
	res.set("items_per_s", "items/s", items, records)
	res.set("pushes_per_s", "1/s", pushes, records)
	for _, t := range []opType{opPush, opBatch, opQuery} {
		f := families[t]
		for _, q := range []struct {
			q   float64
			tag string
		}{{0.5, "p50"}, {0.95, "p95"}} {
			lsl := latencySlices(sp, all, t, phTimed, q.q)
			name := fmt.Sprintf("%s_%s_%s", f.prefix, q.tag, f.unit)
			v, err := sliceMedian(lsl, func(ops []op) (float64, error) {
				return latencyQuantile(ops, t, q.q, f.scale, cfg.minTail)
			})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if q.tag == "p50" {
				res.set(name, f.unit, v, countOps(lsl))
			} else {
				res.note(name, f.unit, v, countOps(lsl))
			}
		}
	}
	res.set("alloc_kb_per_push", "KiB", float64(allocBytes)/1024/float64(records), records)
	res.set("heap_peak_mb", "MiB", float64(heapPeak)/(1<<20), int(iv.seconds()/0.005))
	res.set("setup_s", "s", median(setups), len(setups))
	return nil
}
