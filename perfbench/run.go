package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// spec is one workload: its inputs, whether its coordinator is
// durable, its load goroutines (at most two — the reference machine's
// nproc — each a closed-loop or open-loop client), and the client
// calls whose latency its timed window reports; every other call's
// latency comes from a probe. README.md records why each exists.
type spec struct {
	inputs func(cfg config, scratch string) (*inputs, error)
	wal    bool
	bodies func(*inputs) []body
	timed  []opType
}

// maxSetupReps caps the set-up repetitions of one run.
const maxSetupReps = 201

// queryRate is query-mix's open-loop query rate per second. At 200/s
// the reference host, in its slower stretches, put the querier at the
// knee: queries queued behind their schedule and the median from the
// scheduled send time more than doubled. 100/s stays below it.
const queryRate = 100

var workloads = map[string]spec{
	"site-ingest": {
		inputs: siteInputs,
		bodies: func(in *inputs) []body {
			return []body{siteBody(in), siteBody(in)}
		},
		// The sites keep both CPUs busy with Process, and a one-shot
		// push's latency under them swung by a quarter run to run with
		// the host's CPU contention: it is probed with the sites stopped.
		timed: nil,
	},
	"small-durable": {
		inputs: durableInputs,
		wal:    true,
		bodies: func(in *inputs) []body {
			next := new(atomic.Int64)
			return []body{loaderBody(in, next), loaderBody(in, next)}
		},
		timed: []opType{opBatch},
	},
	"query-mix": {
		inputs: queryInputs,
		bodies: func(in *inputs) []body {
			return []body{loaderBody(in, new(atomic.Int64)), querierBody(in, queryRate)}
		},
		timed: []opType{opBatch, opQuery},
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is one benchmark run: inputs, set-up (repeated), warm-up, the
// timed window (and in a traced run a second, traced window), the
// probes, the correctness gate, then the metrics.
func run(cfg config) (*result, error) {
	sp, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runDir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	in, err := sp.inputs(cfg, runDir)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	bodies := sp.bodies(in)
	ports := len(bodies) + 1 // one per load goroutine, one for the probe

	// Set-up, repeated until there are setupReps timings and setupMin
	// has passed (cheap set-ups take well under a millisecond, so one
	// timing alone is noise); the last coordinator serves the run.
	epoch := time.Now()
	var setups []float64
	var c *coord
	for i := 0; i < cfg.setupReps || (time.Since(epoch) < cfg.setupMin && i < maxSetupReps); i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, fmt.Errorf("set-up: stop: %w", err)
			}
		}
		walDir := ""
		if sp.wal {
			walDir = filepath.Join(runDir, "wal")
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
			if err := copyDir(walDir, in.walDir); err != nil {
				return nil, err
			}
		}
		runtime.GC() // each set-up starts from a collected heap
		if c, err = startCoord(in, walDir, ports, epoch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, c.setup.Seconds())
	}
	defer c.stop()

	loaders := make([]*loader, ports)
	for i := range loaders {
		loaders[i] = newLoader(i, c.ln.addr(i), epoch)
	}
	if cfg.trace {
		e, err := startEcho()
		if err != nil {
			return nil, err
		}
		defer e.close()
		for _, l := range loaders {
			l.echo = e
		}
	}

	// The load, with runtime counters read at each phase boundary and
	// the live heap sampled through the timed window.
	phases, each := []int32{phTimed}, cfg.seconds
	if cfg.trace {
		phases, each = []int32{phTimed, phTraced}, cfg.seconds/2
	}
	allocs := make(map[int32]uint64)
	gcs := make(map[int32]gcSnap)
	var heapPeak uint64
	bounds := runPhases(epoch, loaders, bodies, cfg.warm, phases, each,
		func(ph int32) {
			allocs[ph] = readRuntime(mAllocBytes)[mAllocBytes]
			if cfg.trace {
				gcs[ph] = readGC()
				c.ln.tracing.Store(ph == phTraced)
			}
		},
		func() {
			if h := readRuntime(mHeapLive)[mHeapLive]; h > heapPeak {
				heapPeak = h
			}
		})

	// Probes: every client call whose latency the load does not give.
	// Every untraced run reports every declared end-to-end metric.
	prober := loaders[len(loaders)-1]
	smp, err := lookupAll(in, samples(sortedKeys(ackedBy(loaders[:len(bodies)])), 64))
	if err != nil {
		return nil, err
	}
	envs := in.pool
	if len(envs) == 0 {
		envs = smp
	}
	var missing []opType
	for _, t := range []opType{opPush, opBatch, opQuery} {
		if !hasCall(sp.timed, t) {
			missing = append(missing, t)
		}
	}
	if cfg.trace {
		c.ln.tracing.Store(true)
	}
	if err := probe(in, prober, missing, envs, cfg.probeSlices, cfg.probeTime); err != nil {
		return nil, err
	}
	c.ln.tracing.Store(false)
	ackedKeys := sortedKeys(ackedBy(loaders))

	res := &result{Correct: true, machine: machineInfo()}
	var all []op
	for _, l := range loaders {
		for _, o := range l.ops {
			if o.phase != phWarm {
				all = append(all, o)
			}
		}
	}
	res.Attempted = int64(len(all))
	for _, o := range all {
		if o.failed {
			res.Failed++
		}
	}

	// The correctness gate: the coordinator's groups against a serial
	// reference fed the same envelopes, and each query shape over TCP
	// against the reference's answer.
	ref, gerr := gate(c, in, ackedKeys, prober)
	if gerr != nil {
		res.Correct, res.gateErr, res.Failed = false, gerr, res.Attempted
	}

	switch {
	case !cfg.trace:
		err = endToEnd(res, cfg, sp, all, bounds[phTimed], allocs[phDone]-allocs[phTimed], heapPeak, setups)
	case ref == nil:
		err = fmt.Errorf("no reference to time the layers on: %w", gerr)
	default:
		err = perLayer(res, cfg, sp, in, c, ref, loaders, smp, all, bounds, gcs, runDir)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ackedBy returns every envelope key the loaders had acked, with the
// phase of its first ack.
func ackedBy(loaders []*loader) map[int]int32 {
	acked := make(map[int]int32)
	for _, l := range loaders {
		for k, ph := range l.acked {
			if old, ok := acked[k]; !ok || ph < old {
				acked[k] = ph
			}
		}
	}
	return acked
}

func hasCall(types []opType, t opType) bool {
	for _, c := range types {
		if c == t {
			return true
		}
	}
	return false
}
