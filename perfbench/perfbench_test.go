package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// reconcileBound is how far a traced run's reconciliation may miss:
// |trace.unexplained_frac| must stay within it.
const reconcileBound = 0.25

// smallConfig is a tiny run: small inputs, a fraction of a second of
// load, one slice of probe calls, no sample floor behind percentiles.
func smallConfig(t *testing.T, workload string, trace bool, seconds float64) config {
	cfg := defaultConfig(workload, DefaultSeed, seconds, trace)
	cfg.dir = t.TempDir()
	cfg.warm = 50 * time.Millisecond
	cfg.setupReps, cfg.setupMin = 2, 0
	cfg.probeSlices, cfg.probeTime = 1, 0
	cfg.minTail = 0
	cfg.small = true
	return cfg
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEveryMetric runs every workload tiny, untraced and traced,
// and checks that the run passes its gate and emits exactly the
// metrics BENCHMARK.json declares, each with its declared unit.
func TestSmokeEveryMetric(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			res, err := run(smallConfig(t, w, trace, 0.6))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w, trace, res.Correct, res.Failed, res.Attempted, res.gateErr)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %q, declared %q", w, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not declared", w, trace, name)
				}
			}
		}
	}
}

// TestGateFiresOnMissingEnvelope runs each workload's load briefly
// against a coordinator and checks that the gate passes against a
// reference fed every acked envelope, and fails against one fed one
// envelope fewer — the last fresh envelope the load sent in the timed
// window — or none of the envelopes first sent in the timed window,
// as a coordinator that acked its timed pushes and dropped them
// would look.
func TestGateFiresOnMissingEnvelope(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			cfg := smallConfig(t, w, false, 0.4)
			sp := workloads[w]
			in, err := sp.inputs(cfg, cfg.dir)
			if err != nil {
				t.Fatal(err)
			}
			walDir := ""
			if sp.wal {
				walDir = filepath.Join(cfg.dir, "wal")
				if err := copyDir(walDir, in.walDir); err != nil {
					t.Fatal(err)
				}
			}
			epoch := time.Now()
			bodies := sp.bodies(in)
			c, err := startCoord(in, walDir, len(bodies), epoch)
			if err != nil {
				t.Fatal(err)
			}
			defer c.stop()
			loaders := make([]*loader, len(bodies))
			for i := range loaders {
				loaders[i] = newLoader(i, c.ln.addr(i), epoch)
			}
			runPhases(epoch, loaders, bodies, cfg.warm, []int32{phTimed}, cfg.seconds, func(int32) {}, func() {})

			acked := ackedBy(loaders)
			all := sortedKeys(acked)
			var dropOne, dropTimed []int
			lastFresh := -1
			for _, k := range all {
				if acked[k] == phTimed && k < poolKey {
					lastFresh = k
				}
				if acked[k] != phTimed {
					dropTimed = append(dropTimed, k)
				}
			}
			if lastFresh < 0 {
				t.Fatalf("no fresh envelope acked in the timed window (%d keys acked)", len(all))
			}
			for _, k := range all {
				if k != lastFresh {
					dropOne = append(dropOne, k)
				}
			}
			if _, err := gate(c, in, all, loaders[0]); err != nil {
				t.Fatalf("gate fails with every envelope fed: %v", err)
			}
			if _, err := gate(c, in, dropOne, loaders[0]); err == nil {
				t.Errorf("gate passes with the reference missing fresh envelope %d", lastFresh)
			}
			if _, err := gate(c, in, dropTimed, loaders[0]); err == nil {
				t.Errorf("gate passes with the reference missing the %d envelopes first sent in the timed window", len(all)-len(dropTimed))
			}
		})
	}
}

// TestReconciliationCloses checks that in a short traced run of each
// workload the server spans plus the loopback baseline account for
// the client-observed time within reconcileBound.
func TestReconciliationCloses(t *testing.T) {
	for _, w := range workloadNames() {
		res, err := run(smallConfig(t, w, true, 2))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		u := res.Metrics["trace.unexplained_frac"].Value
		t.Logf("%s: trace.unexplained_frac = %.3f over %d calls", w, u, res.samples["trace.unexplained_frac"])
		if math.Abs(u) > reconcileBound {
			t.Errorf("%s: trace.unexplained_frac = %.3f, want within ±%.2f", w, u, reconcileBound)
		}
	}
}
