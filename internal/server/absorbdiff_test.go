package server

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/sketch"
)

// TestAbsorbMatchesOpenMerge is the differential test of the absorb
// path: a coordinator decodes every push into an absorb slot's reused
// scratch and merges that into the group (a new group takes a clone),
// and the reference opens every push into a fresh sketch with
// sketch.Open and merges it, or keeps it as a new group. A seeded
// sequence of gt pushes — new groups, redeliveries, merges that raise
// the level, Copies 1 to 5, Capacity 1 to 32, three hash families,
// weights of one and of several varint bytes, small and 64-bit labels,
// and pushes the decoder refuses at their very end — must leave both
// holding byte-identical groups after every push, and both must accept
// and refuse the same pushes. Groups are compared on their encodings
// and on their sum estimates, which read the cached weight sum the
// encoding leaves out.
func TestAbsorbMatchesOpenMerge(t *testing.T) {
	configs := []core.EstimatorConfig{
		{Capacity: 1, Copies: 1, Seed: 1},
		{Capacity: 1, Copies: 3, Seed: 2},
		{Capacity: 8, Copies: 5, Seed: 3, Raise: core.RaiseJump},
		{Capacity: 32, Copies: 3, Seed: 4, Family: core.FamilyFourWise},
		{Capacity: 16, Copies: 1, Seed: 5, Family: core.FamilyTabulation},
	}
	streams := []string{"", "a", "b"}
	r := hashing.NewXoshiro256(7)
	srv := New(Config{})
	type refKey struct {
		stream string
		digest uint64
	}
	ref := map[refKey]sketch.Sketch{}
	refAbsorb := func(stream string, env []byte) error {
		sk, err := sketch.Open(env)
		if err != nil {
			return err
		}
		k := refKey{stream, sk.Digest()}
		if g, ok := ref[k]; ok {
			return g.Merge(sk)
		}
		ref[k] = sk
		return nil
	}
	type push struct {
		stream string
		env    []byte
	}
	var history []push
	for op := 0; op < 600; op++ {
		var p push
		switch x := r.Intn(10); {
		case x < 5 || len(history) == 0:
			cfg := configs[r.Intn(len(configs))]
			est := core.NewEstimator(cfg)
			universe := []uint64{50, 5000, 1 << 40}[r.Intn(3)]
			for n := r.Intn(1500); n > 0; n-- {
				label := r.Uint64n(universe)
				if universe == 1<<40 {
					label = hashing.Mix64(label) // 64-bit labels: 8- to 10-byte varints
				}
				weight := uint64(1)
				if r.Intn(4) == 0 {
					weight = 1 + r.Uint64n(1<<20)
				}
				est.ProcessWeighted(label, weight)
			}
			env, err := sketch.Envelope(est)
			if err != nil {
				t.Fatal(err)
			}
			p = push{streams[r.Intn(len(streams))], env}
			history = append(history, p)
		case x < 8:
			p = history[r.Intn(len(history))] // redelivery
		default:
			p = history[r.Intn(len(history))]
			env := bytes.Clone(p.env)
			switch r.Intn(3) {
			case 0:
				env = append(env, 0) // trailing byte after the last copy
			case 1:
				env = env[:len(env)-1] // last copy truncated
			default:
				env[4] ^= 1 // envelope digest disagrees with the payload
			}
			p.env = env
		}
		err := srv.AbsorbNamed(p.stream, p.env)
		rerr := refAbsorb(p.stream, p.env)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("push %d: absorb err %v, Open+Merge err %v", op, err, rerr)
		}
		srv.mu.Lock()
		groups := make(map[groupKey]*group, len(srv.groups))
		for k, g := range srv.groups {
			groups[k] = g
		}
		srv.mu.Unlock()
		if len(groups) != len(ref) {
			t.Fatalf("push %d: coordinator holds %d groups, reference %d", op, len(groups), len(ref))
		}
		for k, want := range ref {
			g := groups[groupKey{stream: k.stream, kind: sketch.KindGT, digest: k.digest}]
			if g == nil {
				t.Fatalf("push %d: coordinator lacks group %q/%016x", op, k.stream, k.digest)
			}
			g.mu.Lock()
			gotEnc, _ := g.sk.MarshalBinary()
			gs := g.sk.(sketch.Summer).EstimateSum()
			g.mu.Unlock()
			wantEnc, _ := want.MarshalBinary()
			if !bytes.Equal(gotEnc, wantEnc) {
				t.Fatalf("push %d: group %q/%016x diverged from Open+Merge", op, k.stream, k.digest)
			}
			if ws := want.(sketch.Summer).EstimateSum(); math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("push %d: group %q/%016x sum estimate %v, Open+Merge %v", op, k.stream, k.digest, gs, ws)
			}
		}
	}
	t.Logf("%d distinct pushes over %d groups", len(history), len(ref))
}
