package main

// The -bench mode: coordinator-path microbenchmarks (server absorb,
// raw sketch merge, envelope decode) per registered kind, written as
// a JSON report. The checked-in snapshot lives at BENCH_absorb.json
// in the repository root; regenerate it on a quiet machine with:
//
//	go run ./cmd/gtbench -bench BENCH_absorb.json

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/analysis/allocbudget"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/sketch"

	// Register every kind so the sweep covers the whole registry.
	_ "repro/internal/sketch/kinds"
)

// benchKindResult is one kind's row in the report.
type benchKindResult struct {
	Kind          string  `json:"kind"`
	EnvelopeBytes int     `json:"envelope_bytes"`
	AbsorbNsPerOp float64 `json:"absorb_ns_per_op"`
	AbsorbMBPerS  float64 `json:"absorb_mb_per_s"`
	AbsorbAllocs  float64 `json:"absorb_allocs_per_op"`
	MergeNsPerOp  float64 `json:"merge_ns_per_op"`
	DecodeNsPerOp float64 `json:"decode_ns_per_op"`
	// AllocsLicensed is the absorb path's malloc ceiling from the
	// allocflow summaries (internal/analysis/allocbudget), -1 when the
	// path is statically unbounded (window: merge rebuilds per-level
	// samples). AllocsBudgetOK reports observed ≤ licensed.
	AllocsLicensed int  `json:"allocs_licensed"`
	AllocsBudgetOK bool `json:"allocs_budget_ok"`
}

// benchReport is the BENCH_absorb.json layout.
type benchReport struct {
	Tool string `json:"tool"`
	Note string `json:"note"`
	machine
	Kinds []benchKindResult `json:"kinds"`
}

// benchSiteEnvelopes builds nsites populated site envelopes of one
// kind, all in one merge group (the server bench's fixture, rebuilt
// here for the CLI).
func benchSiteEnvelopes(info sketch.KindInfo, nsites int) ([][]byte, error) {
	msgs := make([][]byte, nsites)
	for i := range msgs {
		sk := info.New(0.1, 1)
		r := hashing.NewXoshiro256(uint64(100 + i))
		for j := 0; j < 4096; j++ {
			sk.Process(r.Uint64n(1 << 20))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", info.Name, err)
		}
		msgs[i] = env
	}
	return msgs, nil
}

// runBench measures every registered kind and writes the JSON report
// to path ("-" = stdout).
func runBench(path string) error {
	report := benchReport{
		Tool:    "gtbench -bench",
		Note:    "coordinator absorb path, raw sketch merge, and envelope decode per registered kind; allocs_licensed is the allocflow absorb ceiling (-1 = statically unbounded) and allocs_budget_ok reports observed <= licensed; regenerate with: go run ./cmd/gtbench -bench BENCH_absorb.json",
		machine: thisMachine(),
	}
	// Harvest the allocflow summaries once so every kind's absorb
	// figure is judged against its licensed malloc ceiling.
	budgets, err := allocbudget.Load(".",
		"./internal/server", "./internal/sketch/...", "./internal/core",
		"./internal/exact", "./internal/window")
	if err != nil {
		return fmt.Errorf("harvesting allocflow summaries: %w", err)
	}
	for _, info := range sketch.Kinds() {
		msgs, err := benchSiteEnvelopes(info, 8)
		if err != nil {
			return err
		}
		sks := make([]sketch.Sketch, len(msgs))
		for i, m := range msgs {
			if sks[i], err = sketch.Open(m); err != nil {
				return fmt.Errorf("%s: %w", info.Name, err)
			}
		}

		absorb := testing.Benchmark(func(b *testing.B) {
			srv := server.New(server.Config{})
			b.SetBytes(int64(len(msgs[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.Absorb(msgs[i%len(msgs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		merge := testing.Benchmark(func(b *testing.B) {
			dst := info.New(0.1, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Merge(sks[i%len(sks)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		decode := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sketch.Open(msgs[i%len(msgs)]); err != nil {
					b.Fatal(err)
				}
			}
		})

		row := benchKindResult{
			Kind:          info.Name,
			EnvelopeBytes: len(msgs[0]),
			AbsorbNsPerOp: float64(absorb.NsPerOp()),
			AbsorbAllocs:  float64(absorb.AllocsPerOp()),
			MergeNsPerOp:  float64(merge.NsPerOp()),
			DecodeNsPerOp: float64(decode.NsPerOp()),
		}
		row.AllocsLicensed = -1
		if p, ok := allocbudget.AbsorbPath(info.Name); ok {
			if res := budgets.Eval(p); res.Bounded {
				row.AllocsLicensed = res.Ceiling
				row.AllocsBudgetOK = row.AbsorbAllocs <= float64(res.Ceiling)
			}
		}
		if secs := absorb.T.Seconds(); secs > 0 {
			row.AbsorbMBPerS = float64(absorb.Bytes) * float64(absorb.N) / 1e6 / secs
		}
		report.Kinds = append(report.Kinds, row)
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
