package main

// The -bench-relay mode: microbenchmarks for the sharded tier's two
// hot paths — a relay coordinator's FlushRelay round (snapshot every
// dirty group, push the batch upstream over loopback TCP) and the
// client's batched PushBatch (one dial amortized over N envelopes).
// The checked-in snapshot lives at BENCH_relay.json in the repository
// root; regenerate it on a quiet machine with:
//
//	go run ./cmd/gtbench -bench-relay BENCH_relay.json

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
)

// relayBenchReport is the BENCH_relay.json layout.
type relayBenchReport struct {
	Tool string `json:"tool"`
	Note string `json:"note"`
	machine
	RelayFlush relayFlushResult `json:"relay_flush"`
	PushBatch  pushBatchResult  `json:"push_batch"`
}

// relayFlushResult measures one FlushRelay round over a fixed number
// of dirty groups.
type relayFlushResult struct {
	Groups     int     `json:"groups"`
	NsPerFlush float64 `json:"flush_ns_per_op"`
	NsPerGroup float64 `json:"flush_ns_per_group"`
}

// pushBatchResult measures one PushBatch of a fixed envelope set.
type pushBatchResult struct {
	Envelopes     int     `json:"envelopes"`
	EnvelopeBytes int     `json:"envelope_bytes"`
	NsPerBatch    float64 `json:"batch_ns_per_op"`
	NsPerEnvelope float64 `json:"ns_per_envelope"`
	MBPerS        float64 `json:"mb_per_s"`
}

// relayBenchEnvelopes builds n envelopes in n distinct kmv merge
// groups (distinct coordination seeds → distinct config digests),
// mirroring the relay suite's fixture.
func relayBenchEnvelopes(n int) ([][]byte, error) {
	envs := make([][]byte, n)
	for i := range envs {
		sk := kmv.New(64, uint64(9000+i))
		for x := uint64(0); x < 4096; x++ {
			sk.Process(x*11 + uint64(i))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			return nil, err
		}
		envs[i] = env
	}
	return envs, nil
}

// runBenchRelay measures the relay flush and batched push paths and
// writes the JSON report to path ("-" = stdout).
func runBenchRelay(path string) error {
	const groups = 16
	envs, err := relayBenchEnvelopes(groups)
	if err != nil {
		return err
	}

	// A real parent over loopback TCP: both paths under test end in
	// its accept loop, like a production shard's upstream.
	parent := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- parent.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		parent.Shutdown(ctx)
		<-serveErr
	}()
	parentAddr := ln.Addr().String()

	child := server.New(server.Config{Relay: &server.RelayConfig{
		Upstream:      parentAddr,
		FlushInterval: time.Hour, // parked: the benchmark drives flushes
		Attempts:      3,
		BackoffBase:   5 * time.Millisecond,
		JitterSeed:    1,
	}})

	var benchErr error
	flush := testing.Benchmark(func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			for _, e := range envs {
				if err := child.Absorb(e); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
			b.StartTimer()
			n, err := child.FlushRelay()
			b.StopTimer()
			if err != nil || n != groups {
				benchErr = fmt.Errorf("flush delivered %d of %d groups: %w", n, groups, err)
				b.Fatal(benchErr)
			}
		}
	})
	if benchErr != nil {
		return benchErr
	}

	cl := client.New(client.Config{
		Addr:        parentAddr,
		Attempts:    3,
		BackoffBase: 5 * time.Millisecond,
		JitterSeed:  1,
	})
	var batchBytes int64
	for _, e := range envs {
		batchBytes += int64(len(e))
	}
	push := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(batchBytes)
		for i := 0; i < b.N; i++ {
			n, err := cl.PushBatch(envs)
			if err != nil || n != len(envs) {
				benchErr = fmt.Errorf("push batch delivered %d of %d envelopes: %w", n, len(envs), err)
				b.Fatal(benchErr)
			}
		}
	})
	if benchErr != nil {
		return benchErr
	}

	report := relayBenchReport{
		Tool:    "gtbench -bench-relay",
		Note:    "relay FlushRelay round (snapshot + batched upstream push over loopback TCP) and client.PushBatch; regenerate with: go run ./cmd/gtbench -bench-relay BENCH_relay.json",
		machine: thisMachine(),
		RelayFlush: relayFlushResult{
			Groups:     groups,
			NsPerFlush: float64(flush.NsPerOp()),
			NsPerGroup: float64(flush.NsPerOp()) / groups,
		},
		PushBatch: pushBatchResult{
			Envelopes:     len(envs),
			EnvelopeBytes: len(envs[0]),
			NsPerBatch:    float64(push.NsPerOp()),
			NsPerEnvelope: float64(push.NsPerOp()) / float64(len(envs)),
		},
	}
	if secs := push.T.Seconds(); secs > 0 {
		report.PushBatch.MBPerS = float64(push.Bytes) * float64(push.N) / 1e6 / secs
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
