package main

// The -bench-wal mode: microbenchmarks for the durability layer's two
// costs — the per-envelope Append (with and without the per-record
// fsync the default SyncAlways policy pays, so the report prices the
// fsync itself) and boot-time Replay throughput over a sealed log.
// The checked-in snapshot lives at BENCH_wal.json in the repository
// root; regenerate it on a quiet machine with:
//
//	go run ./cmd/gtbench -bench-wal BENCH_wal.json

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/sketch"
	"repro/internal/sketch/kmv"
	"repro/internal/wal"
)

// walBenchReport is the BENCH_wal.json layout.
type walBenchReport struct {
	Tool string `json:"tool"`
	Note string `json:"note"`
	machine
	AppendFsync walAppendResult `json:"append_fsync"`
	AppendAsync walAppendResult `json:"append_nosync"`
	Replay      walReplayResult `json:"replay"`
}

// walAppendResult measures Append of one fixed envelope under a sync
// policy.
type walAppendResult struct {
	EnvelopeBytes int     `json:"envelope_bytes"`
	NsPerAppend   float64 `json:"append_ns_per_op"`
	MBPerS        float64 `json:"mb_per_s"`
}

// walReplayResult measures a full Open+Replay of a sealed log.
type walReplayResult struct {
	Records     int     `json:"records"`
	LogBytes    int64   `json:"log_bytes"`
	NsPerReplay float64 `json:"replay_ns_per_op"`
	MBPerS      float64 `json:"mb_per_s"`
}

// walBenchEnvelope builds the fixture record: a populated kmv
// envelope, the same shape the coordinator logs per accepted push.
func walBenchEnvelope() ([]byte, error) {
	sk := kmv.New(64, 9000)
	for x := uint64(0); x < 4096; x++ {
		sk.Process(x*11 + 7)
	}
	return sketch.Envelope(sk)
}

// benchAppend prices Append under one sync policy.
func benchAppend(env []byte, policy wal.SyncPolicy) (walAppendResult, error) {
	dir, err := os.MkdirTemp("", "walbench")
	if err != nil {
		return walAppendResult{}, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{Sync: policy})
	if err != nil {
		return walAppendResult{}, err
	}
	defer l.Close()
	if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
		return walAppendResult{}, err
	}
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(len(env)))
		for i := 0; i < b.N; i++ {
			if err := l.Append(env); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return walAppendResult{}, benchErr
	}
	res := walAppendResult{
		EnvelopeBytes: len(env),
		NsPerAppend:   float64(r.NsPerOp()),
	}
	if secs := r.T.Seconds(); secs > 0 {
		res.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / secs
	}
	return res, nil
}

// benchReplay seals a log of records copies of env and prices a full
// Open+Replay of it.
func benchReplay(env []byte, records int) (walReplayResult, error) {
	dir, err := os.MkdirTemp("", "walbench")
	if err != nil {
		return walReplayResult{}, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return walReplayResult{}, err
	}
	if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
		return walReplayResult{}, err
	}
	for i := 0; i < records; i++ {
		if err := l.Append(env); err != nil {
			return walReplayResult{}, err
		}
	}
	if err := l.Close(); err != nil {
		return walReplayResult{}, err
	}

	var benchErr error
	var logBytes int64
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rl, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			st, err := rl.Replay(func(string, []byte) error { return nil })
			if cerr := rl.Close(); err == nil {
				err = cerr
			}
			if err != nil || st.Records != int64(records) {
				benchErr = fmt.Errorf("replayed %d of %d records: %w", st.Records, records, err)
				b.Fatal(benchErr)
			}
			logBytes = st.Bytes
			b.SetBytes(st.Bytes)
		}
	})
	if benchErr != nil {
		return walReplayResult{}, benchErr
	}
	res := walReplayResult{
		Records:     records,
		LogBytes:    logBytes,
		NsPerReplay: float64(r.NsPerOp()),
	}
	if secs := r.T.Seconds(); secs > 0 {
		res.MBPerS = float64(r.Bytes) * float64(r.N) / 1e6 / secs
	}
	return res, nil
}

// runBenchWAL measures the append and replay paths and writes the
// JSON report to path ("-" = stdout).
func runBenchWAL(path string) error {
	env, err := walBenchEnvelope()
	if err != nil {
		return err
	}
	report := walBenchReport{
		Tool:    "gtbench -bench-wal",
		Note:    "envelope Append under SyncAlways/SyncNever and full-log Open+Replay throughput; regenerate with: go run ./cmd/gtbench -bench-wal BENCH_wal.json",
		machine: thisMachine(),
	}
	if report.AppendFsync, err = benchAppend(env, wal.SyncAlways); err != nil {
		return err
	}
	if report.AppendAsync, err = benchAppend(env, wal.SyncNever); err != nil {
		return err
	}
	if report.Replay, err = benchReplay(env, 4096); err != nil {
		return err
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
