package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// TestReplayWALFromEarlierFormatDecoders boots a coordinator on a WAL
// directory (testdata/earlierwal) written by the coordinator as it was
// before decoding moved into reusable per-slot buffers: a snapshot
// plus segments holding one envelope of every kind in two streams,
// some redelivered, and a kmv envelope whose deltas wrap past 2^64,
// which that coordinator accepted and logged. Replay must accept every
// record and rebuild each group's envelope exactly, pinned by the
// SHA-256 values that coordinator reported.
func TestReplayWALFromEarlierFormatDecoders(t *testing.T) {
	want := []struct{ stream, kind, sha string }{
		{"s0", "gt", "36a25d5d41f89fefa5b08f4c6292721578421ba6f0376a1a15be40479c9db73c"},
		{"s0", "fm", "50528adda1cb65f517a6c7b2dd184e1df81b66e5a1e229abbc8598685f31ca51"},
		{"s0", "ams", "b34b372cd79853d16b8ec815854ade845b9e474c820e1ba86fb0ef9da3f4143c"},
		{"s0", "bjkst", "d15243144ac529b72f797fbf5a3424b9bd1e2fb807378d14898d5caaf0e70a0f"},
		{"s0", "kmv", "f087995316ff67eeed2bdbdf0ab2f3b765cc588a7e79e57e781f415c93f94a4b"},
		{"s0", "hll", "a2c47af11d2578dde0f879c7d0c82d70e8ca2dbd224dfde09b9df0b83352ddaf"},
		{"s0", "window", "293b714d0d473ede07e7dee984e6f28ee45325afecf11de985c769f2ca05ee4d"},
		{"s0", "exact", "cff18cbbff810441bcbdeac73ee1a3000cea217f99e231248cffbab37ec0a482"},
		{"s1", "gt", "5d6ebf64fea6f288f4682afce68a52b95588bc9e39034db7c15d8f20b502c075"},
		{"s1", "fm", "50528adda1cb65f517a6c7b2dd184e1df81b66e5a1e229abbc8598685f31ca51"},
		{"s1", "ams", "f26176cffc5ebccb590cf18544b6799c9a0b7fb3c61649a9def527c68f03b338"},
		{"s1", "bjkst", "d15243144ac529b72f797fbf5a3424b9bd1e2fb807378d14898d5caaf0e70a0f"},
		{"s1", "kmv", "c5ea4d8fc82d9fb35a78d766cbc77480c560c21002a5bfb4702f595552580953"},
		{"s1", "hll", "a004c5f9c85010a3d591cb33dc75f2b5c7e26e2a9768e429ab51caa94b0163df"},
		{"s1", "window", "3db5b460ac41ee7d68260dd7e92aa40e6086ea5ed451a6c229dc803b2395d5f7"},
		{"s1", "exact", "4eecb187e3aa32c037e4ded28ec392897a955075c3130ff3d6daee28136e9817"},
		{"wrapped", "kmv", "405b9230e0eaeb4a277d8f4740f5e67d19dc9179fff7134437e86f92f6917e47"},
	}
	dir := t.TempDir()
	files, err := os.ReadDir("testdata/earlierwal")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata/earlierwal", f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := server.New(server.Config{WAL: &server.WALConfig{Dir: dir, SegmentBytes: 4096, SnapshotEvery: time.Hour}})
	defer srv.Abort()
	if _, err := srv.SnapshotWAL(); err != nil { // recovers first
		t.Fatalf("replaying the log: %v", err)
	}
	snaps, err := srv.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(want) {
		t.Fatalf("replay rebuilt %d groups, want %d", len(snaps), len(want))
	}
	for i, w := range want {
		sum := sha256.Sum256(snaps[i].Envelope)
		if snaps[i].Stream != w.stream || snaps[i].KindName != w.kind || hex.EncodeToString(sum[:]) != w.sha {
			t.Errorf("group %d: %q/%s sha256 %x, want %q/%s %s", i, snaps[i].Stream, snaps[i].KindName, sum, w.stream, w.kind, w.sha)
		}
	}
}

// TestFirstAbsorbRecoversWithOneSlot boots a durable coordinator with
// a single absorb slot (GOMAXPROCS 1) on a log with records in it and
// absorbs in-process before anything else: the absorb holds the only
// slot when it runs recovery, so replay must decode without taking
// one.
func TestFirstAbsorbRecoversWithOneSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	cfg := server.Config{WAL: &server.WALConfig{Dir: dir, SnapshotEvery: time.Hour}}
	msgs := siteMessages(t, core.EstimatorConfig{Capacity: 64, Copies: 3, Seed: 7}, overlapSources(3, 5))
	first := server.New(cfg)
	for _, m := range msgs[:2] {
		if err := first.Absorb(m); err != nil {
			t.Fatal(err)
		}
	}
	first.Abort()

	rebooted := server.New(cfg)
	defer rebooted.Abort()
	done := make(chan error, 1)
	go func() { done <- rebooted.Absorb(msgs[2]) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first absorb after reboot did not finish: recovery waits for the slot the absorb holds")
	}
	got, err := rebooted.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "one-slot recovery", got, controlSnapshots(t, msgs))
}
