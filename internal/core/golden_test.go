package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/sketch"
	"repro/internal/wal"
)

// Byte-identity goldens for the gt wire format. Every fixture is built
// from fixed seeds, so its envelope is a pure function of the encoder:
// a change to the in-memory sample representation, the raise
// implementation, or the merge must leave every digest below
// untouched. Regenerate only for a deliberate wire-format change, and
// bump the format version with it.

// goldenStream feeds n labels drawn from a seeded generator.
func goldenStream(e *core.Estimator, seed uint64, n int, universe uint64) {
	r := hashing.NewXoshiro256(seed)
	for i := 0; i < n; i++ {
		e.Process(r.Uint64n(universe))
	}
}

func goldenFixtures() map[string]*core.Estimator {
	cfg := core.EstimatorConfig{Capacity: 64, Copies: 5, Seed: 11}

	plain := core.NewEstimator(cfg)
	goldenStream(plain, 1, 20000, 50000)

	// Repeats carry differing values: the first retained value wins.
	weighted := core.NewEstimator(cfg)
	r := hashing.NewXoshiro256(2)
	for i := 0; i < 20000; i++ {
		weighted.ProcessWeighted(r.Uint64n(3000), 1+r.Uint64n(1000))
	}

	jcfg := cfg
	jcfg.Raise = core.RaiseJump
	jump := core.NewEstimator(jcfg)
	goldenStream(jump, 1, 20000, 50000)

	merged := core.NewEstimator(cfg)
	goldenStream(merged, 3, 15000, 40000)
	other := core.NewEstimator(cfg)
	goldenStream(other, 4, 15000, 40000)
	if err := merged.Merge(other); err != nil {
		panic(err)
	}

	parked := core.NewEstimator(core.EstimatorConfig{Capacity: 1, Copies: 3, Seed: 5})
	goldenStream(parked, 6, 200000, 1<<40)

	return map[string]*core.Estimator{
		"plain":     plain,
		"weighted":  weighted,
		"jump":      jump,
		"merged":    merged,
		"cap1-high": parked,
		"empty":     core.NewEstimator(cfg),
	}
}

var goldenEnvelopeSHA256 = map[string]string{
	"plain":     "3283f8480a7d98168b909b3a9705044d6a53e698ec72d02c2205b5a6e57394ae",
	"weighted":  "0ad8f99dc16862c3fd19a024d73134288fa559d36337b72993a489d4710c107d",
	"jump":      "1b2d0a1a254dd8d2aad7aa916f21a930e32c6a410730c07c31d100c840dcc8b3",
	"merged":    "34b84ae412107338307ccd0779c1d2555b0364d318321ad683b57abbeb4c3dee",
	"cap1-high": "308b47eecc72272ad0da5982e9fc00ca8c19deee4db5ae9b2b629c454eb41379",
	"empty":     "ee0dc10a8d62e5f8125d69f8df88adbb85f66b7fda5640f177043eecf383cf4a",
}

// goldenWALSHA256 pins one WAL segment holding the "merged" envelope
// appended to a named stream.
const goldenWALSHA256 = "da61e330e6ced54ec600397eda381dc48c6b85d8f5c505056a639303658217b8"

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func TestGoldenEnvelopes(t *testing.T) {
	fixtures := goldenFixtures()
	if fixtures["cap1-high"].Copy(0).Level() < 10 {
		t.Fatalf("cap1-high fixture sits at level %d; want a high level", fixtures["cap1-high"].Copy(0).Level())
	}
	for name, e := range fixtures {
		env, err := sketch.Envelope(e)
		if err != nil {
			t.Fatalf("%s: envelope: %v", name, err)
		}
		if got, want := sha(env), goldenEnvelopeSHA256[name]; got != want {
			t.Errorf("%s: envelope sha256 = %s, want %s", name, got, want)
		}
	}
}

func TestGoldenWALRecord(t *testing.T) {
	env, err := sketch.Envelope(goldenFixtures()["merged"])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendNamed("golden", env); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v), want exactly one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != goldenWALSHA256 {
		t.Errorf("WAL segment sha256 = %s, want %s", got, goldenWALSHA256)
	}
}
