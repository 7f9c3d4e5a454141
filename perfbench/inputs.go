package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sketch"
	_ "repro/internal/sketch/kinds"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/wire"
)

// rec is one push: an envelope bound for a named stream. key names
// the distinct envelope (fresh envelope i has key i, pool envelope i
// key poolKey+i), so the serial reference absorbs each once — a merge
// is an idempotent join, so a re-sent envelope adds nothing.
type rec struct {
	key    int
	stream string
	env    []byte
	items  int // stream items the envelope summarizes
}

// poolKey offsets the keys of pool envelopes from those of fresh ones.
const poolKey = 1 << 40

// window is one pregenerated slice of a stream plus the sketch it is
// fed into; the per-layer run times Process over it.
type window struct {
	items []uint64
	newSk func() sketch.Sketch
}

// inputs is everything a workload sends, generated from the seed
// before any timing starts. The coordinator sees only these bytes.
//
// Every workload keeps sending envelopes the coordinator has not
// seen, for the whole run, so the timed window always holds merges
// that change group state and the correctness gate can tell a push
// that was acked but never absorbed: site-ingest builds a fresh one
// every round; the pool workloads mix prebuilt fresh envelopes, due
// at freshRate per second, into batches that otherwise re-send the
// pool (at-least-once redelivery).
type inputs struct {
	// fresh returns fresh envelope i; the same i gives the same bytes,
	// so the reference rebuilds what the load sent from its key.
	fresh func(i int) (rec, error)
	// freshPool holds the pool workloads' prebuilt fresh envelopes:
	// the first freshCap are handed out by the feed, the rest are held
	// out for the per-layer run. Site-ingest builds its own in the
	// timed loop and holds out the rounds after the last one sent.
	freshPool []rec
	freshCap  int
	freshRate float64
	// The feed: fresh envelope indices handed out so far, and when
	// the first was.
	feedMu   sync.Mutex // guards: feedT0, feedNext
	feedT0   time.Time
	feedNext int
	// pool holds prebuilt envelopes the loaders re-send.
	pool []rec
	// preload is absorbed in-process during set-up (site-ingest,
	// query-mix);
	// logged is written, twice, to the log set-up replays
	// (small-durable). The reference absorbs both.
	preload, logged []rec
	// windows are the workload's item windows, for timing Process.
	windows []window
	// batch is the record count of one PushBatchNamed call.
	batch int
	// walDir is the pre-written log small-durable's set-up replays.
	walDir string
}

// heldOut is the number of fresh envelopes the load never sends,
// which the per-layer run merges and absorbs as state-changing work.
const heldOut = 128

// lookup returns the envelope of key, rebuilding a fresh one.
func (in *inputs) lookup(key int) (rec, error) {
	if key >= poolKey {
		return in.pool[key-poolKey], nil
	}
	return in.fresh(key)
}

// heldOutKeys returns the keys of fresh envelopes no load sent.
func (in *inputs) heldOutKeys() []int {
	from := in.freshCap
	if in.freshPool == nil {
		from = in.freshTaken()
	}
	keys := make([]int, heldOut)
	for i := range keys {
		keys[i] = from + i
	}
	return keys
}

// takeFresh hands out the next fresh envelope indices due, at most
// n, in order: all n at once when there is no rate (site-ingest), or
// at freshRate per second from the first call, up to freshCap, so
// fresh envelopes keep coming at the same pace however fast the
// loaders run.
func (in *inputs) takeFresh(n int) []int {
	in.feedMu.Lock()
	defer in.feedMu.Unlock()
	due := in.feedNext + n
	if in.freshRate > 0 {
		if in.feedT0.IsZero() {
			in.feedT0 = time.Now()
		}
		due = min(int(time.Since(in.feedT0).Seconds()*in.freshRate), in.freshCap, due)
	}
	var out []int
	for ; in.feedNext < due; in.feedNext++ {
		out = append(out, in.feedNext)
	}
	return out
}

// freshTaken is the number of fresh envelopes handed out so far.
func (in *inputs) freshTaken() int {
	in.feedMu.Lock()
	defer in.feedMu.Unlock()
	return in.feedNext
}

// prebuild sets the pool workloads' fresh envelopes: enough for the
// feed at rate over the warm-up and timed window with a fifth to
// spare, plus the held-out ones. build makes n of them, keyed 0..n-1.
func (in *inputs) prebuild(cfg config, rate float64, build func(n int) ([]rec, error)) error {
	in.freshRate = rate
	in.freshCap = int(rate*(cfg.warm+cfg.seconds).Seconds()*1.2) + in.batch
	var err error
	if in.freshPool, err = build(in.freshCap + heldOut); err != nil {
		return err
	}
	in.fresh = func(i int) (rec, error) {
		if i >= len(in.freshPool) {
			return rec{}, fmt.Errorf("fresh envelope %d of %d", i, len(in.freshPool))
		}
		return in.freshPool[i], nil
	}
	return nil
}

// Query shapes every workload asks: a leaf, the paper's union, a
// nested intersection/difference, and Jaccard at the root.
var queryShapes = []struct {
	name string
	expr *wire.QueryExpr
}{
	{"leaf", wire.Leaf("s0")},
	{"union", wire.Union(wire.Leaf("s0"), wire.Leaf("s1"))},
	{"nested", wire.Diff(wire.Intersect(wire.Union(wire.Leaf("s0"), wire.Leaf("s1")), wire.Leaf("s2")), wire.Leaf("s3"))},
	{"jaccard", wire.Jaccard(wire.Leaf("s0"), wire.Leaf("s1"))},
}

// exprQuery is query shape i, its leaves resolved within the gt
// groups (small-durable's streams also hold kmv and hll groups).  The
// leaves s0–s3 hold the query fixture (site-ingest; query-mix, whose
// writer pushes to them too) or small-durable's first four streams.
func exprQuery(i int) wire.ExprQuery {
	return wire.ExprQuery{HasKind: true, SketchKind: uint8(sketch.KindGT), Expr: queryShapes[i%len(queryShapes)].expr}
}

// mix is SplitMix64's finalizer: a bijective, seedable label scrambler.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newGT(capacity, copies int) func() sketch.Sketch {
	return func() sketch.Sketch {
		return core.NewEstimator(core.EstimatorConfig{Capacity: capacity, Copies: copies, Seed: 42})
	}
}

func newKind(name string) func() sketch.Sketch {
	info, ok := sketch.LookupName(name)
	if !ok {
		panic("perfbench: sketch kind " + name + " not registered")
	}
	return func() sketch.Sketch { return info.New(0.1, 42) }
}

// zipfWindows draws n windows of size items each from one Zipf(1.1)
// stream over a 2^20-label universe, with ranks scrambled to 64-bit
// labels as real keys (addresses, hashes) are.
func zipfWindows(seed uint64, n, size int, newSk func() sketch.Sketch) []window {
	z := stream.NewZipf(1<<20, n*size, 1.1, seed)
	out := make([]window, n)
	for i := range out {
		items := make([]uint64, size)
		for j := range items {
			it, _ := z.Next()
			items[j] = mix(seed<<32 ^ it.Label)
		}
		out[i] = window{items: items, newSk: newSk}
	}
	return out
}

// zipfEnvelopes builds the envelopes of n further windows of size
// items, drawn as zipfWindows draws them but without keeping the
// items; envelope i goes to stream s(i mod 4) with key i.
func zipfEnvelopes(seed uint64, n, size int, newSk func() sketch.Sketch) ([]rec, error) {
	z := stream.NewZipf(1<<20, n*size, 1.1, seed)
	out := make([]rec, n)
	for i := range out {
		sk := newSk()
		for j := 0; j < size; j++ {
			it, _ := z.Next()
			sk.Process(mix(seed<<32 ^ it.Label))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			return nil, err
		}
		out[i] = rec{key: i, stream: streamName(i % 4), env: env, items: size}
	}
	return out, nil
}

// siteLabel is the label site-ingest feeds for item x of a window at
// label offset off: each offset moves the window to other labels.
func siteLabel(x uint64, off int) uint64 { return mix(x + uint64(off)*0x9e3779b97f4a7c15) }

// build feeds a window (at a label offset) into a fresh sketch and
// returns its envelope.
func (w window) build(off int) ([]byte, error) {
	sk := w.newSk()
	for _, x := range w.items {
		sk.Process(siteLabel(x, off))
	}
	return sketch.Envelope(sk)
}

func streamName(i int) string { return fmt.Sprintf("s%d", i) }

// siteInputs: a pool of 20,000-item Zipf windows the two sites cycle
// through. Round k feeds window k mod 32 at label offset k div 32, so
// every round's envelope is new to the coordinator; it goes to stream
// site0–site3. The query fixture is preloaded into s0–s3 for the
// query probe: the sites' groups fill their samples to a share that
// depends on how many rounds ran, and query time follows the fill.
func siteInputs(cfg config, _ string) (*inputs, error) {
	n, size := 32, 20000
	if cfg.small {
		n, size = 8, 2000
	}
	preload, err := queryFixture(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{windows: zipfWindows(cfg.seed, n, size, newGT(256, 5)), preload: preload, batch: 2}
	in.fresh = func(k int) (rec, error) {
		w := in.windows[k%n]
		env, err := w.build(k / n)
		return rec{key: k, stream: fmt.Sprintf("site%d", k%4), env: env, items: len(w.items)}, err
	}
	return in, nil
}

// durableRate is small-durable's fresh envelopes per second, about 3%
// of its pushes on the reference machine.
const durableRate = 1000

// durableInputs: small envelopes of three kinds over 256 named
// streams (768 groups). Variants 0–3 are the log set-up replays,
// 4–7 the pool the loaders re-send, and the rest the fresh ones.
func durableInputs(cfg config, scratch string) (*inputs, error) {
	streams, size := 256, 200
	if cfg.small {
		streams = 8
	}
	kinds := []func() sketch.Sketch{newGT(16, 1), newKind("kmv"), newKind("hll")}
	per := streams * len(kinds)
	// envelope i: stream (i/3) mod streams, kind i mod 3, variant
	// i/per. Variant v of a stream shares half its labels with v-1,
	// so merges find overlap, and labels never repeat further back.
	envelope := func(i int) (window, rec, error) {
		s, v := (i/len(kinds))%streams, i/per
		items := make([]uint64, size)
		for j := range items {
			items[j] = mix(cfg.seed<<48 ^ uint64(s)<<36 ^ uint64(v*size/2+j))
		}
		w := window{items: items, newSk: kinds[i%len(kinds)]}
		env, err := w.build(0)
		return w, rec{key: i, stream: streamName(s), env: env, items: size}, err
	}
	in := &inputs{batch: 64}
	for i := 0; i < 8*per; i++ {
		w, r, err := envelope(i)
		if err != nil {
			return nil, err
		}
		if i < 4*per {
			in.logged = append(in.logged, r)
		} else {
			r.key = poolKey + len(in.pool)
			in.pool = append(in.pool, r)
			in.windows = append(in.windows, w)
		}
	}
	err := in.prebuild(cfg, durableRate, func(n int) ([]rec, error) {
		out := make([]rec, n)
		for i := range out {
			_, r, err := envelope(8*per + i)
			if err != nil {
				return nil, err
			}
			r.key = i
			out[i] = r
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	// The replayed log holds each logged envelope twice, as an
	// at-least-once loader would have sent them before a restart.
	dir := filepath.Join(scratch, "wal-src")
	if err := writeLog(dir, append(append([]rec(nil), in.logged...), in.logged...)); err != nil {
		return nil, err
	}
	in.walDir = dir
	return in, nil
}

// writeLog writes recs as a fresh write-ahead log in dir.
func writeLog(dir string, recs []rec) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
		l.Close()
		return err
	}
	for _, r := range recs {
		if err := l.AppendNamed(r.stream, r.env); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}

// copyDir copies the flat directory src to dst.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// queryFreshRate is query-mix's fresh envelopes per second, about 1% of
// its writer's pushes on the reference machine; each is 10 KB held in
// memory for the run.
const queryFreshRate = 50

// queryFixture is the BENCH_expr.json fixture: four gt streams s0–s3
// of 20,000 distinct labels, half shared by all four.
func queryFixture(cfg config) ([]rec, error) {
	distinct := 20000
	if cfg.small {
		distinct = 2000
	}
	var out []rec
	for s := 0; s < 4; s++ {
		sk := newGT(256, 5)()
		for x := 0; x < distinct; x++ {
			label := uint64(x)
			if x >= distinct/2 {
				label = uint64(s*distinct + x)
			}
			sk.Process(mix(cfg.seed<<40 ^ label))
		}
		env, err := sketch.Envelope(sk)
		if err != nil {
			return nil, err
		}
		out = append(out, rec{key: -1 - s, stream: streamName(s), env: env, items: distinct})
	}
	return out, nil
}

// queryInputs: the query fixture as the preload, a pool of 64
// distinct Zipf-window envelopes the writer re-sends into s0–s3, and
// fresh envelopes from 5,000-item windows of another Zipf stream (a
// quarter of the size, so that building them before the run stays
// quick; a window that size still fills the sketch's samples).
func queryInputs(cfg config, _ string) (*inputs, error) {
	n, size := 64, 20000
	if cfg.small {
		n, size = 8, 2000
	}
	preload, err := queryFixture(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{preload: preload, batch: 8}
	in.windows = zipfWindows(cfg.seed+1, n, size, newGT(256, 5))
	for i, w := range in.windows {
		env, err := w.build(0)
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, rec{key: poolKey + i, stream: streamName(i % 4), env: env, items: size})
	}
	return in, in.prebuild(cfg, queryFreshRate, func(n int) ([]rec, error) {
		return zipfEnvelopes(cfg.seed+2, n, size/4, newGT(256, 5))
	})
}

// sortedKeys returns the keys of m in order.
func sortedKeys(m map[int]int32) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// lookupAll returns the envelopes of keys, in order.
func lookupAll(in *inputs, keys []int) ([]rec, error) {
	out := make([]rec, 0, len(keys))
	return out, eachRec(in, keys, func(r rec) error {
		out = append(out, r)
		return nil
	})
}

// eachRec calls fn on the envelope of each key in order, rebuilding
// fresh envelopes a chunk at a time on GOMAXPROCS goroutines, so a
// run's thousands of site-ingest envelopes are never all in memory.
func eachRec(in *inputs, keys []int, fn func(rec) error) error {
	const chunk = 256
	recs := make([]rec, chunk)
	errs := make([]error, chunk)
	for lo := 0; lo < len(keys); lo += chunk {
		part := keys[lo:min(lo+chunk, len(keys))]
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(part); i = int(next.Add(1) - 1) {
					recs[i], errs[i] = in.lookup(part[i])
				}
			}()
		}
		wg.Wait()
		for i := range part {
			if errs[i] != nil {
				return errs[i]
			}
			if err := fn(recs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
