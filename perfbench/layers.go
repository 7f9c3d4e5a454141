package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"
)

// linked is the traced run's spans joined up: every server.busy span
// hangs under the client call whose interval holds it.
type linked struct {
	spans     []span
	busy      map[int64]int64 // op id → server busy ns
	requests  map[int64]int   // op id → server requests seen
	unmatched int
}

// link attributes each listener's server spans to the calls of the
// loader that owns the listener. A loader's calls are sequential, so
// at most one holds a given span.
func link(loaders []*loader, f *fanIn) linked {
	lk := linked{busy: make(map[int64]int64), requests: make(map[int64]int)}
	next := int64(1) << 62
	for i, l := range loaders {
		ops := l.ops
		for _, o := range ops {
			if o.phase == phTraced || o.phase == phProbe {
				lk.spans = append(lk.spans, span{ID: o.id, Op: o.id, Name: opNames[o.typ], Start: o.start, End: o.end})
			}
		}
		f.logs[i].mu.Lock()
		srvSpans := append([]span(nil), f.logs[i].spans...)
		f.logs[i].mu.Unlock()
		for _, s := range srvSpans {
			j := sort.Search(len(ops), func(j int) bool { return ops[j].start > s.Start }) - 1
			if j < 0 || s.End > ops[j].end {
				lk.unmatched++
				continue
			}
			next++
			s.ID, s.Parent, s.Op = next, ops[j].id, ops[j].id
			lk.busy[s.Op] += s.End - s.Start
			lk.requests[s.Op]++
			lk.spans = append(lk.spans, s)
		}
	}
	return lk
}

// writeSpans writes the spans as JSON lines under dir.
func writeSpans(dir string, cfg config, spans []span) error {
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", cfg.workload, cfg.seed, time.Now().UnixNano())))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples picks up to n elements spread evenly over xs.
func samples[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// perLayer sets the per-layer metrics of a traced run: span-derived
// figures from the traced window (and the probes, for calls the load
// does not make), and self-times of each layer's public functions on
// smp, a sample of the run's acked envelopes, on held-out fresh
// envelopes (for the merges and absorbs, which must change group
// state as the load's fresh envelopes do), and on the run's queries,
// measured with the load stopped.
func perLayer(res *result, cfg config, sp spec, in *inputs, c *coord, ref *server.Server, loaders []*loader, smp []rec, all []op, bounds map[int32]interval, gcs map[int32]gcSnap, runDir string) error {
	lk := link(loaders, c.ln)
	if err := writeSpans(cfg.dir, cfg, lk.spans); err != nil {
		return err
	}
	reps := 8
	if cfg.small {
		reps = 1
	}
	held, err := lookupAll(in, in.heldOutKeys())
	if err != nil {
		return err
	}

	// core: Process over the workload's windows.
	var sks []sketch.Sketch
	var items int
	var processNs time.Duration
	for _, w := range in.windows {
		if items >= 200000 || len(sks) >= 256 {
			break
		}
		sk := w.newSk()
		t0 := time.Now()
		for _, x := range w.items {
			sk.Process(x)
		}
		processNs += time.Since(t0)
		items += len(w.items)
		sks = append(sks, sk)
	}
	res.set("core.process_ns_per_item", "ns", float64(processNs.Nanoseconds())/float64(items), items)

	// sketch: envelope, open, merge.
	ns, _ := timeAllocs(len(sks)*reps, func(i int) { sketch.Envelope(sks[i%len(sks)]) })
	res.set("sketch.envelope_ns", "ns", ns, len(sks)*reps)
	envBytes, envCount := 0, 0
	for _, o := range all {
		if (o.typ == opPush || o.typ == opBatch) && o.phase == phTraced {
			envBytes += o.bytes
			envCount += o.envs
		}
	}
	if envCount == 0 {
		return fmt.Errorf("no push in the traced window")
	}
	res.set("sketch.envelope_bytes", "bytes", float64(envBytes)/float64(envCount), envCount)
	ns, al := timeAllocs(len(smp)*reps, func(i int) { sketch.Open(smp[i%len(smp)].env) })
	res.set("sketch.open_ns", "ns", ns, len(smp)*reps)
	res.set("sketch.open_allocs", "allocs", al, len(smp)*reps)
	mergeNs, mergeAllocs, err := timeMerges(ref, held, reps)
	if err != nil {
		return err
	}
	res.set("sketch.merge_ns", "ns", mergeNs, len(held)*reps)
	res.set("sketch.merge_allocs", "allocs", mergeAllocs, len(held)*reps)

	// wire: frame encode and decode (CRC included) of push payloads.
	payloads := make([][]byte, len(smp))
	frames := make([][]byte, len(smp))
	for i, r := range smp {
		p, err := wire.EncodePushNamed(r.stream, r.env)
		if err != nil {
			return err
		}
		payloads[i], frames[i] = p, wire.EncodeFrame(wire.MsgPushNamed, p)
	}
	n := len(smp) * reps * 4
	ns, _ = timeAllocs(n, func(i int) { wire.EncodeFrame(wire.MsgPushNamed, payloads[i%len(payloads)]) })
	res.set("wire.frame_encode_ns", "ns", ns, n)
	ns, _ = timeAllocs(n, func(i int) { wire.DecodeFrame(frames[i%len(frames)], 0) })
	res.set("wire.frame_decode_ns", "ns", ns, n)

	// wal: appends to a scratch log with the benchmark's sync policy,
	// then replay into a fresh coordinator.
	appendNs, appends, err := timeAppends(filepath.Join(runDir, "wal-append"), smp, reps*16)
	if err != nil {
		return err
	}
	res.set("wal.append_ns", "ns", appendNs, appends)
	replayDir := filepath.Join(runDir, "wal-append")
	if in.walDir != "" {
		replayDir = filepath.Join(runDir, "wal-replay")
		if err := copyDir(replayDir, in.walDir); err != nil {
			return err
		}
	}
	mbps, records, err := timeReplay(replayDir)
	if err != nil {
		return err
	}
	res.set("wal.replay_mb_per_s", "MB/s", mbps, records)

	// server: expression answers per shape on the quiescent
	// reference, the coordinator's own merge counter, and in-process
	// absorbs of the held-out envelopes into the reference, each the
	// first of its envelope (so each changes group state).
	answerUs := make([]float64, len(queryShapes))
	for i, q := range queryShapes {
		eq := exprQuery(i)
		ns, al := timeAllocs(reps*4, func(int) { ref.AnswerExpr(eq) })
		answerUs[i] = ns / 1e3
		res.set("server.answer_expr_us."+q.name, "us", answerUs[i], reps*4)
		res.set("server.answer_expr_allocs."+q.name, "allocs", al, reps*4)
	}
	st := c.srv.Stats()
	res.set("server.merge_ns_mean", "ns", st.MergeNanosMean, int(st.Merges))
	resendNs, _ := timeAllocs(len(smp)*reps, func(i int) {
		r := smp[i%len(smp)]
		ref.AbsorbNamed(r.stream, r.env)
	})
	absorbNs, absorbAllocs := timeAllocs(len(held), func(i int) {
		ref.AbsorbNamed(held[i].stream, held[i].env)
	})
	res.set("server.absorb_ns", "ns", absorbNs, len(held))
	res.set("server.absorb_allocs", "allocs", absorbAllocs, len(held))

	// Span-derived figures: pushes from the traced window; queries
	// from the traced window or, where the load makes none, the probe.
	var pushBusy, pushClient, pushReqs, pushRecords, pushFresh int64
	var lateUs []float64
	var ranTraced []op
	for _, o := range all {
		if o.phase != phTraced {
			continue
		}
		ranTraced = append(ranTraced, o)
		lateUs = append(lateUs, float64(o.start-o.due)/1e3)
		if o.typ == opPush || o.typ == opBatch {
			pushBusy += lk.busy[o.id]
			pushReqs += int64(lk.requests[o.id])
			pushClient += o.end - o.start
			pushRecords += int64(o.records)
			pushFresh += int64(o.fresh)
		}
	}
	if pushReqs == 0 || pushRecords == 0 {
		return fmt.Errorf("no server span matched a traced push")
	}
	busyUs := float64(pushBusy) / float64(pushReqs) / 1e3
	res.set("server.busy_us", "us", busyUs, int(pushReqs))
	// The load's absorbs are the fresh share at absorb_ns and the rest
	// re-sends, which take the cheap path of a merge.
	f := float64(pushFresh) / float64(pushRecords)
	res.set("server.handoff_us", "us", busyUs-(f*absorbNs+(1-f)*resendNs)/1e3, int(pushReqs))
	res.set("client.net_us", "us", float64(pushClient-pushBusy)/float64(pushRecords)/1e3, int(pushRecords))

	var qBusy, qReqs int64
	var qAnswer float64
	var queries []op
	for _, sl := range latencySlices(sp, all, opQuery, phTraced, 0.5) {
		queries = append(queries, sl...)
	}
	for _, o := range queries {
		qBusy += lk.busy[o.id]
		qReqs += int64(lk.requests[o.id])
		qAnswer += answerUs[o.shape] * float64(lk.requests[o.id])
	}
	if qReqs == 0 {
		return fmt.Errorf("no server span matched a traced query")
	}
	res.set("server.query_wait_us", "us", (float64(qBusy)/1e3-qAnswer)/float64(qReqs), int(qReqs))

	attempts, units := 0, 0
	for _, o := range all {
		if o.phase == phTraced || o.phase == phProbe {
			attempts += o.attempts
			units += max(o.envs, 1)
		}
	}
	res.set("client.attempts_per_op", "ratio", float64(attempts)/float64(units), units)

	g0, g1 := gcs[phTraced], gcs[phDone]
	res.set("gc.cycles", "count", float64(g1.cycles-g0.cycles), 1)
	res.set("gc.pause_total_ms", "ms", float64(g1.pauseNs-g0.pauseNs)/1e6, int(g1.cycles-g0.cycles))
	lateMax := 0.0
	for _, x := range lateUs {
		if x > lateMax {
			lateMax = x
		}
	}
	late99, err := quantile(lateUs, 0.99, cfg.minTail)
	if err != nil {
		return fmt.Errorf("loadgen.late_p99_us: %w", err)
	}
	res.set("loadgen.late_p99_us", "us", late99, len(lateUs))
	res.set("loadgen.late_max_us", "us", lateMax, len(lateUs))

	// Reconciliation: each traced call's client-observed time against
	// the server busy time its spans account for plus the same
	// exchange against a bare loopback echo (encode, dial, frames,
	// reply), taken interleaved with the calls under the same load.
	echoNs := make(map[opType]float64)
	echoes := make(map[opType]int)
	var loopNs, loopEnvs int64
	for _, l := range loaders {
		for t, es := range l.echoed {
			for _, e := range es {
				echoNs[t] += float64(e.ns)
				echoes[t]++
				if t != opQuery {
					loopNs += e.ns
					loopEnvs += e.envs
				}
			}
		}
	}
	for t := range echoNs {
		echoNs[t] /= float64(echoes[t])
	}
	for _, o := range ranTraced {
		if _, ok := echoNs[o.typ]; !ok {
			return fmt.Errorf("no echo exchange shadowed a traced %s", opNames[o.typ])
		}
	}
	res.set("client.loopback_us", "us", float64(loopNs)/float64(loopEnvs)/1e3, int(loopEnvs))
	var observed, explained float64
	for _, o := range ranTraced {
		observed += float64(o.end - o.start)
		explained += float64(lk.busy[o.id]) + echoNs[o.typ]
	}
	res.set("trace.unexplained_frac", "ratio", 1-explained/observed, len(ranTraced))
	res.set("trace.unmatched_spans", "count", float64(lk.unmatched), len(lk.spans))

	rate := func(ph int32) float64 {
		recs := 0
		for _, o := range all {
			if o.phase == ph {
				recs += o.records
			}
		}
		return float64(recs) / bounds[ph].seconds()
	}
	res.set("trace.overhead_frac", "ratio", rate(phTimed)/rate(phTraced)-1, len(all))
	return nil
}

// timeMerges times Sketch.Merge of each envelope into a fresh copy of
// its group's state in the reference.
func timeMerges(ref *server.Server, smp []rec, reps int) (nsPerOp, allocsPerOp float64, err error) {
	snaps, err := ref.Snapshots()
	if err != nil {
		return 0, 0, err
	}
	type gkey struct {
		stream string
		kind   sketch.Kind
		digest uint64
	}
	state := make(map[gkey][]byte, len(snaps))
	for _, s := range snaps {
		state[gkey{s.Stream, s.Kind, s.Digest}] = s.Envelope
	}
	var total time.Duration
	var mallocs uint64
	var before, after runtime.MemStats
	for i := 0; i < len(smp)*reps; i++ {
		r := smp[i%len(smp)]
		kind, digest, _ := sketch.PeekHeader(r.env)
		dst, err := sketch.Open(state[gkey{r.stream, kind, digest}])
		if err != nil {
			return 0, 0, fmt.Errorf("group state of %s: %w", r.stream, err)
		}
		src, err := sketch.Open(r.env)
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err = dst.Merge(src)
		total += time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	n := float64(len(smp) * reps)
	return float64(total.Nanoseconds()) / n, float64(mallocs) / n, nil
}

// timeAppends times Log.AppendNamed of n sample records to a fresh
// log in dir, synced as the durable workload's coordinator syncs.
func timeAppends(dir string, smp []rec, n int) (float64, int, error) {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return 0, 0, err
	}
	if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
		l.Close()
		return 0, 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r := smp[i%len(smp)]
		if err := l.AppendNamed(r.stream, r.env); err != nil {
			l.Close()
			return 0, 0, err
		}
	}
	d := time.Since(t0)
	if err := l.Close(); err != nil {
		return 0, 0, err
	}
	return float64(d.Nanoseconds()) / float64(n), n, nil
}

// timeReplay opens the log in dir and replays it into a fresh
// coordinator, returning the replay rate in MB/s.
func timeReplay(dir string) (float64, int, error) {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	srv := server.New(server.Config{})
	t0 := time.Now()
	st, err := l.Replay(srv.AbsorbNamed)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	return float64(st.Bytes) / 1e6 / d.Seconds(), int(st.Records), nil
}

// echoServer answers every frame with a fixed ack and does nothing
// else: the loopback and framing cost of an exchange with no
// coordinator work behind it.
type echoServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	reply []byte
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, reply: wire.EncodeFrame(wire.MsgAck, wire.Ack{Code: wire.AckOK}.Encode())}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.wg.Add(1)
			go e.serve(c)
		}
	}()
	return e, nil
}

func (e *echoServer) serve(c net.Conn) {
	defer e.wg.Done()
	defer c.Close()
	hdr := make([]byte, wire.HeaderSize)
	for {
		if _, err := io.ReadFull(c, hdr); err != nil {
			return
		}
		if _, err := io.CopyN(io.Discard, c, int64(binary.LittleEndian.Uint32(hdr[4:8]))); err != nil {
			return
		}
		if _, err := c.Write(e.reply); err != nil {
			return
		}
	}
}

func (e *echoServer) close() {
	e.ln.Close()
	e.wg.Wait()
}

// exchange is one client call's shape against the echo server:
// encode the payloads, dial, then send each framed and read the reply.
// It returns the time taken and the number of messages sent.
func (e *echoServer) exchange(t wire.MsgType, payloads func() ([][]byte, error)) (time.Duration, int, error) {
	t0 := time.Now()
	ps, err := payloads()
	if err != nil {
		return 0, 0, err
	}
	conn, err := net.DialTimeout("tcp", e.ln.Addr().String(), 5*time.Second)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	for _, p := range ps {
		if err := conn.SetDeadline(time.Now().Add(15 * time.Second)); err != nil {
			return 0, 0, err
		}
		if _, err := conn.Write(wire.EncodeFrame(t, p)); err != nil {
			return 0, 0, err
		}
		if _, _, err := wire.ReadFrame(conn, 0); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(t0), len(ps), nil
}
