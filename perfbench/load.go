package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// opType is the client call an op made.
type opType uint8

const (
	opPush  opType = iota // one-shot client.PushNamed
	opBatch               // client.PushBatchNamed over one connection
	opQuery               // client.QueryExpr
)

var opNames = [...]string{"client.push", "client.batch", "client.query"}

// phases of a run. Load goroutines tag each op with the phase it
// started in; only timed phases feed the metrics.
const (
	phWarm int32 = iota
	phTimed
	phTraced
	phProbe
	phDone
)

// op is one client call as the load generator saw it. Times are
// nanoseconds since the run's epoch.
type op struct {
	typ      opType
	phase    int32
	id       int64
	due      int64 // when the call was due: envelope ready, or its slot
	start    int64
	end      int64
	envs     int // envelopes sent
	records  int // envelopes acked
	fresh    int // of which fresh (new to the coordinator)
	items    int // stream items those envelopes summarize
	attempts int
	failed   bool
	shape    int // query shape
	bytes    int // envelope bytes sent
}

// loader is one load goroutine with its own client and listener port.
type loader struct {
	id    int
	cl    *client.Client
	epoch time.Time
	ops   []op
	acked map[int]int32 // envelope key → phase of its first ack
	seq   int64

	// echo, when set, is the bare loopback server the traced window
	// runs one exchange against before every echoEvery-th call, shaped
	// like that call, so the baseline is taken under the same load.
	echo   *echoServer
	echoed map[opType][]echoSample
}

const echoEvery = 8

// echoSample is one shadow exchange: its time and envelopes carried.
type echoSample struct {
	ns, envs int64
}

// shadow runs the echo exchange for a call about to be made.
func (l *loader) shadow(phase int32, t opType, msg wire.MsgType, payloads func() ([][]byte, error)) {
	if l.echo == nil || phase != phTraced || l.seq%echoEvery != 0 {
		return
	}
	d, n, err := l.echo.exchange(msg, payloads)
	if err == nil {
		l.echoed[t] = append(l.echoed[t], echoSample{ns: d.Nanoseconds(), envs: int64(n)})
	}
}

func newLoader(id int, addr string, epoch time.Time) *loader {
	// Retries are part of what the benchmark measures: keep the
	// client's default attempt budget, with a fixed jitter seed.
	cl := client.New(client.Config{Addr: addr, JitterSeed: int64(id) + 1})
	return &loader{id: id, cl: cl, epoch: epoch, acked: make(map[int]int32), echoed: make(map[opType][]echoSample)}
}

func (l *loader) now() int64 { return int64(time.Since(l.epoch)) }

// begin opens a call. A closed-loop caller passes due < 0: its call
// is due the moment it is ready to send.
func (l *loader) begin(typ opType, phase int32, due int64) op {
	if due < 0 {
		due = l.now()
	}
	l.seq++
	return op{typ: typ, phase: phase, id: int64(l.id)<<40 | l.seq, due: due, start: l.now()}
}

func (l *loader) finish(o op) {
	o.end = l.now()
	l.ops = append(l.ops, o)
}

// push sends one envelope with a one-shot PushNamed.
func (l *loader) push(r rec, phase int32, due int64) {
	l.shadow(phase, opPush, wire.MsgPushNamed, func() ([][]byte, error) {
		p, err := wire.EncodePushNamed(r.stream, r.env)
		return [][]byte{p}, err
	})
	o := l.begin(opPush, phase, due)
	attempts, err := l.cl.PushNamed(r.stream, r.env)
	o.attempts, o.bytes, o.envs = attempts, len(r.env), 1
	if err != nil {
		o.failed = true
	} else {
		o.records, o.items, o.fresh = 1, r.items, b2i(r.key < poolKey)
		l.ack(r, phase)
	}
	l.finish(o)
}

// batch sends recs over one standing connection with PushBatchNamed.
func (l *loader) batch(recs []rec, phase int32, due int64) {
	l.shadow(phase, opBatch, wire.MsgPushNamed, func() ([][]byte, error) {
		ps := make([][]byte, len(recs))
		for i, r := range recs {
			var err error
			if ps[i], err = wire.EncodePushNamed(r.stream, r.env); err != nil {
				return nil, err
			}
		}
		return ps, nil
	})
	o := l.begin(opBatch, phase, due)
	batch := make([]client.Record, len(recs))
	for i, r := range recs {
		batch[i] = client.Record{Stream: r.stream, Envelope: r.env}
		o.bytes += len(r.env)
	}
	pushed, err := l.cl.PushBatchNamed(batch)
	// PushBatchNamed does not report its retries; count one attempt
	// per envelope.
	o.attempts, o.envs = len(recs), len(recs)
	o.failed = err != nil
	o.records = pushed
	for _, r := range recs[:pushed] {
		o.items += r.items
		o.fresh += b2i(r.key < poolKey)
		l.ack(r, phase)
	}
	l.finish(o)
}

// query asks one expression query.
func (l *loader) query(shape int, phase int32, due int64) {
	eq := exprQuery(shape)
	l.shadow(phase, opQuery, wire.MsgQueryExpr, func() ([][]byte, error) {
		p, err := eq.Encode()
		return [][]byte{p}, err
	})
	o := l.begin(opQuery, phase, due)
	o.shape, o.attempts = shape%len(queryShapes), 1
	_, err := l.cl.QueryExpr(eq)
	o.failed = err != nil
	l.finish(o)
}

func (l *loader) ack(r rec, phase int32) {
	if _, ok := l.acked[r.key]; !ok {
		l.acked[r.key] = phase
	}
}

// conductor runs the load goroutines through the phases.
type conductor struct {
	phase atomic.Int32
	stop  chan struct{} // closed at phDone, wakes sleeping open-loop senders
}

// body is one load goroutine's loop; it returns when the phase is
// phDone.
type body func(d *conductor, l *loader)

// site is a closed-loop site: each round takes the next round
// number, feeds its window at its label offset into a fresh gt
// sketch, builds the envelope and pushes it with a one-shot PushNamed.
func siteBody(in *inputs) body {
	return func(d *conductor, l *loader) {
		for {
			ph := d.phase.Load()
			if ph == phDone {
				return
			}
			r, err := in.fresh(in.takeFresh(1)[0])
			if err != nil {
				l.ops = append(l.ops, op{typ: opPush, phase: ph, failed: true})
				continue
			}
			l.push(r, ph, -1)
		}
	}
}

// loaderBody is a closed-loop bulk loader: each PushBatchNamed call
// carries the fresh envelopes due, then fills up with the next pool
// records.
func loaderBody(in *inputs, next *atomic.Int64) body {
	return func(d *conductor, l *loader) {
		for {
			ph := d.phase.Load()
			if ph == phDone {
				return
			}
			var recs []rec
			for _, i := range in.takeFresh(in.batch) {
				recs = append(recs, in.freshPool[i])
			}
			n := in.batch - len(recs)
			recs = append(recs, poolSlice(in.pool, int(next.Add(int64(n))-int64(n)), n)...)
			l.batch(recs, ph, -1)
		}
	}
}

// poolSlice returns n records starting at i, wrapping around pool.
func poolSlice(pool []rec, i, n int) []rec {
	out := make([]rec, n)
	for j := range out {
		out[j] = pool[(i+j)%len(pool)]
	}
	return out
}

// querierBody is an open-loop querier at rate queries/s cycling the
// query shapes; each query is timed from its scheduled send time.
func querierBody(in *inputs, rate float64) body {
	return func(d *conductor, l *loader) {
		interval := time.Duration(float64(time.Second) / rate)
		t0 := time.Now()
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * interval)
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-d.stop:
					t.Stop()
					return
				}
			}
			ph := d.phase.Load()
			if ph == phDone {
				return
			}
			l.query(k, ph, int64(due.Sub(l.epoch)))
		}
	}
}

// probe measures, after the load stops, the client calls whose
// latency the workload's own load does not give — one-shot pushes and
// batches of the workload's own envelopes, and the query shapes
// against its groups — so every workload reports every end-to-end
// latency. One sequential client takes the call types in turn, a
// latency slice of each per round, until every type has minSlices
// slices and d per type has passed: the types then share the same
// stretch of time, and each type's slices spread over all of it.
func probe(in *inputs, l *loader, types []opType, envs []rec, minSlices int, d time.Duration) error {
	if len(envs) == 0 {
		return fmt.Errorf("probe: no envelopes to push")
	}
	// Start from a collected heap, as every run's probe does.
	runtime.GC()
	calls := make(map[opType]int)
	t0 := time.Now()
	for round := 0; round < minSlices || time.Since(t0) < d*time.Duration(len(types)); round++ {
		for _, t := range types {
			for j := 0; j < sliceCalls(t, 0.95); j++ {
				i := calls[t]
				switch t {
				case opPush:
					l.push(envs[i%len(envs)], phProbe, -1)
				case opBatch:
					l.batch(poolSlice(envs, i*in.batch, in.batch), phProbe, -1)
				case opQuery:
					l.query(i, phProbe, -1)
				}
				calls[t]++
			}
		}
	}
	return nil
}

// interval is a phase's bounds in nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

func (iv interval) seconds() float64 { return float64(iv.end-iv.start) / 1e9 }

// runPhases starts one goroutine per body and steps the phase through
// warm-up and the given timed phases; between steps the caller's tick
// runs (heap sampling). It returns each timed phase's bounds.
func runPhases(epoch time.Time, loaders []*loader, bodies []body, warm time.Duration, phases []int32, each time.Duration, onPhase func(int32), tick func()) map[int32]interval {
	d := &conductor{stop: make(chan struct{})}
	d.phase.Store(phWarm)
	var wg sync.WaitGroup
	wg.Add(len(bodies))
	for i, b := range bodies {
		go func(b body, l *loader) {
			defer wg.Done()
			b(d, l)
		}(b, loaders[i])
	}
	time.Sleep(warm)
	bounds := make(map[int32]interval)
	for _, ph := range phases {
		onPhase(ph)
		t0 := time.Now()
		d.phase.Store(ph)
		for time.Since(t0) < each {
			tick()
			time.Sleep(5 * time.Millisecond)
		}
		bounds[ph] = interval{int64(t0.Sub(epoch)), int64(time.Since(epoch))}
	}
	d.phase.Store(phDone)
	close(d.stop)
	wg.Wait()
	onPhase(phDone)
	return bounds
}
