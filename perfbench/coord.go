package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// span is one timed interval. op ties the spans of one push or query
// together; parent is the id of the span that caused it (0 for a
// client call, which is a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects the server-side spans seen on one listener.
type spanLog struct {
	mu    sync.Mutex // guards: spans
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// fanIn is the net.Listener handed to server.Serve. It accepts on one
// loopback port per load goroutine, so a server-side request can be
// attributed to the goroutine (and so the call) that sent it, and it
// reports when Serve first accepts — the end of set-up. While tracing
// is on, accepted connections record a server.busy span per request:
// from the last request byte read to the first reply byte written.
type fanIn struct {
	lns   []net.Listener
	conns chan net.Conn
	quit  chan struct{}
	wg    sync.WaitGroup

	ready     chan struct{} // closed when Serve first calls Accept
	readyOnce sync.Once
	closeOnce sync.Once

	epoch   time.Time
	tracing atomic.Bool
	logs    []*spanLog
}

func newFanIn(ports int, epoch time.Time) (*fanIn, error) {
	f := &fanIn{
		conns: make(chan net.Conn),
		quit:  make(chan struct{}),
		ready: make(chan struct{}),
		epoch: epoch,
	}
	for i := 0; i < ports; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range f.lns {
				l.Close()
			}
			return nil, err
		}
		f.lns = append(f.lns, ln)
		f.logs = append(f.logs, &spanLog{})
	}
	f.wg.Add(len(f.lns))
	for i, ln := range f.lns {
		go f.acceptLoop(ln, f.logs[i])
	}
	return f, nil
}

func (f *fanIn) acceptLoop(ln net.Listener, log *spanLog) {
	defer f.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // closed by Close; the server sees net.ErrClosed
		}
		if f.tracing.Load() {
			c = &tracedConn{Conn: c, log: log, epoch: f.epoch}
		}
		select {
		case f.conns <- c:
		case <-f.quit:
			c.Close()
			return
		}
	}
}

// addr returns the loopback address of port i.
func (f *fanIn) addr(i int) string { return f.lns[i].Addr().String() }

func (f *fanIn) Accept() (net.Conn, error) {
	f.readyOnce.Do(func() { close(f.ready) })
	select {
	case c := <-f.conns:
		return c, nil
	case <-f.quit:
		return nil, net.ErrClosed
	}
}

func (f *fanIn) Close() error {
	f.closeOnce.Do(func() {
		close(f.quit)
		for _, ln := range f.lns {
			ln.Close()
		}
		f.wg.Wait()
	})
	return nil
}

func (f *fanIn) Addr() net.Addr { return f.lns[0].Addr() }

// tracedConn times each request on a server connection. The server
// reads and writes a connection from one goroutine, and the protocol
// is stop-and-wait, so the last read before a write ends a request.
type tracedConn struct {
	net.Conn
	log      *spanLog
	epoch    time.Time
	lastRead time.Time
	pending  bool
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead = time.Now()
		c.pending = true
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.pending {
		c.pending = false
		c.log.add(span{Name: "server.busy", Start: int64(c.lastRead.Sub(c.epoch)), End: int64(time.Since(c.epoch))})
	}
	return c.Conn.Write(p)
}

// coord is one running coordinator.
type coord struct {
	srv   *server.Server
	ln    *fanIn
	done  chan error
	setup time.Duration
}

// startCoord stands up a coordinator and times its set-up: listener,
// New, Serve ready (which includes opening and replaying walDir when
// set), and the preload absorbs.
func startCoord(in *inputs, walDir string, ports int, epoch time.Time) (*coord, error) {
	t0 := time.Now()
	ln, err := newFanIn(ports, epoch)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{}
	if walDir != "" {
		cfg.WAL = &server.WALConfig{Dir: walDir, Sync: wal.SyncNever}
	}
	c := &coord{srv: server.New(cfg), ln: ln, done: make(chan error, 1)}
	go func() { c.done <- c.srv.Serve(ln) }()
	select {
	case <-ln.ready:
	case err := <-c.done:
		ln.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	for _, r := range in.preload {
		if err := c.srv.AbsorbNamed(r.stream, r.env); err != nil {
			c.stop()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	c.setup = time.Since(t0)
	return c, nil
}

// stop shuts the coordinator down and waits for Serve to return.
func (c *coord) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := c.srv.Shutdown(ctx)
	if serr := <-c.done; serr != nil && !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	c.ln.Close()
	return err
}
