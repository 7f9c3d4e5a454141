package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/server"
	"repro/internal/wire"
)

// reference builds the serial in-process coordinator the run is
// checked against: it absorbs, one at a time, every envelope the
// coordinator took in — the preload, the replayed log, and every
// acked envelope, each distinct one once (fresh envelopes rebuilt
// from their keys).
func reference(in *inputs, acked []int) (*server.Server, error) {
	ref := server.New(server.Config{})
	absorb := func(r rec) error {
		if err := ref.AbsorbNamed(r.stream, r.env); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		return nil
	}
	for _, recs := range [][]rec{in.preload, in.logged} {
		for _, r := range recs {
			if err := absorb(r); err != nil {
				return nil, err
			}
		}
	}
	if err := eachRec(in, acked, absorb); err != nil {
		return nil, err
	}
	return ref, nil
}

// gate checks the coordinator, once the load has stopped, against a
// reference fed the acked envelope keys: every group's merged
// envelope must match byte for byte, and each query shape asked over
// TCP must answer float64-identically to the reference. It returns
// the reference whenever it could be built.
func gate(c *coord, in *inputs, acked []int, l *loader) (*server.Server, error) {
	ref, err := reference(in, acked)
	if err != nil {
		return nil, err
	}
	if err := sameGroups(c.srv, ref); err != nil {
		return ref, err
	}
	for i, q := range queryShapes {
		got, err := l.cl.QueryExpr(exprQuery(i))
		if err != nil {
			return ref, fmt.Errorf("query %s over TCP: %w", q.name, err)
		}
		want, err := ref.AnswerExpr(exprQuery(i))
		if err != nil {
			return ref, fmt.Errorf("query %s on the reference: %w", q.name, err)
		}
		if err := sameAnswer(got, want); err != nil {
			return ref, fmt.Errorf("query %s: %w", q.name, err)
		}
	}
	return ref, nil
}

// sameGroups compares two coordinators' group snapshots.
func sameGroups(got, want *server.Server) error {
	g, err := got.Snapshots()
	if err != nil {
		return err
	}
	w, err := want.Snapshots()
	if err != nil {
		return err
	}
	if len(g) != len(w) {
		return fmt.Errorf("coordinator holds %d groups, reference %d", len(g), len(w))
	}
	for i := range g {
		a, b := g[i], w[i]
		if a.Stream != b.Stream || a.Kind != b.Kind || a.Digest != b.Digest || a.Seed != b.Seed {
			return fmt.Errorf("group %d is %s/%s/%016x, reference %s/%s/%016x", i, a.Stream, a.KindName, a.Digest, b.Stream, b.KindName, b.Digest)
		}
		if !bytes.Equal(a.Envelope, b.Envelope) {
			return fmt.Errorf("group %s/%s/%016x: merged envelope differs from the reference", a.Stream, a.KindName, a.Digest)
		}
	}
	return nil
}

// sameAnswer compares two result trees bit for bit.
func sameAnswer(got, want *wire.ExprResult) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("result tree shapes differ")
	}
	if got == nil {
		return nil
	}
	if got.Op != want.Op || got.Stream != want.Stream {
		return fmt.Errorf("node %s %q, reference %s %q", got.Op, got.Stream, want.Op, want.Stream)
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) || math.Float64bits(got.ErrBound) != math.Float64bits(want.ErrBound) {
		return fmt.Errorf("node %s: %v±%v, reference %v±%v", got.Op, got.Value, got.ErrBound, want.Value, want.ErrBound)
	}
	if err := sameAnswer(got.Left, want.Left); err != nil {
		return err
	}
	return sameAnswer(got.Right, want.Right)
}
