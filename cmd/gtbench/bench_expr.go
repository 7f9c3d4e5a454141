package main

// The -bench-expr mode: microbenchmarks for the set-expression query
// evaluator — the in-process AnswerExpr path a MsgQueryExpr frame
// triggers. Each shape prices one evaluator behavior: the leaf
// clone-and-estimate baseline, the merge-backed union, the
// SetCombiner-backed nested intersection, a deep union spine, and the
// scalar Jaccard root. The checked-in snapshot lives at
// BENCH_expr.json in the repository root; regenerate it on a quiet
// machine with:
//
//	go run ./cmd/gtbench -bench-expr BENCH_expr.json

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/wire"
)

// exprBenchReport is the BENCH_expr.json layout.
type exprBenchReport struct {
	Tool string `json:"tool"`
	Note string `json:"note"`
	machine
	Sketch  exprBenchSketch   `json:"sketch"`
	Queries []exprBenchResult `json:"queries"`
}

// exprBenchSketch records the fixture configuration the timings
// depend on.
type exprBenchSketch struct {
	Kind     string `json:"kind"`
	Capacity int    `json:"capacity"`
	Copies   int    `json:"copies"`
	Streams  int    `json:"streams"`
	Distinct int    `json:"distinct_per_stream"`
}

// exprBenchResult is one expression shape's price.
type exprBenchResult struct {
	Name        string  `json:"name"`
	Expr        string  `json:"expr"`
	Nodes       int     `json:"nodes"`
	NsPerQuery  float64 `json:"query_ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// exprBenchServer builds an in-process coordinator holding the named
// gt streams the benchmark queries walk.
func exprBenchServer(streams, distinct int) (*server.Server, error) {
	srv := server.New(server.Config{})
	for i := 0; i < streams; i++ {
		est := core.NewEstimator(core.EstimatorConfig{Capacity: 256, Copies: 5, Seed: 42})
		for x := 0; x < distinct; x++ {
			// Half the labels are shared across every stream so the
			// intersections and differences have real mass.
			label := uint64(x)
			if x >= distinct/2 {
				label = uint64(i*distinct + x)
			}
			est.Process(label*2654435761 + 1)
		}
		env, err := sketch.Envelope(est)
		if err != nil {
			return nil, err
		}
		if err := srv.AbsorbNamed(fmt.Sprintf("s%d", i), env); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// benchExprQuery prices one expression through AnswerExpr.
func benchExprQuery(srv *server.Server, name string, e *wire.QueryExpr) (exprBenchResult, error) {
	eq := wire.ExprQuery{Expr: e}
	if _, err := srv.AnswerExpr(eq); err != nil {
		return exprBenchResult{}, fmt.Errorf("%s: %w", name, err)
	}
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srv.AnswerExpr(eq); err != nil {
				benchErr = err
				b.Fatal(err)
			}
		}
	})
	if benchErr != nil {
		return exprBenchResult{}, benchErr
	}
	return exprBenchResult{
		Name:        name,
		Expr:        e.String(),
		Nodes:       len(e.Leaves(nil)),
		NsPerQuery:  float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
	}, nil
}

// runBenchExpr measures the evaluator shapes and writes the JSON
// report to path ("-" = stdout).
func runBenchExpr(path string) error {
	const (
		streams  = 4
		distinct = 20000
	)
	srv, err := exprBenchServer(streams, distinct)
	if err != nil {
		return err
	}

	deep := wire.Leaf("s0")
	for i := 1; i < 16; i++ {
		deep = wire.Union(deep, wire.Leaf(fmt.Sprintf("s%d", i%streams)))
	}
	shapes := []struct {
		name string
		expr *wire.QueryExpr
	}{
		{"leaf", wire.Leaf("s0")},
		{"union", wire.Union(wire.Leaf("s0"), wire.Leaf("s1"))},
		{"intersect", wire.Intersect(wire.Leaf("s0"), wire.Leaf("s1"))},
		{"nested", wire.Diff(wire.Intersect(wire.Union(wire.Leaf("s0"), wire.Leaf("s1")), wire.Leaf("s2")), wire.Leaf("s3"))},
		{"deep-union-16", deep},
		{"jaccard", wire.Jaccard(wire.Leaf("s0"), wire.Leaf("s1"))},
	}

	report := exprBenchReport{
		Tool:    "gtbench -bench-expr",
		Note:    "set-expression evaluation (AnswerExpr) per shape on an in-process coordinator; regenerate with: go run ./cmd/gtbench -bench-expr BENCH_expr.json",
		machine: thisMachine(),
		Sketch:  exprBenchSketch{Kind: "gt", Capacity: 256, Copies: 5, Streams: streams, Distinct: distinct},
	}
	for _, s := range shapes {
		res, err := benchExprQuery(srv, s.name, s.expr)
		if err != nil {
			return err
		}
		report.Queries = append(report.Queries, res)
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
