package gpssn

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 6 + Appendix P) plus the DESIGN.md ablations. Each benchmark
// drives the same experiment code as cmd/gpssn-bench at a reduced scale so
// `go test -bench=.` finishes in minutes; run
//
//	go run ./cmd/gpssn-bench -exp all -scale 1
//
// for paper-scale numbers. Experiment environments are cached across
// iterations, so b.N > 1 re-runs queries against warm indexes.

import (
	"io"
	"testing"

	"gpssn/internal/bench"
	"gpssn/internal/core"
)

// benchCfg is the reduced-scale configuration used by the benchmarks.
func benchCfg() bench.RunConfig {
	return bench.RunConfig{Scale: 0.02, Queries: 3, Seed: 1, BaselineSamples: 3}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	exp, ok := bench.Find(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.Run(io.Discard, cfg); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
	}
}

func BenchmarkTable2Stats(b *testing.B)          { runExperiment(b, "table2") }
func BenchmarkFig7a(b *testing.B)                { runExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)                { runExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B)                { runExperiment(b, "fig7c") }
func BenchmarkFig7d(b *testing.B)                { runExperiment(b, "fig7d") }
func BenchmarkFig8(b *testing.B)                 { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)                 { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)                { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)                { runExperiment(b, "fig11") }
func BenchmarkAppPGamma(b *testing.B)            { runExperiment(b, "appP-gamma") }
func BenchmarkAppPTheta(b *testing.B)            { runExperiment(b, "appP-theta") }
func BenchmarkAppPR(b *testing.B)                { runExperiment(b, "appP-r") }
func BenchmarkAppPPivots(b *testing.B)           { runExperiment(b, "appP-pivots") }
func BenchmarkAppPVs(b *testing.B)               { runExperiment(b, "appP-vs") }
func BenchmarkAblationRandomPivots(b *testing.B) { runExperiment(b, "ablation-pivots") }
func BenchmarkAblationNoIndexPruning(b *testing.B) {
	runExperiment(b, "ablation-indexpruning")
}
func BenchmarkAblationNoPivots(b *testing.B)   { runExperiment(b, "ablation-distance") }
func BenchmarkAblationRTreeSplit(b *testing.B) { runExperiment(b, "ablation-rtree") }
func BenchmarkAblationSampling(b *testing.B)   { runExperiment(b, "ablation-sampling") }
func BenchmarkAblationChOracle(b *testing.B)   { runExperiment(b, "ablation-choracle") }

// BenchmarkQueryDefault measures one GP-SSN query at the Table 3 defaults
// against a cached environment (the per-query cost the paper's Figures
// 8-11 report).
func BenchmarkQueryDefault(b *testing.B) {
	env, err := bench.GetEnv(bench.EnvSpec{Kind: bench.UNI, Scale: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	users := env.QueryUsers(16, 5)
	p := core.Params{Gamma: 0.5, Tau: 5, Theta: 0.5, R: 2, Metric: core.MetricDotProduct}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Engine.Query(users[i%len(users)], p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTopK measures the top-k extension.
func BenchmarkQueryTopK(b *testing.B) {
	env, err := bench.GetEnv(bench.EnvSpec{Kind: bench.UNI, Scale: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	users := env.QueryUsers(16, 6)
	p := core.Params{Gamma: 0.5, Tau: 3, Theta: 0.5, R: 2, Metric: core.MetricDotProduct}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.Engine.QueryTopK(users[i%len(users)], p, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures I_R + I_S construction (dataset generation
// excluded via env caching of the dataset-only spec is not possible, so
// the dataset is rebuilt; treat this as an upper bound).
func BenchmarkIndexBuild(b *testing.B) {
	net, err := GenerateSynthetic(SyntheticOptions{
		Seed: 9, RoadVertices: 2000, Users: 2000, POIs: 800,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(net, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtMetrics(b *testing.B) { runExperiment(b, "ext-metrics") }
func BenchmarkExtTopK(b *testing.B)    { runExperiment(b, "ext-topk") }
