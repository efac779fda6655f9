package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"gpssn/internal/core"
	"gpssn/internal/socialnet"
)

// tinyCfg keeps harness tests fast: ~1% of the paper's sizes.
func tinyCfg() RunConfig {
	return RunConfig{Scale: 0.01, Queries: 3, Seed: 1, BaselineSamples: 3}
}

func TestGetEnvCaches(t *testing.T) {
	spec := EnvSpec{Kind: UNI, Scale: 0.01, Seed: 5}
	a, err := GetEnv(spec)
	if err != nil {
		t.Fatalf("GetEnv: %v", err)
	}
	b, err := GetEnv(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical specs should share an environment")
	}
	c, err := GetEnv(EnvSpec{Kind: UNI, Scale: 0.01, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds must not share an environment")
	}
}

func TestEnvSpecDefaults(t *testing.T) {
	s := EnvSpec{Kind: ZIPF}.withDefaults()
	if s.Scale != 1 || s.RoadVertices != 30000 || s.Users != 30000 || s.POIs != 10000 {
		t.Errorf("defaults wrong: %+v", s)
	}
	if s.RoadPivots != 5 || s.SocialPivots != 5 || s.RMin != 0.5 || s.RMax != 4 {
		t.Errorf("index defaults wrong: %+v", s)
	}
}

func TestQueryUsersHaveFriends(t *testing.T) {
	env, err := GetEnv(EnvSpec{Kind: UNI, Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	users := env.QueryUsers(5, 3)
	if len(users) != 5 {
		t.Fatalf("got %d users", len(users))
	}
	seen := map[socialnet.UserID]bool{}
	for _, u := range users {
		if env.DS.Social.Degree(u) == 0 {
			t.Errorf("user %d has no friends", u)
		}
		if seen[u] {
			t.Errorf("duplicate user %d", u)
		}
		seen[u] = true
	}
}

func TestRunQueriesAggregates(t *testing.T) {
	env, err := GetEnv(EnvSpec{Kind: UNI, Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := defaultParams()
	p.Gamma, p.Theta, p.Tau = 0.2, 0.3, 3 // permissive for a tiny dataset
	agg, err := env.RunQueries(p, env.QueryUsers(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Queries != 4 {
		t.Errorf("Queries = %d", agg.Queries)
	}
	if d, cut := agg.CPU.Quantile(0.5); d <= 0 || cut {
		t.Errorf("CPU median = %s (censored %v)", d, cut)
	}
	if agg.AvgIO <= 0 {
		t.Error("AvgIO missing")
	}
	if agg.Sum.SNUsersTotal != 4*env.DS.Social.NumUsers() {
		t.Error("stats not aggregated")
	}
}

// TestAggExcludesCacheHits pins the aggregation contract for cached
// queries: a CacheHit stat bumps the hit counter but contributes nothing to
// the cost averages or pruning sums, so cache lookups can never dilute the
// paper's CPU/I-O figures.
func TestAggExcludesCacheHits(t *testing.T) {
	var agg Agg
	agg.Add(true, core.Stats{CPUTime: 100 * time.Millisecond, PageReads: 40, CandUsers: 7})
	agg.Add(true, core.Stats{CPUTime: 300 * time.Millisecond, PageReads: 80, CandUsers: 9})
	// A cache hit: counters zeroed by the facade, flag set.
	agg.Add(true, core.Stats{CacheHit: true})

	if agg.Queries != 3 || agg.Found != 3 {
		t.Errorf("Queries/Found = %d/%d, want 3/3", agg.Queries, agg.Found)
	}
	if agg.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", agg.CacheHits)
	}
	// Quantiles and averages are over the 2 real queries, not 3: with the
	// hit's zero the lower quartile would read 0.
	for _, q := range []struct {
		p    float64
		want time.Duration
	}{{0.25, 100 * time.Millisecond}, {0.5, 100 * time.Millisecond}, {0.75, 300 * time.Millisecond}} {
		if d, _ := agg.CPU.Quantile(q.p); d != q.want {
			t.Errorf("CPU p%.0f = %s, want %s (hit excluded)", 100*q.p, d, q.want)
		}
	}
	if agg.AvgIO != 60 {
		t.Errorf("AvgIO = %v, want 60 (hit excluded)", agg.AvgIO)
	}
	if agg.Sum.CandUsers != 16 {
		t.Errorf("Sum.CandUsers = %d, want 16", agg.Sum.CandUsers)
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	all := []string{
		"table2", "fig7a", "fig7b", "fig7c", "fig7d", "fig8",
		"fig9", "fig10", "fig11",
		"appP-gamma", "appP-theta", "appP-r", "appP-pivots", "appP-vs",
		"ablation-indexpruning", "ablation-distance",
		"ablation-oracle",
		"ext-metrics", "ext-topk",
	}
	for _, name := range all {
		if _, ok := Find(name); !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if len(Experiments()) != len(all) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(all))
	}
	// The million-scale tier and the answer digest run only when named:
	// findable, listed in the CLI help, never part of the set `-exp all`
	// iterates.
	for _, name := range []string{"scale1m", "digest"} {
		if _, ok := Find(name); !ok {
			t.Errorf("opt-in experiment %s must be findable by name", name)
		}
		for _, e := range Experiments() {
			if e.Name == name {
				t.Errorf("%s must not be in the -exp all set", name)
			}
		}
	}
	if len(SortedNames()) != len(all)+2 {
		t.Error("SortedNames incomplete")
	}
	for _, gone := range []string{"choracle", "hublabel", "parallel", "serve", "churn", "walchurn",
		"ablation-sampling", "ablation-choracle", "ablation-rtree", "nope"} {
		if _, ok := Find(gone); ok {
			t.Errorf("Find(%q) should miss", gone)
		}
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := runTable2(&buf, tinyCfg()); err != nil {
		t.Fatalf("table2: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Bri+Cal", "Gow+Col", "UNI", "ZIPF"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig7Family(t *testing.T) {
	for _, name := range []string{"fig7a", "fig7b", "fig7c", "fig7d"} {
		exp, _ := Find(name)
		var buf bytes.Buffer
		if err := exp.Run(&buf, tinyCfg()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "UNI") {
			t.Errorf("%s output missing dataset rows:\n%s", name, buf.String())
		}
	}
}

func TestRunFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig8(&buf, tinyCfg()); err != nil {
		t.Fatalf("fig8: %v", err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Errorf("fig8 output:\n%s", buf.String())
	}
}

func TestRunSweepExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps build several environments")
	}
	for _, name := range []string{"fig9", "appP-gamma", "appP-theta", "appP-r"} {
		exp, _ := Find(name)
		var buf bytes.Buffer
		if err := exp.Run(&buf, tinyCfg()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(buf.String(), "\n")
		if lines < 11 { // header + 2 datasets x 5 values
			t.Errorf("%s produced %d lines:\n%s", name, lines, buf.String())
		}
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations build several environments")
	}
	// ablation-oracle is a build-time option: it goes through the
	// product's constructor, not just the engine switches.
	for _, name := range []string{"ablation-indexpruning", "ablation-oracle"} {
		exp, _ := Find(name)
		var buf bytes.Buffer
		if err := exp.Run(&buf, tinyCfg()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "variant") {
			t.Errorf("%s output missing variant rows:\n%s", name, buf.String())
		}
	}
}

// TestNearestRank pins the quantile rule shared by the harness columns and
// scale1m: index ⌈p·n⌉−1, so the top percentiles of a small sample reach
// its maximum.
func TestNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1, 0.25, 0}, {1, 0.5, 0}, {1, 0.99, 0},
		{4, 0.25, 0}, {4, 0.5, 1}, {4, 0.75, 2}, {4, 0.9, 3}, {4, 0.99, 3},
		{8, 0.25, 1}, {8, 0.5, 3}, {8, 0.75, 5}, {8, 0.9, 7}, {8, 0.99, 7},
		{100, 0.25, 24}, {100, 0.5, 49}, {100, 0.75, 74}, {100, 0.9, 89}, {100, 0.99, 98}, {100, 1, 99},
	} {
		if got := nearestRank(c.p, c.n); got != c.want {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// TestSampleCensoredQuantiles: censored issuers rank above every completed
// one, and a quantile landing on one reports it instead of a number; AvgIO
// averages over every issuer, a censored one with its reads up to the cut.
func TestSampleCensoredQuantiles(t *testing.T) {
	var agg Agg
	for _, ms := range []int{40, 10, 30, 20, 50, 60} {
		agg.Add(true, core.Stats{CPUTime: time.Duration(ms) * time.Millisecond, PageReads: 10})
	}
	agg.AddCensored(core.Stats{PageReads: 50})
	agg.AddCensored(core.Stats{PageReads: 90})
	if agg.Queries != 8 || agg.Completed() != 6 || agg.Censored != 2 {
		t.Fatalf("Queries/Completed/Censored = %d/%d/%d", agg.Queries, agg.Completed(), agg.Censored)
	}
	if agg.AvgIO != 25 {
		t.Errorf("AvgIO = %v, want 25 (cut issuers count their reads up to the cut)", agg.AvgIO)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
		cut  bool
	}{{0.25, 20 * time.Millisecond, false}, {0.5, 40 * time.Millisecond, false}, {0.75, 60 * time.Millisecond, false}, {0.9, QueryDeadline, true}} {
		if d, cut := agg.CPU.Quantile(c.p); d != c.want || cut != c.cut {
			t.Errorf("p%.0f = %s (cut %v), want %s (cut %v)", 100*c.p, d, cut, c.want, c.cut)
		}
	}
	if got, want := agg.CPU.String(), "40ms [20ms, 60ms]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	agg.AddCensored(core.Stats{})
	agg.AddCensored(core.Stats{})
	if got, want := agg.CPU.String(), "50ms [30ms, ≥1s]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	for i := 0; i < 5; i++ {
		agg.AddCensored(core.Stats{})
	}
	if got, want := agg.CPU.String(), "≥1s [40ms, ≥1s]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestPairsMedianRobustToCensoring: Fig 7(d)'s median reads completed
// issuers only, so one outlier issuer that finishes inside QueryDeadline
// in one run and is cut off in the next moves it by at most one rank —
// where it moves the mean by the outlier's whole count.
func TestPairsMedianRobustToCensoring(t *testing.T) {
	const outlier = 5_840_000
	for _, n := range []int{1, 4, 5, 52, 53} {
		var done, cut Agg
		sorted := []int64{outlier}
		for i := 0; i < n; i++ {
			c := int64((i*7919)%n) * 1000 // a permutation of 0..n-1, scaled
			done.Add(true, core.Stats{PairsEvaluated: c})
			cut.Add(true, core.Stats{PairsEvaluated: c})
			sorted = append(sorted, c)
		}
		done.Add(true, core.Stats{PairsEvaluated: outlier})
		cut.AddCensored(core.Stats{})
		slices.Sort(sorted)
		rank := func(v int64) int {
			i, ok := slices.BinarySearch(sorted, v)
			if !ok {
				t.Fatalf("n=%d: median %d is not a sample value", n, v)
			}
			return i
		}
		a, b := rank(done.PairsQuantile(0.5)), rank(cut.PairsQuantile(0.5))
		if a-b < 0 || a-b > 1 {
			t.Errorf("n=%d: censoring the outlier moved the median from rank %d to %d", n, a, b)
		}
		meanDone := float64(done.Sum.PairsEvaluated) / float64(done.Completed())
		meanCut := float64(cut.Sum.PairsEvaluated) / float64(cut.Completed())
		if meanDone-meanCut < outlier/float64(n+1)-float64(n)*1000 {
			t.Errorf("n=%d: mean moved only %v", n, meanDone-meanCut)
		}
	}
}
