package bench

import (
	"bytes"
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
	if agg.AvgCPU <= 0 {
		t.Error("AvgCPU missing")
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
	// Averages are over the 2 real queries, not 3.
	if agg.AvgCPU != 200*time.Millisecond {
		t.Errorf("AvgCPU = %s, want 200ms (hit excluded)", agg.AvgCPU)
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
		"ablation-pivots", "ablation-indexpruning", "ablation-distance",
		"ablation-rtree", "ablation-sampling", "ablation-choracle",
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
	// The million-scale tier runs only when named: findable, listed in the
	// CLI help, never part of the set `-exp all` iterates.
	if _, ok := Find("scale1m"); !ok {
		t.Error("opt-in experiment scale1m must be findable by name")
	}
	for _, e := range Experiments() {
		if e.Name == "scale1m" {
			t.Error("scale1m must not be in the -exp all set")
		}
	}
	if len(SortedNames()) != len(all)+1 {
		t.Error("SortedNames incomplete")
	}
	for _, gone := range []string{"choracle", "hublabel", "parallel", "serve", "churn", "walchurn", "nope"} {
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
	for _, name := range []string{"ablation-indexpruning", "ablation-sampling"} {
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
