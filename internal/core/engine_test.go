package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/pivot"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// smallDataset generates a dataset small enough for the brute-force oracle.
func smallDataset(t testing.TB, seed int64) *model.Dataset {
	t.Helper()
	ds, err := gen.Synthetic(gen.Config{
		Name: "engine-test", Seed: seed,
		RoadVertices: 120, SocialUsers: 60, POIs: 40, Topics: 6,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

func buildEngine(t testing.TB, ds *model.Dataset, opts Options) *Engine {
	t.Helper()
	rp := pivot.RandomRoad(ds.Road, 4, 11)
	road, err := index.BuildRoad(ds, index.RoadConfig{Pivots: rp, RMin: 0.5, RMax: 4})
	if err != nil {
		t.Fatalf("BuildRoad: %v", err)
	}
	sp := pivot.RandomSocial(ds.Social, 3, 12)
	social, err := index.BuildSocial(ds, index.SocialConfig{
		RoadPivots: road.Pivots, SocialPivots: sp, LeafSize: 16, Fanout: 4,
	})
	if err != nil {
		t.Fatalf("BuildSocial: %v", err)
	}
	return NewEngine(ds, road, social, opts)
}

// checkFeasible verifies the six predicates of Definition 5 on a result.
func checkFeasible(t *testing.T, ds *model.Dataset, uq socialnet.UserID, p Params, res Result) {
	t.Helper()
	if !res.Found {
		t.Fatal("result not found")
	}
	if len(res.S) != p.Tau {
		t.Fatalf("|S| = %d, want tau = %d", len(res.S), p.Tau)
	}
	hasUq := false
	for _, u := range res.S {
		if u == uq {
			hasUq = true
		}
	}
	if !hasUq {
		t.Fatal("S must contain the query issuer")
	}
	if !ds.Social.IsConnectedSet(res.S) {
		t.Fatalf("S = %v is not connected", res.S)
	}
	for i, u := range res.S {
		for _, v := range res.S[i+1:] {
			if s := Similarity(p.Metric, ds.Users[u].Interests, ds.Users[v].Interests); s < p.Gamma-1e-12 {
				t.Fatalf("pair (%d,%d) similarity %v < gamma %v", u, v, s, p.Gamma)
			}
		}
	}
	// Pairwise POI distance <= 2r.
	for i, a := range res.R {
		for _, b := range res.R[i+1:] {
			d := ds.Road.DistAttach(ds.POIs[a].At, ds.POIs[b].At)
			if d > 2*p.R+1e-9 {
				t.Fatalf("POIs %d,%d are %v apart > 2r=%v", a, b, d, 2*p.R)
			}
		}
	}
	// Matching threshold for every user.
	kws := NewTopicSet(ds.NumTopics)
	for _, o := range res.R {
		for _, k := range ds.POIs[o].Keywords {
			kws.Add(k)
		}
	}
	for _, u := range res.S {
		if m := MatchScoreSet(ds.Users[u].Interests, kws); m < p.Theta-1e-12 {
			t.Fatalf("user %d match %v < theta %v", u, m, p.Theta)
		}
	}
	// Reported MaxDist is the true maximum distance.
	maxd := 0.0
	for _, u := range res.S {
		for _, o := range res.R {
			if d := ds.Road.DistAttach(ds.Users[u].At, ds.POIs[o].At); d > maxd {
				maxd = d
			}
		}
	}
	if math.Abs(maxd-res.MaxDist) > 1e-6 {
		t.Fatalf("reported MaxDist %v != recomputed %v", res.MaxDist, maxd)
	}
}

func TestEngineMatchesBaselineOracle(t *testing.T) {
	params := []Params{
		{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.3, Tau: 3, Theta: 0.5, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.1, Tau: 3, Theta: 0.2, R: 1, Metric: MetricDotProduct},
		{Gamma: 0.4, Tau: 4, Theta: 0.4, R: 3, Metric: MetricDotProduct},
		{Gamma: 0.0, Tau: 2, Theta: 0.0, R: 0.5, Metric: MetricDotProduct},
	}
	for seed := int64(1); seed <= 3; seed++ {
		ds := smallDataset(t, seed)
		e := buildEngine(t, ds, Options{})
		oracle := &Baseline{DS: ds}
		for pi, p := range params {
			for _, uq := range []socialnet.UserID{0, 7, 33} {
				got, _, err := e.Query(uq, p)
				if err != nil {
					t.Fatalf("seed %d params %d uq %d: %v", seed, pi, uq, err)
				}
				want, _ := oracle.Query(uq, p)
				if got.Found != want.Found {
					t.Fatalf("seed %d params %d uq %d: found=%v oracle=%v",
						seed, pi, uq, got.Found, want.Found)
				}
				if !got.Found {
					continue
				}
				if math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
					t.Fatalf("seed %d params %d uq %d: cost %v != oracle %v (S=%v R=%v vs S=%v R=%v)",
						seed, pi, uq, got.MaxDist, want.MaxDist, got.S, got.R, want.S, want.R)
				}
				checkFeasible(t, ds, uq, p, got)
			}
		}
	}
}

// TestNoAnchorFailsThetaWithoutDelta pins the exactness of Lemma 1's
// object bound: with no pending update, the keyword distance row of an
// anchor holds exactly its radius-r ball's keywords, so every anchor the
// traversal hands refinement passes u_q's θ-test on its ball. The row can
// hold more only where a stored distance rounded down to float32 past r,
// or lies within the 1e-9 radius slack of it; no query here meets one.
// Run over the oracle test's datasets and parameters, every issuer, under
// the plain graph and under hub labels.
func TestNoAnchorFailsThetaWithoutDelta(t *testing.T) {
	params := []Params{
		{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.3, Tau: 3, Theta: 0.5, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.1, Tau: 3, Theta: 0.2, R: 1, Metric: MetricJaccard},
		{Gamma: 0.4, Tau: 4, Theta: 0.4, R: 3, Metric: MetricHamming},
		{Gamma: 0.0, Tau: 2, Theta: 0.0, R: 0.5, Metric: MetricDotProduct},
	}
	for seed := int64(1); seed <= 3; seed++ {
		ds := smallDataset(t, seed)
		for _, labels := range []bool{false, true} {
			if labels {
				ds.Road.SetDistanceOracle(hl.Build(ds.Road))
			}
			e := buildEngine(t, ds, Options{})
			for pi, p := range params {
				for uq := range ds.Users {
					_, st, err := e.Query(socialnet.UserID(uq), p)
					if err != nil {
						t.Fatal(err)
					}
					if st.AnchorsThetaFailed != 0 {
						t.Fatalf("seed %d labels %v params %d uq %d: %d anchors failed θ on their ball",
							seed, labels, pi, uq, st.AnchorsThetaFailed)
					}
				}
			}
		}
	}
}

// TestEngineAblationsStayExact: every pruning ablation returns the full
// engine's cost, and with index pruning off no node of either index is
// pruned, by any rule.
func TestEngineAblationsStayExact(t *testing.T) {
	ds := smallDataset(t, 9)
	p := Params{Gamma: 0.25, Tau: 3, Theta: 0.4, R: 2, Metric: MetricDotProduct}
	base := buildEngine(t, ds, Options{})
	variants := map[string]Options{
		"no-index-pruning":    {DisableIndexPruning: true},
		"no-distance-pruning": {DisableDistancePruning: true},
		"both-off":            {DisableIndexPruning: true, DisableDistancePruning: true},
	}
	for _, uq := range []socialnet.UserID{2, 19, 44} {
		want, _, err := base.Query(uq, p)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range variants {
			e := buildEngine(t, ds, opts)
			got, st, err := e.Query(uq, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if opts.DisableIndexPruning && (st.RNIndexPruned != 0 || st.SNIndexPruned != 0) {
				t.Fatalf("%s uq %d: index pruning off, yet %d POIs and %d users pruned at nodes",
					name, uq, st.RNIndexPruned, st.SNIndexPruned)
			}
			if got.Found != want.Found {
				t.Fatalf("%s uq %d: found=%v, want %v", name, uq, got.Found, want.Found)
			}
			if got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
				t.Fatalf("%s uq %d: cost %v, want %v", name, uq, got.MaxDist, want.MaxDist)
			}
		}
	}
}

func TestEngineTauOne(t *testing.T) {
	ds := smallDataset(t, 11)
	e := buildEngine(t, ds, Options{})
	p := Params{Gamma: 0.9, Tau: 1, Theta: 0.1, R: 2, Metric: MetricDotProduct}
	res, _, err := e.Query(5, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		if len(res.S) != 1 || res.S[0] != 5 {
			t.Fatalf("tau=1 group = %v", res.S)
		}
		checkFeasible(t, ds, 5, p, res)
	}
	oracle := &Baseline{DS: ds}
	want, _ := oracle.Query(5, p)
	if res.Found != want.Found || (res.Found && math.Abs(res.MaxDist-want.MaxDist) > 1e-6) {
		t.Fatalf("tau=1 mismatch: %+v vs oracle %+v", res, want)
	}
}

// TestProbeIncumbentSound pins the probe (which grows its group through
// greedyGroup) against the Baseline at τ=1 and τ=3: whatever it finds is a
// feasible pair costing no less than the optimum, and the query seeded with
// it still returns the optimum.
func TestProbeIncumbentSound(t *testing.T) {
	for _, tau := range []int{1, 3} {
		p := Params{Gamma: 0.2, Tau: tau, Theta: 0.3, R: 2, Metric: MetricDotProduct}
		found := 0
		for seed := int64(1); seed <= 3; seed++ {
			ds := smallDataset(t, seed)
			e := buildEngine(t, ds, Options{})
			oracle := &Baseline{DS: ds}
			for _, uq := range []socialnet.UserID{0, 7, 33} {
				want, _ := oracle.Query(uq, p)
				var st Stats
				ar := e.acquireArena()
				pr := e.probe(uq, p, e.newQctx(&st), ar)
				e.releaseArena(ar)
				if pr.Found {
					found++
					checkFeasible(t, ds, uq, p, pr)
					if !want.Found || pr.MaxDist < want.MaxDist-1e-9 {
						t.Fatalf("tau %d seed %d uq %d: probe cost %v beats the optimum %+v", tau, seed, uq, pr.MaxDist, want)
					}
				}
				got, _, err := e.Query(uq, p)
				if err != nil {
					t.Fatal(err)
				}
				if got.Found != want.Found || (got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6) {
					t.Fatalf("tau %d seed %d uq %d: %+v, oracle %+v", tau, seed, uq, got, want)
				}
			}
		}
		if found == 0 {
			t.Fatalf("tau %d: the probe never found an incumbent; the test checks nothing", tau)
		}
	}
}

func TestEngineInfeasibleGamma(t *testing.T) {
	ds := smallDataset(t, 12)
	e := buildEngine(t, ds, Options{})
	// Gamma far above any achievable dot product.
	p := Params{Gamma: 50, Tau: 3, Theta: 0.1, R: 2, Metric: MetricDotProduct}
	res, st, err := e.Query(3, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("impossible gamma should find nothing")
	}
	if st.SNObjPruned+st.SNIndexPruned == 0 {
		t.Error("expected heavy user pruning")
	}
}

func TestEngineParamValidation(t *testing.T) {
	ds := smallDataset(t, 13)
	e := buildEngine(t, ds, Options{})
	bad := []Params{
		{Gamma: 0.2, Tau: 0, Theta: 0.2, R: 2},            // tau < 1
		{Gamma: -1, Tau: 2, Theta: 0.2, R: 2},             // gamma < 0
		{Gamma: 0.2, Tau: 2, Theta: -0.5, R: 2},           // theta < 0
		{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 0},            // r = 0
		{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 99},           // r > rmax
		{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 2, Metric: 9}, // bad metric
	}
	for i, p := range bad {
		if _, _, err := e.Query(0, p); err == nil {
			t.Errorf("params %d should be rejected", i)
		}
	}
	if _, _, err := e.Query(socialnet.UserID(len(ds.Users)), DefaultParams()); err == nil {
		t.Error("out-of-range user should be rejected")
	}
}

// TestEngineDeterministic repeats one query: the answer must repeat at the
// default Parallelism, and the page reads at Parallelism 1 (above it the
// anchor stream's reads depend on when the keeper's bound falls).
func TestEngineDeterministic(t *testing.T) {
	ds := smallDataset(t, 14)
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	for _, par := range []int{0, 1} {
		e := buildEngine(t, ds, Options{Parallelism: par})
		a, sa, err := e.Query(8, p)
		if err != nil {
			t.Fatal(err)
		}
		b, sb, err := e.Query(8, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Found != b.Found || (a.Found && (a.MaxDist != b.MaxDist || a.Anchor != b.Anchor)) {
			t.Fatalf("P=%d: engine is not deterministic", par)
		}
		if par == 1 && sa.PageReads != sb.PageReads {
			t.Errorf("page reads differ across identical queries: %d vs %d", sa.PageReads, sb.PageReads)
		}
	}
}

func TestEngineStatsSanity(t *testing.T) {
	ds := smallDataset(t, 15)
	e := buildEngine(t, ds, Options{})
	p := Params{Gamma: 0.25, Tau: 3, Theta: 0.4, R: 2, Metric: MetricDotProduct}
	res, st, err := e.Query(4, p)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if st.CPUTime <= 0 {
		t.Error("CPUTime should be positive")
	}
	if st.PageReads <= 0 {
		t.Error("index traversal should incur page reads")
	}
	if st.SNUsersTotal != len(ds.Users) || st.RNPOIsTotal != len(ds.POIs) {
		t.Error("totals wrong")
	}
	if st.SNIndexPruned+st.SNObjPruned > st.SNUsersTotal {
		t.Errorf("pruned more users (%d+%d) than exist (%d)",
			st.SNIndexPruned, st.SNObjPruned, st.SNUsersTotal)
	}
	// The anchor stream partitions the POIs: pruned at a node (the nodes
	// its stop left unexpanded included), pruned as an object, or entered.
	if st.RNIndexPruned+st.RNObjPruned+st.CandAnchors != st.RNPOIsTotal {
		t.Errorf("POI partition: %d index-pruned + %d object-pruned + %d anchors != %d POIs",
			st.RNIndexPruned, st.RNObjPruned, st.CandAnchors, st.RNPOIsTotal)
	}
	if st.RNIndexPrunedMatch+st.RNIndexPrunedDist != st.RNIndexPruned {
		t.Error("RN index pruning reasons don't add up")
	}
	if st.SNIndexPrunedInterest+st.SNIndexPrunedDist != st.SNIndexPruned {
		t.Error("SN index pruning reasons don't add up")
	}
	// Object-level reason counters are independent measurements (Fig 7(b)
	// and 7(c) semantics): each is bounded by the total, and together they
	// at least cover every pruned object.
	if st.RNObjPrunedMatch+st.RNObjPrunedDist < st.RNObjPruned {
		t.Error("RN object pruning reasons under-cover the pruned count")
	}
	if st.RNObjPrunedMatch > st.RNPOIsTotal || st.RNObjPrunedDist > st.RNPOIsTotal {
		t.Error("RN object reason counter exceeds total")
	}
	if st.PairsTotalLog2 <= 0 {
		t.Error("pair-space size missing")
	}
}

func TestEngineJaccardAndHammingMetrics(t *testing.T) {
	ds := smallDataset(t, 16)
	e := buildEngine(t, ds, Options{})
	oracle := &Baseline{DS: ds}
	for _, m := range []InterestMetric{MetricJaccard, MetricHamming} {
		p := Params{Gamma: 0.3, Tau: 2, Theta: 0.3, R: 2, Metric: m}
		got, _, err := e.Query(6, p)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want, _ := oracle.Query(6, p)
		if got.Found != want.Found {
			t.Fatalf("%v: found=%v oracle=%v", m, got.Found, want.Found)
		}
		if got.Found {
			if math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
				t.Fatalf("%v: cost %v != oracle %v", m, got.MaxDist, want.MaxDist)
			}
			checkFeasible(t, ds, 6, p, got)
		}
	}
}

func TestBaselineEstimateCost(t *testing.T) {
	ds := smallDataset(t, 17)
	b := &Baseline{DS: ds}
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	est := b.EstimateCost(0, p, 10, 1)
	if est.SampledPairs != 10 {
		t.Errorf("SampledPairs = %d", est.SampledPairs)
	}
	if est.AvgPairTime <= 0 {
		t.Error("AvgPairTime should be positive")
	}
	if est.TotalPairsLog2 <= 0 || est.EstimatedHours <= 0 {
		t.Error("extrapolation missing")
	}
}

func TestStatsSummary(t *testing.T) {
	ds := smallDataset(t, 40)
	e := buildEngine(t, ds, Options{})
	_, st, err := e.Query(2, Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := st.Summary()
	for _, want := range []string{"cpu=", "io=", "candidates", "anchors", "failed θ", "short of companions", "M(u) evaluations", "pairs evaluated"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q: %s", want, sum)
		}
	}
}

// TestQueryTrace runs at Parallelism 1 (both halves of the front inline)
// and 2 (the social half on its own goroutine, whose trace lines join the
// query's after the join), so the race detector covers the second.
func TestQueryTrace(t *testing.T) {
	ds := smallDataset(t, 41)
	p := Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 2}
	for _, par := range []int{1, 2} {
		var buf bytes.Buffer
		e := buildEngine(t, ds, Options{Trace: &buf, Parallelism: par})
		if _, _, err := e.Query(3, p); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{"probe:", "I_S level", "traversal:", "refined:"} {
			if !strings.Contains(out, want) {
				t.Errorf("P=%d: trace missing %q:\n%s", par, want, out)
			}
		}
		if n := strings.Count(out, "anchor stream: nodes expanded="); n != 1 {
			t.Errorf("P=%d: %d anchor stream lines, want 1:\n%s", par, n, out)
		}
		// Tracing must not change the answer.
		plain := buildEngine(t, ds, Options{Parallelism: par})
		a, _, _ := plain.Query(3, p)
		b, _, _ := e.Query(3, p)
		if a.Found != b.Found || (a.Found && a.MaxDist != b.MaxDist) {
			t.Errorf("P=%d: tracing changed the result", par)
		}
	}
}

// uniCold is uni_cold's dataset and indexes for the kernel benchmarks,
// built once per test binary: 7,500 road vertices, 7,500 users, 2,500
// POIs (seed 101), the hub-label oracle, and 16 fixed issuers with a
// friend.
var uniCold struct {
	once    sync.Once
	ds      *model.Dataset
	road    *index.RoadIndex
	social  *index.SocialIndex
	issuers []socialnet.UserID
	err     error
}

// uniColdParams is uni_cold's query shape at its middle radius.
var uniColdParams = Params{Gamma: 0.5, Tau: 4, Theta: 0.5, R: 2, Metric: MetricDotProduct}

// uniColdEngine returns an engine over the uniCold fixture, and its
// issuers.
func uniColdEngine(b *testing.B, opts Options) (*Engine, []socialnet.UserID) {
	b.Helper()
	u := &uniCold
	u.once.Do(func() {
		u.ds, u.err = gen.Synthetic(gen.Config{
			Name: "uni-cold", Seed: 101,
			RoadVertices: 7500, SocialUsers: 7500, POIs: 2500,
		})
		if u.err != nil {
			return
		}
		u.ds.Road.SetDistanceOracle(hl.Build(u.ds.Road))
		rp := pivot.RandomRoad(u.ds.Road, 5, 11)
		if u.road, u.err = index.BuildRoad(u.ds, index.RoadConfig{Pivots: rp, RMin: 0.5, RMax: 4}); u.err != nil {
			return
		}
		u.social, u.err = index.BuildSocial(u.ds, index.SocialConfig{
			RoadPivots: u.road.Pivots, SocialPivots: pivot.RandomSocial(u.ds.Social, 5, 12),
		})
		for uq := socialnet.UserID(0); len(u.issuers) < 16; uq += 467 {
			if u.ds.Social.Degree(uq) > 0 {
				u.issuers = append(u.issuers, uq)
			}
		}
	})
	if u.err != nil {
		b.Fatal(u.err)
	}
	return NewEngine(u.ds, u.road, u.social, opts), u.issuers
}

// BenchmarkTraverse times the query front half as the query runs it — the
// probe and the anchor stream's first settle beside the I_S pass and the
// candidate graph, no refinement — for the 16 uniCold issuers at
// uni_cold's shape (τ = 4, γ = θ = 0.5, r = 2). One op is all 16 issuers;
// P=1 runs the two halves inline, P=2 on two goroutines.
func BenchmarkTraverse(b *testing.B) {
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", par), func(b *testing.B) {
			e, issuers := uniColdEngine(b, Options{Parallelism: par})
			var users int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, uq := range issuers {
					var st Stats
					q := e.newQctx(&st)
					q.arm(context.Background(), Budget{})
					ar, rar := e.acquireArena(), e.acquireArena()
					_, order := e.front(uq, uniColdParams, newSharedKeeper(1), q, ar, rar)
					e.closeAnchorOrder(order, &st)
					e.releaseArena(ar)
					e.releaseArena(rar)
					users += st.CandUsers
				}
			}
			b.ReportMetric(float64(users)/float64(b.N), "cand-users/op")
		})
	}
}
