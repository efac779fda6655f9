package core

import (
	"math"
	"testing"

	"gpssn/internal/socialnet"
)

func TestQueryTopKMatchesOracle(t *testing.T) {
	for seed := int64(20); seed <= 21; seed++ {
		ds := smallDataset(t, seed)
		e := buildEngine(t, ds, Options{})
		oracle := &Baseline{DS: ds}
		p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
		for _, uq := range []socialnet.UserID{3, 27} {
			for _, k := range []int{1, 3, 5} {
				got, _, err := e.QueryTopK(uq, p, k)
				if err != nil {
					t.Fatalf("seed %d uq %d k %d: %v", seed, uq, k, err)
				}
				want, _ := oracle.QueryTopK(uq, p, k)
				if len(got) != len(want) {
					t.Fatalf("seed %d uq %d k %d: %d results, oracle %d",
						seed, uq, k, len(got), len(want))
				}
				for i := range got {
					if math.Abs(got[i].MaxDist-want[i].MaxDist) > 1e-6 {
						t.Fatalf("seed %d uq %d k %d: result %d cost %v, oracle %v",
							seed, uq, k, i, got[i].MaxDist, want[i].MaxDist)
					}
					if i > 0 && got[i].MaxDist < got[i-1].MaxDist-1e-12 {
						t.Fatal("top-k results not sorted by cost")
					}
				}
				// Anchors must be distinct.
				seen := map[interface{}]bool{}
				for _, r := range got {
					if seen[r.Anchor] {
						t.Fatalf("duplicate anchor %d in top-k", r.Anchor)
					}
					seen[r.Anchor] = true
				}
			}
		}
	}
}

func TestQueryTopKConsistentWithQuery(t *testing.T) {
	ds := smallDataset(t, 22)
	e := buildEngine(t, ds, Options{})
	p := Params{Gamma: 0.25, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	for _, uq := range []socialnet.UserID{4, 40} {
		single, _, err := e.Query(uq, p)
		if err != nil {
			t.Fatal(err)
		}
		topk, _, err := e.QueryTopK(uq, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		if single.Found != (len(topk) > 0) {
			t.Fatalf("uq %d: Query found=%v but top-k returned %d", uq, single.Found, len(topk))
		}
		if single.Found && math.Abs(single.MaxDist-topk[0].MaxDist) > 1e-9 {
			t.Fatalf("uq %d: Query cost %v != top-1 cost %v", uq, single.MaxDist, topk[0].MaxDist)
		}
	}
}

func TestQueryTopKValidatesK(t *testing.T) {
	ds := smallDataset(t, 23)
	e := buildEngine(t, ds, Options{})
	if _, _, err := e.QueryTopK(0, Params{Gamma: 0.5, Tau: 5, Theta: 0.5, R: 2}, 0); err == nil {
		t.Error("k=0 should be rejected")
	}
}

func TestResultKeeper(t *testing.T) {
	rk := &resultKeeper{k: 2}
	if !math.IsInf(rk.bound(), 1) {
		t.Error("empty keeper bound should be +Inf")
	}
	rk.add(Result{Found: true, Anchor: 1, MaxDist: 5})
	rk.add(Result{Found: true, Anchor: 2, MaxDist: 3})
	if rk.bound() != 5 {
		t.Errorf("bound = %v, want 5", rk.bound())
	}
	// Same anchor, better cost replaces.
	rk.add(Result{Found: true, Anchor: 1, MaxDist: 2})
	if rk.items[0].Anchor != 1 || rk.items[0].MaxDist != 2 {
		t.Errorf("dedupe failed: %+v", rk.items)
	}
	// Same anchor, worse cost ignored.
	rk.add(Result{Found: true, Anchor: 1, MaxDist: 9})
	if rk.items[0].MaxDist != 2 {
		t.Error("worse duplicate should be ignored")
	}
	// Better third anchor evicts the worst.
	rk.add(Result{Found: true, Anchor: 3, MaxDist: 1})
	if len(rk.items) != 2 || rk.items[0].Anchor != 3 || rk.items[1].Anchor != 1 {
		t.Errorf("eviction wrong: %+v", rk.items)
	}
}
