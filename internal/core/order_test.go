package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/model"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// lazyOrder builds an anchorOrder over exact distances duq, with the
// unresolved keys derived from the lower bounds lb the way newAnchorOrder
// derives them from the traversal's pivot bounds. Each resolution is
// reported to onResolve.
func lazyOrder(duq, lb []float64, onResolve func(id model.POIID)) *anchorOrder {
	o := &anchorOrder{h: make([]anchorEntry, len(duq))}
	for i := range duq {
		o.h[i] = anchorEntry{key: lb[i] * (1 - 1e-9), id: model.POIID(i)}
	}
	o.resolve = func(id model.POIID) float64 {
		onResolve(id)
		return duq[id]
	}
	o.heapify()
	return o
}

// onSlack returns a bound whose heap key is exactly d, so an unresolved
// anchor ties a resolved one of distance d on the key; d itself when no
// float has that key.
func onSlack(d float64) float64 {
	lb := d / (1 - 1e-9)
	for lb*(1-1e-9) > d {
		lb = math.Nextafter(lb, 0)
	}
	for lb*(1-1e-9) < d {
		lb = math.Nextafter(lb, math.Inf(1))
	}
	if lb*(1-1e-9) != d {
		return d
	}
	return lb
}

// TestAnchorHeapOrder checks the lazy anchor order against the eager one it
// replaced: under random exact distances (with exact ties and +Inf), lower
// bounds that are zero, a fraction of the distance, equal to it, one ulp
// above it or whose key is the distance itself, and a stop bound that falls
// between pops, the popped sequence
// is the (duq, id) sort truncated at the first anchor whose duq is +Inf or
// exceeds the bound in force, and no anchor whose key exceeds that bound is
// resolved.
func TestAnchorHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		levels := 1 + rng.Intn(n) // few levels: many exact ties
		duq, lb := make([]float64, n), make([]float64, n)
		for i := range duq {
			switch {
			case rng.Intn(12) == 0:
				duq[i] = math.Inf(1)
			case rng.Intn(12) == 0:
				duq[i] = 0
			default:
				duq[i] = float64(1+rng.Intn(levels)) * 0.37
			}
			switch d := duq[i]; {
			case math.IsInf(d, 1):
				// Pivot bounds are finite: LowerBound skips unreachable
				// pivots.
				lb[i] = rng.Float64() * 0.37 * float64(levels)
			case d == 0:
				lb[i] = 0
			default:
				switch rng.Intn(5) {
				case 0:
					lb[i] = 0
				case 1:
					lb[i] = d
				case 2:
					lb[i] = math.Nextafter(d, math.Inf(1))
				case 3:
					lb[i] = onSlack(d)
				default:
					lb[i] = d * rng.Float64()
				}
			}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int {
			if c := cmp.Compare(duq[a], duq[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})

		bound := math.Inf(1)
		if rng.Intn(2) == 0 {
			bound = 0.37 * float64(rng.Intn(levels+1))
		}
		var got []int
		o := lazyOrder(duq, lb, func(id model.POIID) {
			if key := lb[id] * (1 - 1e-9); key > bound {
				t.Fatalf("trial %d: resolved anchor %d with key %v above the bound %v", trial, id, key, bound)
			}
		})
		for {
			ac, ok := o.next(bound)
			if !ok {
				break
			}
			got = append(got, int(ac.id))
			if ac.key != duq[ac.id] {
				t.Fatalf("trial %d: anchor %d popped with key %v, exact %v", trial, ac.id, ac.key, duq[ac.id])
			}
			if rng.Intn(3) == 0 {
				bound = math.Min(bound, ac.key+0.37*float64(rng.Intn(3)))
			}
			// The eager loop's check for this pop, at the bound it saw.
			if j := len(got) - 1; int(ac.id) != want[j] {
				t.Fatalf("trial %d: pop %d is anchor %d, eager order has %d (duq %v, lb %v)", trial, j, ac.id, want[j], duq, lb)
			}
		}
		// The eager loop would have stopped exactly here.
		if j := len(got); j < n && !math.IsInf(duq[want[j]], 1) && duq[want[j]] <= bound {
			t.Fatalf("trial %d: stopped after %d pops, but anchor %d (duq %v) is within the bound %v", trial, j, want[j], duq[want[j]], bound)
		}
		if o.pops != len(got) || o.resolved > n {
			t.Fatalf("trial %d: pops %d resolved %d for %d popped of %d", trial, o.pops, o.resolved, len(got), n)
		}
	}
}

// TestAnchorDistancesCounted checks Stats.AnchorDistances on a generated
// dataset: with the POI label table the order resolves at most every
// candidate anchor and, summed over the issuers, strictly fewer; without a
// label oracle every candidate's distance comes from the one sweep.
func TestAnchorDistancesCounted(t *testing.T) {
	ds, err := gen.Synthetic(gen.Config{
		Name: "anchor-order", Seed: 34,
		RoadVertices: 600, SocialUsers: 400, POIs: 300, Topics: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 1, Metric: MetricDotProduct}
	issuers := []socialnet.UserID{3, 41, 88, 150, 207, 290, 333, 398}

	plain := buildEngine(t, ds, Options{Parallelism: 1})
	want := make([]Result, len(issuers))
	for i, uq := range issuers {
		res, st, err := plain.Query(uq, p)
		if err != nil {
			t.Fatal(err)
		}
		if st.AnchorDistances != st.CandAnchors {
			t.Errorf("dijkstra, issuer %d: %d anchor distances for %d candidate anchors", uq, st.AnchorDistances, st.CandAnchors)
		}
		want[i] = res
	}

	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	e := buildEngine(t, ds, Options{Parallelism: 1})
	var dists, cands int
	for i, uq := range issuers {
		res, st, err := e.Query(uq, p)
		if err != nil {
			t.Fatal(err)
		}
		if st.AnchorDistances > st.CandAnchors {
			t.Errorf("hl, issuer %d: %d anchor distances for %d candidate anchors", uq, st.AnchorDistances, st.CandAnchors)
		}
		if res.Found != want[i].Found || res.Anchor != want[i].Anchor || !sameDist(res.MaxDist, want[i].MaxDist) {
			t.Errorf("hl, issuer %d: %+v, dijkstra %+v", uq, res, want[i])
		}
		dists += st.AnchorDistances
		cands += st.CandAnchors
	}
	if dists >= cands {
		t.Errorf("hl: %d anchor distances for %d candidate anchors in sum; the order is not lazy", dists, cands)
	}
	t.Logf("hl: %d anchor distances for %d candidate anchors", dists, cands)
}

// BenchmarkAnchorOrder times the lazy anchor order at the size of a cold
// uni_cold query: 1,054 candidate anchors whose pivot bounds are 50–100%
// of their exact distance, popped until the stop bound: 70 resolutions
// and 58 pops.
func BenchmarkAnchorOrder(b *testing.B) {
	const n, bound = 1054, 4.3
	rng := rand.New(rand.NewSource(7))
	duq, lb := make([]float64, n), make([]float64, n)
	for i := range duq {
		duq[i] = rng.Float64() * 100
		lb[i] = duq[i] * (0.5 + rng.Float64()/2)
	}
	o := &anchorOrder{h: make([]anchorEntry, n), resolve: func(id model.POIID) float64 { return duq[id] }}
	var resolved, pops int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.h = o.h[:n]
		for j := range o.h {
			o.h[j] = anchorEntry{key: lb[j] * (1 - 1e-9), id: model.POIID(j)}
		}
		o.resolved, o.pops = 0, 0
		o.heapify()
		for {
			if _, ok := o.next(bound); !ok {
				break
			}
		}
		resolved += o.resolved
		pops += o.pops
	}
	b.ReportMetric(float64(resolved)/float64(b.N), "resolved/op")
	b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
}
