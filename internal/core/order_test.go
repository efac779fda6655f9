package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/model"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// lazyOrder builds an anchorOrder over exact distances duq, with the
// unresolved keys derived from the lower bounds lb the way newAnchorOrder
// derives them from the Lemma 5 pivot bounds. Each resolution is reported
// to onResolve.
func lazyOrder(duq, lb []float64, onResolve func(id model.POIID)) *anchorOrder {
	o := &anchorOrder{}
	for i := range duq {
		o.push(anchorEntry{key: boundKey(lb[i]), id: model.POIID(i)})
	}
	o.resolve = func(id model.POIID) float64 {
		onResolve(id)
		return duq[id]
	}
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
// dataset under plain Dijkstra and hub labels: the order resolves at most
// every candidate anchor per query and, summed over the issuers, strictly
// fewer — every oracle resolves lazily, at the stream's front — and the
// two oracles return the same answers.
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

	want := make([]Result, len(issuers))
	for _, oracle := range []string{"dijkstra", "hl"} {
		if oracle == "hl" {
			ds.Road.SetDistanceOracle(hl.Build(ds.Road))
			defer ds.Road.SetDistanceOracle(nil)
		}
		e := buildEngine(t, ds, Options{Parallelism: 1})
		var dists, cands int
		for i, uq := range issuers {
			res, st, err := e.Query(uq, p)
			if err != nil {
				t.Fatal(err)
			}
			if st.AnchorDistances > st.CandAnchors {
				t.Errorf("%s, issuer %d: %d anchor distances for %d candidate anchors", oracle, uq, st.AnchorDistances, st.CandAnchors)
			}
			if oracle == "dijkstra" {
				want[i] = res
			} else if res.Found != want[i].Found || res.Anchor != want[i].Anchor || !sameDist(res.MaxDist, want[i].MaxDist) {
				t.Errorf("hl, issuer %d: %+v, dijkstra %+v", uq, res, want[i])
			}
			dists += st.AnchorDistances
			cands += st.CandAnchors
		}
		if dists >= cands {
			t.Errorf("%s: %d anchor distances for %d candidate anchors in sum; the order is not lazy", oracle, dists, cands)
		}
		t.Logf("%s: %d anchor distances for %d candidate anchors", oracle, dists, cands)
	}
}

// TestAnchorKeyIsMShare is the one-kernel-per-pair gate: the key the
// anchor stream resolves anchor a to equals makeMOf({a})(u_q) bit for bit,
// under hub labels, CH and plain Dijkstra, and under hub labels with road
// edges pending, where both sides of the clearance rule must be taken —
// pairs it vouches the label sum for and pairs it sends through the
// delta-overlay.
func TestAnchorKeyIsMShare(t *testing.T) {
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0, R: 2, Metric: MetricDotProduct}
	for _, oracle := range []string{"hl", "ch", "dijkstra"} {
		for seed := int64(1); seed <= 3; seed++ {
			ds := smallDataset(t, seed)
			switch oracle {
			case "hl":
				ds.Road.SetDistanceOracle(hl.Build(ds.Road))
			case "ch":
				ds.Road.SetDistanceOracle(ch.Build(ds.Road))
			}
			e := buildEngine(t, ds, Options{Parallelism: 1})
			if (e.labelTable() != nil) != (oracle == "hl") {
				t.Fatalf("%s: label table %v", oracle, e.labelTable() != nil)
			}
			for _, uq := range []socialnet.UserID{0, 7, 33} {
				checkKeysAreMShares(t, fmt.Sprintf("%s seed %d uq %d", oracle, seed, uq), e, uq, p)
			}
		}
	}

	_, e, issuers := pendingTwin(t, 1)
	ds := e.DS
	var vouched, composed int
	for _, uq := range issuers[:6] {
		for _, id := range checkKeysAreMShares(t, fmt.Sprintf("pending uq %d", uq), e, uq, p) {
			ar := e.acquireArena()
			lbl := e.userLabelWith(uq, ar)
			uqAt, at := ds.Users[uq].At, ds.POIs[id].At
			d := ds.Road.RowDistsCk(lbl, uqAt, e.labelTable(), []int32{int32(id)}, math.Inf(1), ar.floatBuf(1), nil)[0]
			if labelExact(d, math.Inf(1), e.clearance(uqAt)+e.clearance(at)) {
				vouched++
			} else {
				composed++
			}
			e.releaseArena(ar)
		}
	}
	if vouched == 0 || composed == 0 {
		t.Fatalf("pending: %d pairs vouched for by the clearance rule, %d composed through the overlay: both sides must be taken", vouched, composed)
	}
	t.Logf("pending: %d pairs vouched for, %d composed through the overlay", vouched, composed)
}

// checkKeysAreMShares drains uq's anchor stream unbounded and checks that
// each popped anchor's key is bit for bit its M(u_q) over the ball {a}
// (TestAnchorKeyIsMShare). It returns the popped anchors.
func checkKeysAreMShares(t *testing.T, name string, e *Engine, uq socialnet.UserID, p Params) []model.POIID {
	t.Helper()
	var st Stats
	q := e.newQctx(&st)
	ar, mar := e.acquireArena(), e.acquireArena()
	defer e.releaseArena(ar)
	defer e.releaseArena(mar)
	o := e.newAnchorOrder(uq, p, q, ar)
	var popped []model.POIID
	for {
		ac, ok := o.next(math.Inf(1))
		if !ok {
			break
		}
		m := e.makeMOf([]model.POIID{ac.id}, nil, nil, mar)(uq)
		if math.Float64bits(ac.key) != math.Float64bits(m) {
			t.Fatalf("%s: anchor %d keyed %v (%#x), its M(u_q) share is %v (%#x)",
				name, ac.id, ac.key, math.Float64bits(ac.key), m, math.Float64bits(m))
		}
		popped = append(popped, ac.id)
	}
	e.closeAnchorOrder(o, &st)
	if len(popped) == 0 {
		t.Fatalf("%s: the stream popped no anchor", name)
	}
	if st.AnchorDistances != len(popped) {
		t.Fatalf("%s: %d anchor distances for %d popped anchors", name, st.AnchorDistances, len(popped))
	}
	return popped
}

// TestAnchorStreamEagerOrder drains the engine's anchor stream, from the
// I_R root, on generated datasets under the plain graph (anchors resolved
// by DistAttachWithinCk) and hub labels (by row merges), unbounded and at the
// query's answer cost. The pops must come in (duq, id) order with exact
// keys, and must be exactly the POIs Lemma 1 keeps whose distance from
// u_q is finite and within the bound (up to the pivot bounds' slack at
// the bound itself); the RN* counters must partition the POIs.
func TestAnchorStreamEagerOrder(t *testing.T) {
	params := []Params{
		{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.1, Tau: 2, Theta: 0.5, R: 1, Metric: MetricDotProduct},
	}
	for seed := int64(1); seed <= 3; seed++ {
		ds := smallDataset(t, seed)
		for _, labels := range []bool{false, true} {
			if labels {
				ds.Road.SetDistanceOracle(hl.Build(ds.Road))
			}
			e := buildEngine(t, ds, Options{Parallelism: 1})
			for pi, p := range params {
				for _, uq := range []socialnet.UserID{0, 7, 33} {
					res, _, err := e.Query(uq, p)
					if err != nil {
						t.Fatal(err)
					}
					for _, bound := range []float64{math.Inf(1), res.MaxDist} {
						name := fmt.Sprintf("seed %d labels %v params %d uq %d bound %v", seed, labels, pi, uq, bound)
						checkStream(t, name, e, uq, p, bound)
					}
				}
			}
		}
	}
}

// checkStream drains uq's anchor stream at bound and checks it against
// the eager order (TestAnchorStreamEagerOrder).
func checkStream(t *testing.T, name string, e *Engine, uq socialnet.UserID, p Params, bound float64) {
	t.Helper()
	ds := e.DS
	var st Stats
	st.RNPOIsTotal = len(ds.POIs)
	q := e.newQctx(&st)
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	o := e.newAnchorOrder(uq, p, q, ar)
	popped := map[model.POIID]bool{}
	var last anchorEntry
	for {
		ac, ok := o.next(bound)
		if !ok {
			break
		}
		if len(popped) > 0 && ac.before(&last) {
			t.Fatalf("%s: anchor %d (%v) popped after %d (%v)", name, ac.id, ac.key, last.id, last.key)
		}
		if d := ds.Road.DistAttach(ds.Users[uq].At, ds.POIs[ac.id].At); !sameDist(ac.key, d) {
			t.Fatalf("%s: anchor %d popped at key %v, distance %v", name, ac.id, ac.key, d)
		}
		popped[ac.id], last = true, ac
	}
	e.closeAnchorOrder(o, &st)
	if st.RNIndexPruned+st.RNObjPruned+st.CandAnchors != st.RNPOIsTotal {
		t.Fatalf("%s: %d + %d + %d != %d POIs", name, st.RNIndexPruned, st.RNObjPruned, st.CandAnchors, st.RNPOIsTotal)
	}
	uqRow := e.topics.user(uq)
	for id := range ds.POIs {
		poi := model.POIID(id)
		if uqRow.matchUb(e.Road.KeywordDist(poi), p.R) < p.Theta {
			if popped[poi] {
				t.Fatalf("%s: anchor %d popped, but Lemma 1 prunes it", name, id)
			}
			continue
		}
		d := ds.Road.DistAttach(ds.Users[uq].At, ds.POIs[id].At)
		switch {
		case math.IsInf(d, 1) || d > bound*(1+1e-9):
			if popped[poi] {
				t.Fatalf("%s: anchor %d at %v popped beyond the bound", name, id, d)
			}
		case d < bound*(1-1e-9) && !popped[poi]:
			t.Fatalf("%s: anchor %d at %v within the bound was never popped", name, id, d)
		}
	}
}

// BenchmarkAnchorOrder drains the anchor stream of the 16 uniCold issuers
// at uni_cold's shape, each at its answer cost — the bound refinement's
// stop ends at — without refinement. One op is all 16 issuers; it
// reports the I_R nodes expanded, the anchors resolved (one label-row
// merge each) and the anchors popped.
func BenchmarkAnchorOrder(b *testing.B) {
	e, issuers := uniColdEngine(b, Options{Parallelism: 1})
	bounds := make([]float64, len(issuers))
	for i, uq := range issuers {
		res, _, err := e.Query(uq, uniColdParams)
		if err != nil {
			b.Fatal(err)
		}
		bounds[i] = res.MaxDist
	}
	var nodes, resolved, pops int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, uq := range issuers {
			var st Stats
			q := e.newQctx(&st)
			ar := e.acquireArena()
			o := e.newAnchorOrder(uq, uniColdParams, q, ar)
			for {
				if _, ok := o.next(bounds[j]); !ok {
					break
				}
			}
			nodes += o.expanded
			resolved += o.resolved
			pops += o.pops
			e.closeAnchorOrder(o, &st)
			e.releaseArena(ar)
		}
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(resolved)/float64(b.N), "resolved/op")
	b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
}
