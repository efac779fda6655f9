package core

import (
	"slices"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// sameBallParams are shapes under which many anchors of sameBallDataset
// share their road ball: a radius wide enough that neighbouring POIs'
// balls coincide, on top of the POIs that share an attachment.
var sameBallParams = []Params{
	{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct},
	{Gamma: 0.1, Tau: 2, Theta: 0.2, R: 3.5, Metric: MetricDotProduct},
	{Gamma: 0.2, Tau: 4, Theta: 0.2, R: 1, Metric: MetricDotProduct},
	{Gamma: 0.3, Tau: 1, Theta: 0.3, R: 2.5, Metric: MetricDotProduct},
}

// sameBallDataset is a tied dataset whose every fourth POI shares the
// attachment of the one before it, so their balls hold the same POIs.
func sameBallDataset(t testing.TB, seed int64) *model.Dataset {
	return tiedDataset(t, seed, tieLattice|tieSharedAttach)
}

// TestSameBallMatchesBaseline runs Query and QueryTopK (k=3) on datasets
// where many anchors share a ball, under the plain graph and hub labels:
// the costs must equal Baseline's rank by rank at Parallelism 1, 2 and 8,
// the answers must be bit-identical across the three, and some anchors
// must have replayed a class.
func TestSameBallMatchesBaseline(t *testing.T) {
	same := 0
	for _, seed := range []int64{21, 24, 40} {
		ds := sameBallDataset(t, seed)
		for _, labels := range []bool{false, true} {
			if labels {
				ds.Road.SetDistanceOracle(hl.Build(ds.Road))
			}
			engines := map[int]*Engine{}
			for _, par := range []int{1, 2, 8} {
				engines[par] = buildEngine(t, ds, Options{Parallelism: par})
			}
			for pi, p := range sameBallParams {
				for _, uq := range []socialnet.UserID{0, 13, 41} {
					want, _ := (&Baseline{DS: ds}).QueryTopK(uq, p, 3)
					var ref []Result
					for _, par := range []int{1, 2, 8} {
						e := engines[par]
						one, st, err := e.Query(uq, p)
						if err != nil {
							t.Fatal(err)
						}
						top, stK, err := e.QueryTopK(uq, p, 3)
						if err != nil {
							t.Fatal(err)
						}
						same += st.AnchorsSameBall + stK.AnchorsSameBall
						if one.Found != (len(want) > 0) || (one.Found && !sameDist(one.MaxDist, want[0].MaxDist)) {
							t.Fatalf("seed %d labels %v params %d uq %d P=%d: Query %+v, Baseline %+v", seed, labels, pi, uq, par, one, want)
						}
						if len(top) != len(want) {
							t.Fatalf("seed %d labels %v params %d uq %d P=%d: %d results, Baseline %d", seed, labels, pi, uq, par, len(top), len(want))
						}
						for i := range top {
							if !sameDist(top[i].MaxDist, want[i].MaxDist) {
								t.Fatalf("seed %d labels %v params %d uq %d P=%d: rank %d cost %v, Baseline %v",
									seed, labels, pi, uq, par, i, top[i].MaxDist, want[i].MaxDist)
							}
						}
						got := append([]Result{one}, top...)
						if ref == nil {
							ref = got
						} else if !slices.EqualFunc(ref, got, sameAnswer) {
							t.Fatalf("seed %d labels %v params %d uq %d: P=%d returned %+v, P=1 %+v", seed, labels, pi, uq, par, got, ref)
						}
					}
				}
			}
		}
	}
	if same == 0 {
		t.Fatal("no anchor repeated a ball: the datasets do not exercise the class table")
	}
	t.Logf("anchors replaying a class: %d", same)
}

// TestSameBallHandoffRace runs many same-ball queries at Parallelism 8,
// where anchors of an in-flight class are handed to its owner, and
// requires answers bit-identical to Parallelism 1. Run it under -race.
func TestSameBallHandoffRace(t *testing.T) {
	ds := sameBallDataset(t, 24)
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	seq := buildEngine(t, ds, Options{Parallelism: 1})
	par := buildEngine(t, ds, Options{Parallelism: 8})
	for _, p := range sameBallParams {
		for uq := socialnet.UserID(0); int(uq) < len(ds.Users); uq += 3 {
			for _, k := range []int{1, 3} {
				a, _, err := seq.QueryTopK(uq, p, k)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := par.QueryTopK(uq, p, k)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(a, b, sameAnswer) {
					t.Fatalf("uq %d k %d %s: P=8 returned %+v, P=1 %+v", uq, k, p, b, a)
				}
			}
		}
	}
}

// TestBallClassHandoff drives the class table directly: the first anchor
// of a ball owns its class, anchors arriving while it is in flight wait,
// and recording replays the outcome for each of them and for every later
// anchor of the ball; a different ball is a class of its own.
func TestBallClassHandoff(t *testing.T) {
	ds := smallDataset(t, 21)
	e := buildEngine(t, ds, Options{})
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	var tab ballClasses
	tab.reset(ar)
	type got struct {
		kind classKind
		id   model.POIID
		s    []socialnet.UserID
		cost float64
	}
	var replays []got
	replay := func(o classOutcome, id model.POIID, _ []model.POIID) {
		replays = append(replays, got{o.kind, id, slices.Clone(o.s), o.cost})
	}
	ball := []model.POIID{3, 7, 9}
	c, owner := tab.claim(ar, slices.Clone(ball), 7, replay)
	if !owner {
		t.Fatal("first anchor of a ball must own its class")
	}
	for _, id := range []model.POIID{3, 9} {
		if _, own := tab.claim(ar, slices.Clone(ball), id, replay); own {
			t.Fatalf("anchor %d repeats an in-flight ball but owns a class", id)
		}
	}
	if len(replays) != 0 {
		t.Fatalf("in-flight class replayed before its outcome: %+v", replays)
	}
	if _, own := tab.claim(ar, []model.POIID{3, 7}, 3, replay); !own {
		t.Fatal("a different ball must be a class of its own")
	}
	tab.record(ar, c, classFound, []socialnet.UserID{1, 4, 5}, 2.5, replay)
	if len(replays) != 2 {
		t.Fatalf("record replayed %d pending anchors, want 2", len(replays))
	}
	if _, own := tab.claim(ar, slices.Clone(ball), 8, replay); own {
		t.Fatal("a recorded ball must not be owned again")
	}
	ids := []model.POIID{}
	for _, r := range replays {
		if r.kind != classFound || r.cost != 2.5 || !slices.Equal(r.s, []socialnet.UserID{1, 4, 5}) {
			t.Fatalf("replayed %+v, want the recorded (S, cost)", r)
		}
		ids = append(ids, r.id)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, []model.POIID{3, 8, 9}) {
		t.Fatalf("replayed anchors %v, want [3 8 9]", ids)
	}
	tab.release()
}

// TestBallClassDropAfterTrip: an owner whose checkpoint tripped drops its
// class, and neither its pending anchors nor later ones contribute.
func TestBallClassDropAfterTrip(t *testing.T) {
	ds := smallDataset(t, 21)
	e := buildEngine(t, ds, Options{})
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	var tab ballClasses
	tab.reset(ar)
	replayed := 0
	replay := func(classOutcome, model.POIID, []model.POIID) { replayed++ }
	ball := []model.POIID{2, 5}
	c, _ := tab.claim(ar, slices.Clone(ball), 2, replay)
	tab.claim(ar, slices.Clone(ball), 5, replay)
	tab.drop(c)
	tab.claim(ar, slices.Clone(ball), 5, replay)
	if replayed != 0 {
		t.Fatalf("a dropped class replayed %d times", replayed)
	}
	tab.release()
}

// TestSameBallBudgetTrip sweeps settled-vertex budgets over same-ball
// queries at Parallelism 1 and 8: a budget that trips inside a class
// owner's refinement must leave only feasible results at their exact
// cost (never one replayed from a class whose search was cut), and the
// optimum cannot be undercut.
func TestSameBallBudgetTrip(t *testing.T) {
	ds := sameBallDataset(t, 24)
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	truncated := 0
	for _, par := range []int{1, 8} {
		e := buildEngine(t, ds, Options{Parallelism: par})
		for _, p := range sameBallParams[:3] {
			for _, uq := range []socialnet.UserID{0, 13, 41} {
				want, _ := (&Baseline{DS: ds}).QueryTopK(uq, p, 3)
				for _, budget := range []int64{50, 200, 800, 3200} {
					pb := p
					pb.Budget = Budget{MaxSettledVertices: budget}
					top, st, err := e.QueryTopK(uq, pb, 3)
					if err != nil {
						t.Fatal(err)
					}
					if st.Truncated {
						truncated++
					}
					for i, r := range top {
						checkFeasible(t, ds, uq, p, r)
						if i < len(want) && r.MaxDist < want[i].MaxDist-1e-9 {
							t.Fatalf("P=%d budget %d uq %d: rank %d cost %v undercuts the optimum %v",
								par, budget, uq, i, r.MaxDist, want[i].MaxDist)
						}
					}
				}
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no budget tripped: the sweep does not exercise a cut owner")
	}
}
