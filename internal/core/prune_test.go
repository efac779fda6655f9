package core

import (
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/pivot"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// TestCompanionPruneKeepsExactTies is the regression test for the tie class
// behind the root package's flaky equality gates: several anchors share one
// ball and one optimal group, a companion's farthest ball POI is the anchor
// itself, so dist(u, anchor) = M(u) = the tied cost, and once another tied
// anchor has set the keeper's bound to that cost the pivot lower bound must
// not prune the companion. Over the dataset and index of
// TestParallelTwinEquality (the facade's Open with 3 road and 3 social pivots
// over hub labels), every (user, POI) pair is checked with the bound set to
// the exact distance the refinement kernel computes. With a bare
// LowerBound > bound this fires on 187 pairs, the lower bound landing up to
// 8 ulps above the exact distance.
func TestCompanionPruneKeepsExactTies(t *testing.T) {
	ds, err := gen.Synthetic(gen.Config{
		Name: "paralleltwin", Seed: 7,
		RoadVertices: 120, SocialUsers: 60, POIs: 40, Topics: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	road, err := index.BuildRoad(ds, index.RoadConfig{Pivots: pivot.RandomRoad(ds.Road, 3, 1), RMin: 0.5, RMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	social, err := index.BuildSocial(ds, index.SocialConfig{
		RoadPivots: road.Pivots, SocialPivots: pivot.RandomSocial(ds.Social, 3, 2), LeafSize: 16, Fanout: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds, road, social, Options{})
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	for a := range ds.POIs {
		anchor := model.POIID(a)
		anchorRD := e.poiRDOf(anchor)
		// M(u) over the one-POI ball {anchor} is dist(u, anchor) through the
		// label kernel, bit for bit what processAnchor compares against.
		dist := e.makeMOf([]model.POIID{anchor}, nil, nil, ar)
		for u := range ds.Users {
			d := dist(socialnet.UserID(u))
			if e.companionPruned(socialnet.UserID(u), anchorRD, d) {
				t.Errorf("user %d, anchor %d: pruned at bound = exact dist %x", u, a, d)
			}
		}
	}
}
