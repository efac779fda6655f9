package core

import (
	"math"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// TestEngineMatchesBaselineUnderHL reruns the engine-vs-Baseline oracle
// gate with the hub-label oracle attached, across every ablation variant:
// the batched label kernel must leave answers exact whichever pruning
// stages are toggled.
func TestEngineMatchesBaselineUnderHL(t *testing.T) {
	params := []Params{
		{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.25, Tau: 3, Theta: 0.4, R: 2, Metric: MetricDotProduct},
		{Gamma: 0.0, Tau: 2, Theta: 0.0, R: 0.5, Metric: MetricDotProduct},
	}
	variants := map[string]Options{
		"default":             {},
		"no-index-pruning":    {DisableIndexPruning: true},
		"no-distance-pruning": {DisableDistancePruning: true},
		"both-off":            {DisableIndexPruning: true, DisableDistancePruning: true},
		"parallel-8":          {Parallelism: 8},
	}
	ds := smallDataset(t, 9)
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	oracle := &Baseline{DS: ds}
	for pi, p := range params {
		for _, uq := range []socialnet.UserID{2, 19, 44} {
			want, _ := oracle.Query(uq, p)
			for name, opts := range variants {
				e := buildEngine(t, ds, opts)
				got, _, err := e.Query(uq, p)
				if err != nil {
					t.Fatalf("%s params %d uq %d: %v", name, pi, uq, err)
				}
				if got.Found != want.Found {
					t.Fatalf("%s params %d uq %d: found=%v, baseline %v", name, pi, uq, got.Found, want.Found)
				}
				if got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
					t.Fatalf("%s params %d uq %d: cost %v, baseline %v (S=%v R=%v vs S=%v R=%v)",
						name, pi, uq, got.MaxDist, want.MaxDist, got.S, got.R, want.S, want.R)
				}
				if got.Found {
					checkFeasible(t, ds, uq, p, got)
				}
			}
		}
	}
}

// TestPOILabelTableFallback covers the engine without a table: one wired
// before the label oracle was attached prices every pair through
// DistAttachWithinCk, not the row merge, for its whole lifetime, and
// returns the same top-k as an engine over an identical dataset that holds
// the table, after both took the same delta POI: the same groups, balls
// and anchors, and costs equal up to the association order in which the
// two kernels sum a path (sameDist).
func TestPOILabelTableFallback(t *testing.T) {
	earlyDS, ds := smallDataset(t, 31), smallDataset(t, 31)
	early := buildEngine(t, earlyDS, Options{Parallelism: 1})
	for _, d := range []*model.Dataset{earlyDS, ds} {
		d.Road.SetDistanceOracle(hl.Build(d.Road))
	}
	holder := buildEngine(t, ds, Options{Parallelism: 1})
	if early.POILabels() != nil || holder.POILabels() == nil {
		t.Fatal("only an engine wired under the label oracle holds a table")
	}

	// A delta POI on the first query user's home edge, so it wins as anchor.
	poi := ds.POIs[0]
	poi.ID = model.POIID(len(ds.POIs))
	poi.At, poi.Loc = ds.Users[2].At, ds.Users[2].Loc
	for _, e := range []*Engine{early, holder} {
		if err := e.AddPOI(poi); err != nil {
			t.Fatal(err)
		}
	}
	if early.POILabels() != nil || holder.POILabels().NumRows() != len(ds.POIs) {
		t.Fatal("AddPOI must append a row to the table held, and give the engine without one none")
	}

	p := Params{Gamma: 0.1, Tau: 2, Theta: 0.1, R: 0.5, Metric: MetricDotProduct}
	sawNew := false
	for _, uq := range []socialnet.UserID{2, 19, 44} {
		want, _, err := holder.QueryTopK(uq, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range want {
			sawNew = sawNew || r.Anchor == poi.ID
		}
		got, _, err := early.QueryTopK(uq, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, "wired-early", got, want, sameDist)
	}
	if !sawNew {
		t.Fatal("the appended POI never surfaced as an anchor: the delta row is untested")
	}
}
