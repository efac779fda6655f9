// Package build wires a dataset into a queryable engine: it attaches the
// road distance oracle (with its fallback chain), selects the pivots, and
// builds I_R, I_S and the engine over them. It is the one constructor
// behind gpssn.Open, gpssn.OpenSnapshot, the figure harness and the
// million-scale tier, so every figure measures the engine the product
// serves.
package build

import (
	"fmt"

	"gpssn/internal/core"
	"gpssn/internal/failpoint"
	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/pivot"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
)

// Chain returns the fallback order for a requested backend, or an error
// for an unknown one. Plain Dijkstra terminates every chain: it needs no
// preprocessing, so it cannot fail to build.
func Chain(kind string) ([]string, error) {
	switch kind {
	case "hl":
		return []string{"hl", "ch", "dijkstra"}, nil
	case "ch":
		return []string{"ch", "dijkstra"}, nil
	case "dijkstra":
		return []string{"dijkstra"}, nil
	}
	return nil, fmt.Errorf("unknown DistanceOracle %q (want \"ch\", \"hl\" or \"dijkstra\")", kind)
}

// buildOracle builds one oracle backend, converting a build panic — or an
// armed failpoint at "oracle.build.<kind>" — into an error the fallback
// chain can absorb. A nil oracle with nil error means plain Dijkstra.
func buildOracle(g *roadnet.Graph, kind string) (o roadnet.DistanceOracle, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("build panicked: %v", r)
		}
	}()
	if err := failpoint.Error("oracle.build." + kind); err != nil {
		return nil, err
	}
	switch kind {
	case "hl":
		return hl.Build(g), nil
	case "ch":
		return ch.Build(g), nil
	}
	return nil, nil
}

// Serving returns the backend g serves: "hl", "ch", or "dijkstra" when
// no oracle is attached. An attached oracle answers for the graph's
// current topology: hub labels follow its road inserts, and a CH is
// detached by the first new edge.
func Serving(g *roadnet.Graph) string {
	switch g.Oracle().(type) {
	case *hl.Oracle:
		return "hl"
	case *ch.Oracle:
		return "ch"
	}
	return "dijkstra"
}

// AttachOracle walks the fallback chain for the requested backend and
// attaches the first oracle that builds. An hl or ch oracle the graph
// already serves is kept rather than rebuilt. It returns the backend now
// serving and one note per fallback taken; with strict set, a build
// failure is returned as an error instead of a fallback.
func AttachOracle(g *roadnet.Graph, kind string, strict bool) (active string, notes []string, err error) {
	chain, err := Chain(kind)
	if err != nil {
		return "", nil, err
	}
	for _, k := range chain {
		if k != "dijkstra" && Serving(g) == k {
			return k, notes, nil
		}
		o, err := buildOracle(g, k)
		if err != nil {
			if strict {
				return "", notes, fmt.Errorf("building %s oracle: %w", k, err)
			}
			notes = append(notes, fmt.Sprintf("%s oracle build failed (%v); falling back", k, err))
			continue
		}
		g.SetDistanceOracle(o)
		return k, notes, nil
	}
	return "", notes, fmt.Errorf("no distance oracle could be built")
}

// Options size the indexes and the engine. Zero index sizes take the
// index package defaults; the pivot counts and radius range are used as
// given.
type Options struct {
	// RoadPivots (h) and SocialPivots (l) are the pivot counts.
	RoadPivots, SocialPivots int
	// RMin and RMax bound the query radius I_R serves.
	RMin, RMax float64
	// LeafSize and Fanout shape I_S; MaxEntries is I_R's node capacity.
	LeafSize, Fanout, MaxEntries int
	// Seed drives pivot selection (road Seed+1, social Seed+2).
	Seed int64
	// Parallelism is core.Options.Parallelism.
	Parallelism int

	// DisableIndexPruning and DisableDistancePruning are the core.Options
	// switches of the same names, ablations only the figure harness sets.
	DisableIndexPruning, DisableDistancePruning bool
}

// Engine selects the pivots and builds I_R, I_S and the engine over a
// dataset whose distance oracle is already attached (AttachOracle or a
// snapshot restore), so pivot selection and the pivot tables run through
// it.
func Engine(ds *model.Dataset, o Options) (*core.Engine, error) {
	roadPivots := pivot.RandomRoad(ds.Road, o.RoadPivots, o.Seed+1)
	socialPivots := pivot.RandomSocial(ds.Social, o.SocialPivots, o.Seed+2)
	road, err := index.BuildRoad(ds, index.RoadConfig{
		Pivots: roadPivots, RMin: o.RMin, RMax: o.RMax,
		MaxEntries: o.MaxEntries,
	})
	if err != nil {
		return nil, fmt.Errorf("building road index: %w", err)
	}
	social, err := index.BuildSocial(ds, index.SocialConfig{
		RoadPivots: road.Pivots, SocialPivots: socialPivots,
		LeafSize: o.LeafSize, Fanout: o.Fanout,
	})
	if err != nil {
		return nil, fmt.Errorf("building social index: %w", err)
	}
	return core.NewEngine(ds, road, social, core.Options{
		DisableIndexPruning:    o.DisableIndexPruning,
		DisableDistancePruning: o.DisableDistancePruning,
		Parallelism:            o.Parallelism,
	}), nil
}
