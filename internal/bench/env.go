// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6): the dataset statistics of
// Table 2, the pruning-power breakdowns of Fig. 7, the Baseline comparison
// of Fig. 8, the parameter sweeps of Figs. 9-11 and Appendix P, and the
// ablation studies listed in DESIGN.md. Both the root bench_test.go and
// cmd/gpssn-bench drive this package.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gpssn/internal/core"
	"gpssn/internal/gen"
	"gpssn/internal/index"
	"gpssn/internal/model"
	"gpssn/internal/pivot"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/socialnet"
)

// DatasetKind selects one of the four evaluation datasets.
type DatasetKind int

const (
	// UNI is the uniform synthetic dataset.
	UNI DatasetKind = iota
	// ZIPF is the Zipf synthetic dataset.
	ZIPF
	// BriCal is the real-like Brightkite+California dataset.
	BriCal
	// GowCol is the real-like Gowalla+Colorado dataset.
	GowCol
)

// String implements fmt.Stringer.
func (k DatasetKind) String() string {
	switch k {
	case UNI:
		return "UNI"
	case ZIPF:
		return "ZIPF"
	case BriCal:
		return "Bri+Cal"
	case GowCol:
		return "Gow+Col"
	default:
		return fmt.Sprintf("DatasetKind(%d)", int(k))
	}
}

// EnvSpec identifies a prepared experiment environment: a dataset plus its
// indexes and engine. Specs are comparable and cache-keyed.
type EnvSpec struct {
	Kind  DatasetKind
	Scale float64 // scales the paper's object counts; 1.0 = published sizes
	Seed  int64

	// Synthetic overrides (0 = paper default × Scale).
	RoadVertices, Users, POIs int

	// Index parameters.
	RoadPivots, SocialPivots int  // default 5 (Table 3)
	CostModelPivots          bool // Algorithm 1 vs random pivots
	QuadraticSplit           bool // R-tree split ablation
	RMin, RMax               float64

	// Engine options.
	DisableIndexPruning    bool
	DisableDistancePruning bool
	SamplingRefine         bool
	// DistanceOracle selects the road-distance backend: "ch" (default) or
	// "dijkstra". Both are exact; the ablation-choracle experiment compares
	// them.
	DistanceOracle string
}

func (s EnvSpec) withDefaults() EnvSpec {
	if s.Scale == 0 {
		s.Scale = 1
	}
	scaled := func(base int) int {
		v := int(math.Round(float64(base) * s.Scale))
		if v < 20 {
			v = 20
		}
		return v
	}
	if s.RoadVertices == 0 {
		s.RoadVertices = scaled(30000)
	}
	if s.Users == 0 {
		s.Users = scaled(30000)
	}
	if s.POIs == 0 {
		s.POIs = scaled(10000)
	}
	if s.RoadPivots == 0 {
		s.RoadPivots = 5
	}
	if s.SocialPivots == 0 {
		s.SocialPivots = 5
	}
	if s.RMin == 0 {
		s.RMin = 0.5
	}
	if s.RMax == 0 {
		s.RMax = 4
	}
	if s.DistanceOracle == "" {
		s.DistanceOracle = "ch"
	}
	return s
}

// Env is a prepared dataset + engine.
type Env struct {
	Spec      EnvSpec
	DS        *model.Dataset
	Engine    *core.Engine
	BuildTime time.Duration
}

var (
	envMu    sync.Mutex
	envCache = map[EnvSpec]*Env{}
)

// GetEnv builds (or returns a cached) experiment environment.
func GetEnv(spec EnvSpec) (*Env, error) {
	spec = spec.withDefaults()
	envMu.Lock()
	defer envMu.Unlock()
	if env, ok := envCache[spec]; ok {
		return env, nil
	}
	env, err := buildEnv(spec)
	if err != nil {
		return nil, err
	}
	envCache[spec] = env
	return env, nil
}

// DropEnvCache clears the environment cache (tests use it to bound memory).
func DropEnvCache() {
	envMu.Lock()
	defer envMu.Unlock()
	envCache = map[EnvSpec]*Env{}
}

func buildEnv(spec EnvSpec) (*Env, error) {
	start := time.Now()
	var ds *model.Dataset
	var err error
	switch spec.Kind {
	case UNI, ZIPF:
		dist := gen.Uniform
		if spec.Kind == ZIPF {
			dist = gen.Zipf
		}
		ds, err = gen.Synthetic(gen.Config{
			Name: spec.Kind.String(), Seed: spec.Seed,
			RoadVertices: spec.RoadVertices, SocialUsers: spec.Users,
			POIs: spec.POIs, Dist: dist,
		})
	case BriCal:
		ds, err = gen.RealLike(gen.BrightkiteCalifornia(spec.Seed, spec.Scale))
	case GowCol:
		ds, err = gen.RealLike(gen.GowallaColorado(spec.Seed, spec.Scale))
	default:
		return nil, fmt.Errorf("bench: unknown dataset kind %d", int(spec.Kind))
	}
	if err != nil {
		return nil, err
	}

	// Attach the distance oracle before pivot selection so the pivot cost
	// model and pivot-table construction run through it, mirroring Open.
	switch spec.DistanceOracle {
	case "ch":
		ds.Road.SetDistanceOracle(ch.Build(ds.Road))
	case "dijkstra":
		ds.Road.SetDistanceOracle(nil)
	default:
		return nil, fmt.Errorf("bench: unknown DistanceOracle %q", spec.DistanceOracle)
	}

	roadPivots := pivot.RandomRoad(ds.Road, spec.RoadPivots, spec.Seed+1)
	socialPivots := pivot.RandomSocial(ds.Social, spec.SocialPivots, spec.Seed+2)
	if spec.CostModelPivots {
		roadPivots = pivot.SelectRoad(ds.Road, allAttaches(ds), spec.RoadPivots,
			pivot.Options{Seed: spec.Seed + 1, SamplePairs: 100, SwapIter: 10, GlobalIter: 2})
		socialPivots = pivot.SelectSocial(ds.Social, spec.SocialPivots,
			pivot.Options{Seed: spec.Seed + 2, SamplePairs: 100, SwapIter: 10, GlobalIter: 2})
	}

	road, err := index.BuildRoad(ds, index.RoadConfig{
		Pivots: roadPivots, RMin: spec.RMin, RMax: spec.RMax,
		SplitQuadratic: spec.QuadraticSplit,
	})
	if err != nil {
		return nil, err
	}
	social, err := index.BuildSocial(ds, index.SocialConfig{
		RoadPivots: road.Pivots, SocialPivots: socialPivots,
	})
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(ds, road, social, core.Options{
		DisableIndexPruning:    spec.DisableIndexPruning,
		DisableDistancePruning: spec.DisableDistancePruning,
		SamplingRefine:         spec.SamplingRefine,
		// The paper's refinement samples candidate groups; a generous
		// branch-and-bound budget is strictly more exact than sampling
		// while bounding worst-case latency on adversarial issuers.
		RefineBudget: 200000,
	})
	return &Env{Spec: spec, DS: ds, Engine: engine, BuildTime: time.Since(start)}, nil
}

// allAttaches lists every POI and user attachment for the road pivot cost
// model.
func allAttaches(ds *model.Dataset) []roadnet.Attach {
	out := make([]roadnet.Attach, 0, len(ds.POIs)+len(ds.Users))
	for i := range ds.POIs {
		out = append(out, ds.POIs[i].At)
	}
	for i := range ds.Users {
		out = append(out, ds.Users[i].At)
	}
	return out
}

// QueryUsers picks n deterministic query issuers that have at least one
// friend (an isolated issuer can never form a group of τ ≥ 2).
func (e *Env) QueryUsers(n int, seed int64) []socialnet.UserID {
	rng := rand.New(rand.NewSource(seed))
	total := e.DS.Social.NumUsers()
	var out []socialnet.UserID
	tried := map[socialnet.UserID]bool{}
	for len(out) < n && len(tried) < total {
		u := socialnet.UserID(rng.Intn(total))
		if tried[u] {
			continue
		}
		tried[u] = true
		if e.DS.Social.Degree(u) > 0 {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Agg aggregates query statistics across issuers.
type Agg struct {
	Queries int
	Found   int
	// CacheHits counts queries answered from an answer cache. Hits carry
	// zeroed cost counters, so Add excludes them from every cost figure —
	// AvgCPU/AvgIO measure actual query work, never cache lookups.
	CacheHits int
	AvgCPU    time.Duration
	AvgIO     float64
	Sum       core.Stats
	AvgDelta  float64
	PairsEval int64
	// PairsTotalLog2 of the (identical) pair space.
	PairsTotalLog2 float64

	cpu time.Duration
	io  int64
}

// Add folds one query's outcome into the aggregate and refreshes the
// averages. Cache hits bump Queries/Found/CacheHits but contribute nothing
// to the cost sums.
func (agg *Agg) Add(found bool, st core.Stats) {
	agg.Queries++
	if found {
		agg.Found++
	}
	if st.CacheHit {
		agg.CacheHits++
	} else {
		agg.cpu += st.CPUTime
		agg.io += st.PageReads
		addStats(&agg.Sum, st)
		agg.PairsEval += st.PairsEvaluated
		agg.PairsTotalLog2 = st.PairsTotalLog2
	}
	if n := agg.Queries - agg.CacheHits; n > 0 {
		agg.AvgCPU = agg.cpu / time.Duration(n)
		agg.AvgIO = float64(agg.io) / float64(n)
	}
}

// RunQueries executes the parameterized query for every issuer and
// aggregates costs and pruning counters.
func (e *Env) RunQueries(p core.Params, users []socialnet.UserID) (Agg, error) {
	var agg Agg
	for _, u := range users {
		res, st, err := e.Engine.Query(u, p)
		if err != nil {
			return agg, fmt.Errorf("query user %d: %w", u, err)
		}
		agg.Add(res.Found, st)
	}
	return agg, nil
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.SNUsersTotal += s.SNUsersTotal
	dst.SNIndexPruned += s.SNIndexPruned
	dst.SNIndexPrunedInterest += s.SNIndexPrunedInterest
	dst.SNIndexPrunedDist += s.SNIndexPrunedDist
	dst.SNObjPruned += s.SNObjPruned
	dst.SNObjPrunedInterest += s.SNObjPrunedInterest
	dst.SNObjPrunedDist += s.SNObjPrunedDist
	dst.RNPOIsTotal += s.RNPOIsTotal
	dst.RNIndexPruned += s.RNIndexPruned
	dst.RNIndexPrunedMatch += s.RNIndexPrunedMatch
	dst.RNIndexPrunedDist += s.RNIndexPrunedDist
	dst.RNObjPruned += s.RNObjPruned
	dst.RNObjPrunedMatch += s.RNObjPrunedMatch
	dst.RNObjPrunedDist += s.RNObjPrunedDist
	dst.CandUsers += s.CandUsers
	dst.CandAnchors += s.CandAnchors
	dst.PairsEvaluated += s.PairsEvaluated
}
