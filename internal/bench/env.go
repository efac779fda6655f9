// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6): the dataset statistics of
// Table 2, the pruning-power breakdowns of Fig. 7, the Baseline comparison
// of Fig. 8, the parameter sweeps of Figs. 9-11 and Appendix P, and the
// ablation studies listed in DESIGN.md. Both the root bench_test.go and
// cmd/gpssn-bench drive this package.
package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"gpssn/internal/build"
	"gpssn/internal/core"
	"gpssn/internal/gen"
	"gpssn/internal/model"
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
	RoadPivots, SocialPivots int // default 5 (Table 3)
	RMin, RMax               float64

	// Engine options.
	DisableIndexPruning    bool
	DisableDistancePruning bool
	// DistanceOracle selects the road-distance backend: "hl" (the default,
	// as in gpssn.DefaultConfig), "ch" or "dijkstra". All are exact; the
	// ablation-oracle experiment compares hl with dijkstra.
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
		s.DistanceOracle = "hl"
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
	ds, err := Dataset(spec)
	if err != nil {
		return nil, err
	}
	// The product's constructor, strict: a harness run must measure the
	// oracle it names, never a fallback.
	if _, _, err := build.AttachOracle(ds.Road, spec.DistanceOracle, true); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	engine, err := build.Engine(ds, build.Options{
		RoadPivots: spec.RoadPivots, SocialPivots: spec.SocialPivots,
		RMin: spec.RMin, RMax: spec.RMax, Seed: spec.Seed,
		DisableIndexPruning:    spec.DisableIndexPruning,
		DisableDistancePruning: spec.DisableDistancePruning,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return &Env{Spec: spec, DS: ds, Engine: engine, BuildTime: time.Since(start)}, nil
}

// Dataset generates the dataset of a spec, with no oracle attached; the
// same spec always yields the same dataset.
func Dataset(spec EnvSpec) (*model.Dataset, error) {
	spec = spec.withDefaults()
	switch spec.Kind {
	case UNI, ZIPF:
		dist := gen.Uniform
		if spec.Kind == ZIPF {
			dist = gen.Zipf
		}
		return gen.Synthetic(gen.Config{
			Name: spec.Kind.String(), Seed: spec.Seed,
			RoadVertices: spec.RoadVertices, SocialUsers: spec.Users,
			POIs: spec.POIs, Dist: dist,
		})
	case BriCal:
		return gen.RealLike(gen.BrightkiteCalifornia(spec.Seed, spec.Scale))
	case GowCol:
		return gen.RealLike(gen.GowallaColorado(spec.Seed, spec.Scale))
	}
	return nil, fmt.Errorf("bench: unknown dataset kind %d", int(spec.Kind))
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

// QueryDeadline is how long the harness lets one query run. A query cut
// off by it is censored: it ranks above every completed query in the
// quantiles and contributes to no counter.
const QueryDeadline = time.Second

// Sample is one timing column over a row's issuers: the completed times
// and the count censored at QueryDeadline.
type Sample struct {
	done     []time.Duration
	censored int
}

// nearestRank is the index of the p-quantile among n ascending values by
// the nearest-rank rule, ⌈p·n⌉−1, clamped to [0, n−1]. The slack keeps
// p·n from rounding up past an exact integer (0.9·100).
func nearestRank(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// Quantile returns the nearest-rank p-quantile and whether it landed on a
// censored issuer (then the value is only known to be ≥ QueryDeadline).
func (s *Sample) Quantile(p float64) (time.Duration, bool) {
	n := len(s.done) + s.censored
	if n == 0 {
		return 0, false
	}
	slices.Sort(s.done)
	i := nearestRank(p, n)
	if i >= len(s.done) {
		return QueryDeadline, true
	}
	return s.done[i], false
}

// quantile formats one quantile, "≥1s" when it is censored.
func (s *Sample) quantile(p float64) string {
	d, cut := s.Quantile(p)
	if cut {
		return "≥" + QueryDeadline.String()
	}
	return d.Round(time.Microsecond).String()
}

// String is the column as the tables print it: median, then the
// quartiles.
func (s *Sample) String() string {
	return fmt.Sprintf("%s [%s, %s]", s.quantile(0.5), s.quantile(0.25), s.quantile(0.75))
}

// Agg aggregates query statistics across issuers.
type Agg struct {
	Queries int
	Found   int
	// CacheHits counts queries answered from an answer cache. Hits carry
	// zeroed cost counters, so Add excludes them from every cost figure —
	// CPU and AvgIO measure actual query work, never cache lookups.
	CacheHits int
	// Censored counts the issuers cut off at QueryDeadline.
	Censored int
	// Answers sums the results of completed queries (top-k may return
	// fewer than k).
	Answers int
	CPU     Sample
	// AvgIO is the mean page reads over the issuers that ran a query,
	// completed or cut: a cut issuer counts its reads up to the cut, so a
	// faster engine that finishes issuers the slower one cut does not
	// read as more I/O.
	AvgIO float64
	Sum   core.Stats
	// Pairs holds each completed issuer's PairsEvaluated (Fig 7(d)).
	Pairs []int64
	// PairsTotalLog2 of the (identical) pair space.
	PairsTotalLog2 float64

	io int64
}

// Add folds one completed query's outcome into the aggregate. Cache hits
// bump Queries/Found/CacheHits but contribute nothing to the cost figures.
func (agg *Agg) Add(found bool, st core.Stats) {
	agg.Queries++
	if found {
		agg.Found++
	}
	if st.CacheHit {
		agg.CacheHits++
		return
	}
	agg.CPU.done = append(agg.CPU.done, st.CPUTime)
	addStats(&agg.Sum, st)
	agg.Pairs = append(agg.Pairs, st.PairsEvaluated)
	agg.PairsTotalLog2 = st.PairsTotalLog2
	agg.addIO(st.PageReads)
}

// AddCensored records an issuer cut off at QueryDeadline, with the partial
// Stats the query returned: only its page reads count (toward AvgIO).
func (agg *Agg) AddCensored(st core.Stats) {
	agg.Queries++
	agg.Censored++
	agg.CPU.censored++
	agg.addIO(st.PageReads)
}

// addIO folds one non-hit issuer's page reads into AvgIO.
func (agg *Agg) addIO(reads int64) {
	agg.io += reads
	agg.AvgIO = float64(agg.io) / float64(len(agg.CPU.done)+agg.CPU.censored)
}

// PairsQuantile is the nearest-rank p-quantile of Pairs: over completed
// issuers only, since a censored issuer's count is unknown. 0 when none
// completed.
func (agg *Agg) PairsQuantile(p float64) int64 {
	if len(agg.Pairs) == 0 {
		return 0
	}
	slices.Sort(agg.Pairs)
	return agg.Pairs[nearestRank(p, len(agg.Pairs))]
}

// Completed is the number of issuers that finished within QueryDeadline,
// the denominator of every found-% and per-query counter.
func (agg *Agg) Completed() int { return agg.Queries - agg.Censored }

// RunQueries executes the parameterized query for every issuer and
// aggregates costs and pruning counters.
func (e *Env) RunQueries(p core.Params, users []socialnet.UserID) (Agg, error) {
	return e.runTopK(p, users, 1)
}

// runTopK runs one query per issuer under QueryDeadline: Query for k = 1,
// QueryTopK otherwise.
func (e *Env) runTopK(p core.Params, users []socialnet.UserID, k int) (Agg, error) {
	var agg Agg
	for _, u := range users {
		ctx, cancel := context.WithTimeout(context.Background(), QueryDeadline)
		var results []core.Result
		var st core.Stats
		var err error
		if k == 1 {
			var res core.Result
			res, st, err = e.Engine.QueryCtx(ctx, u, p)
			if res.Found {
				results = []core.Result{res}
			}
		} else {
			results, st, err = e.Engine.QueryTopKCtx(ctx, u, p, k)
		}
		cancel()
		switch {
		case errors.Is(err, core.ErrDeadlineExceeded):
			agg.AddCensored(st)
		case err != nil:
			return agg, fmt.Errorf("query user %d: %w", u, err)
		default:
			agg.Answers += len(results)
			agg.Add(len(results) > 0, st)
		}
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
