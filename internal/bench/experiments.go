package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"gpssn/internal/core"
)

// RunConfig tunes an experiment run.
type RunConfig struct {
	// Scale multiplies the paper's dataset sizes (1.0 = published sizes).
	// Default 0.1, which preserves the figures' shapes at a fraction of
	// the build time.
	Scale float64
	// Queries is the number of query issuers per configuration (default 8).
	Queries int
	// Seed drives dataset generation and issuer selection.
	Seed int64
	// BaselineSamples is the sample count of the Fig. 8 Baseline cost
	// estimator (the paper uses 100; default 20).
	BaselineSamples int
	// JSONOut, when non-empty, is a file path where experiments that
	// support machine-readable output (scale1m) also write a JSON report.
	// Stdout carries the human tables either way.
	JSONOut string
	// Parallelism is the engine's worker count for every experiment
	// (core.Options.Parallelism: 0 = GOMAXPROCS); the digest takes
	// max(Parallelism, 1). Above 1 the RN* columns and I/O means follow
	// when the keeper's bound falls, so only Parallelism 1 reproduces them
	// between runs.
	Parallelism int
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Queries == 0 {
		c.Queries = 8
	}
	if c.BaselineSamples == 0 {
		c.BaselineSamples = 20
	}
	return c
}

// cutHeader heads the column counting issuers cut off at QueryDeadline.
var cutHeader = "cut@" + QueryDeadline.String()

// defaultParams are the Table 3 bold defaults.
func defaultParams() core.Params {
	return core.Params{Gamma: 0.5, Tau: 5, Theta: 0.5, R: 2, Metric: core.MetricDotProduct}
}

// Experiment regenerates one table or figure.
type Experiment struct {
	Name        string
	Description string
	Run         func(w io.Writer, cfg RunConfig) error
}

// Experiments returns every paper table and figure, ablation and
// extension, in presentation order: the set `-exp all` runs.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Table 2: dataset statistics", runTable2},
		{"fig7a", "Fig 7(a): index-level vs object-level pruning power", runFig7a},
		{"fig7b", "Fig 7(b): user pruning breakdown on social networks", runFig7b},
		{"fig7c", "Fig 7(c): POI pruning breakdown on road networks", runFig7c},
		{"fig7d", "Fig 7(d): pruning power over user-POI group pairs", runFig7d},
		{"fig8", "Fig 8: GP-SSN vs Baseline (CPU time and I/O)", runFig8},
		{"fig9", "Fig 9: effect of the user group size tau", runFig9},
		{"fig10", "Fig 10: effect of the number of POIs n", runFig10},
		{"fig11", "Fig 11: effect of |V(G_r)|", runFig11},
		{"appP-gamma", "Appendix P: effect of gamma", runAppPGamma},
		{"appP-theta", "Appendix P: effect of theta", runAppPTheta},
		{"appP-r", "Appendix P: effect of the radius r", runAppPR},
		{"appP-pivots", "Appendix P: effect of the number of pivots", runAppPPivots},
		{"appP-vs", "Appendix P: effect of |V(G_s)|", runAppPVs},
		{"ablation-indexpruning", "Ablation: index-level pruning on vs off", runAblationIndexPruning},
		{"ablation-distance", "Ablation: pivot distance pruning on vs off", runAblationDistance},
		{"ablation-oracle", "Ablation: hub-label distance oracle vs plain Dijkstra", runAblationOracle},
		{"ext-metrics", "Extension: Jaccard/Hamming interest metrics", runExtMetrics},
		{"ext-topk", "Extension: top-k GP-SSN", runExtTopK},
	}
}

// OptIn returns the experiments that run only when named: the
// million-scale tier takes ~18 min and ~11 GB at -scale 1.0, and the
// digest is a parent-vs-change answer check rather than a figure, so
// `-exp all` leaves both out.
func OptIn() []Experiment {
	return []Experiment{
		{"scale1m", "Million-scale tier: 1M-vertex/1M-user end-to-end build + query latency + memory (JSON-capable)", runScale1m},
		{"digest", "Answer digest: one line per (dataset, shape, issuer) for scripts/digest-diff.sh", runDigest},
	}
}

// Find returns the experiment with the given name, opt-in ones included.
func Find(name string) (Experiment, bool) {
	for _, e := range append(Experiments(), OptIn()...) {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// allKinds is the dataset order used by the paper's bar charts.
var allKinds = []DatasetKind{BriCal, GowCol, UNI, ZIPF}

// synthKinds are the datasets used by the parameter sweeps.
var synthKinds = []DatasetKind{UNI, ZIPF}

func specFor(kind DatasetKind, cfg RunConfig) EnvSpec {
	return EnvSpec{Kind: kind, Scale: cfg.Scale, Seed: cfg.Seed, Parallelism: cfg.Parallelism}
}

func runTable2(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Table 2: dataset statistics (scale=%.2f)\n", cfg.Scale)
	fmt.Fprintf(w, "%-9s %10s %9s %10s %9s %7s\n",
		"dataset", "|V(Gs)|", "deg(Gs)", "|V(Gr)|", "deg(Gr)", "n")
	for _, k := range allKinds {
		env, err := GetEnv(specFor(k, cfg))
		if err != nil {
			return err
		}
		s := env.DS.Stats()
		fmt.Fprintf(w, "%-9s %10d %9.1f %10d %9.1f %7d\n",
			k, s.SocialUsers, s.SocialDeg, s.RoadVerts, s.RoadDeg, s.NumPOIs)
	}
	return nil
}

// pruningAgg runs the default-parameter queries on a dataset and returns
// the aggregated stats. Results are cached per (dataset, run config):
// Fig. 7(a)-(d) and Fig. 8 all report different views of the same runs.
var (
	aggMu    sync.Mutex
	aggCache = map[aggKey]Agg{}
)

type aggKey struct {
	kind    DatasetKind
	scale   float64
	queries int
	seed    int64
	par     int
}

func pruningAgg(kind DatasetKind, cfg RunConfig) (Agg, error) {
	key := aggKey{kind, cfg.Scale, cfg.Queries, cfg.Seed, cfg.Parallelism}
	aggMu.Lock()
	if agg, ok := aggCache[key]; ok {
		aggMu.Unlock()
		return agg, nil
	}
	aggMu.Unlock()
	env, err := GetEnv(specFor(kind, cfg))
	if err != nil {
		return Agg{}, err
	}
	users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
	agg, err := env.RunQueries(defaultParams(), users)
	if err != nil {
		return Agg{}, err
	}
	aggMu.Lock()
	aggCache[key] = agg
	aggMu.Unlock()
	return agg, nil
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func runFig7a(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 7(a): pruning power of index-level and object-level pruning (%%)\n")
	fmt.Fprintf(w, "%-9s %12s %12s %12s %12s %12s %12s\n",
		"dataset", "SN-index", "SN-object", "SN-total", "RN-index", "RN-object", "RN-total")
	for _, k := range allKinds {
		agg, err := pruningAgg(k, cfg)
		if err != nil {
			return err
		}
		s := agg.Sum
		snIdx := pct(s.SNIndexPruned, s.SNUsersTotal)
		snObjRel := pct(s.SNObjPruned, s.SNUsersTotal-s.SNIndexPruned)
		snTotal := pct(s.SNIndexPruned+s.SNObjPruned, s.SNUsersTotal)
		rnIdx := pct(s.RNIndexPruned, s.RNPOIsTotal)
		rnObjRel := pct(s.RNObjPruned, s.RNPOIsTotal-s.RNIndexPruned)
		rnTotal := pct(s.RNIndexPruned+s.RNObjPruned, s.RNPOIsTotal)
		fmt.Fprintf(w, "%-9s %11.1f%% %11.1f%% %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			k, snIdx, snObjRel, snTotal, rnIdx, rnObjRel, rnTotal)
	}
	fmt.Fprintln(w, "# paper: SN index 40-50%, SN object 50-58% (overall 94-97%);")
	fmt.Fprintln(w, "#        RN index 48-70%, RN object 30-42% (overall 96-98%)")
	return nil
}

func runFig7b(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 7(b): user pruning on social networks (%% of all users)\n")
	fmt.Fprintf(w, "%-9s %16s %16s\n", "dataset", "SN-distance", "interest-score")
	for _, k := range allKinds {
		agg, err := pruningAgg(k, cfg)
		if err != nil {
			return err
		}
		s := agg.Sum
		dist := pct(s.SNIndexPrunedDist+s.SNObjPrunedDist, s.SNUsersTotal)
		interest := pct(s.SNIndexPrunedInterest+s.SNObjPrunedInterest, s.SNUsersTotal)
		fmt.Fprintf(w, "%-9s %15.1f%% %15.1f%%\n", k, dist, interest)
	}
	fmt.Fprintln(w, "# paper: SN-distance pruning 24-30%, interest score pruning 65-75%")
	return nil
}

func runFig7c(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 7(c): POI pruning on road networks (%% of all POIs)\n")
	fmt.Fprintf(w, "%-9s %16s %16s\n", "dataset", "RN-distance", "matching-score")
	for _, k := range allKinds {
		agg, err := pruningAgg(k, cfg)
		if err != nil {
			return err
		}
		s := agg.Sum
		dist := pct(s.RNIndexPrunedDist+s.RNObjPrunedDist, s.RNPOIsTotal)
		match := pct(s.RNIndexPrunedMatch+s.RNObjPrunedMatch, s.RNPOIsTotal)
		fmt.Fprintf(w, "%-9s %15.1f%% %15.1f%%\n", k, dist, match)
	}
	fmt.Fprintln(w, "# paper: RN-distance pruning 38-58%, matching score pruning 55-68%")
	return nil
}

func runFig7d(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 7(d): overall pruning power over user-POI group pairs\n")
	fmt.Fprintf(w, "# (pairs evaluated per completed query: median [quartiles], mean; pruning power of the median)\n")
	fmt.Fprintf(w, "%-9s %30s %12s %22s\n", "dataset", "pairs-evaluated", "mean", "pruning-power")
	for _, k := range allKinds {
		agg, err := pruningAgg(k, cfg)
		if err != nil {
			return err
		}
		// One query's pair space is 2^PairsTotalLog2; pruning power is
		// 1 - evaluated/total. The median is the figure: one issuer that
		// finishes just inside or just outside QueryDeadline moves the mean
		// by its whole count, the median by at most one rank.
		med := agg.PairsQuantile(0.5)
		mean := float64(agg.Sum.PairsEvaluated) / float64(max(agg.Completed(), 1))
		frac := float64(med) / pow2(agg.PairsTotalLog2)
		quart := fmt.Sprintf("%d [%d, %d]", med, agg.PairsQuantile(0.25), agg.PairsQuantile(0.75))
		fmt.Fprintf(w, "%-9s %30s %12.0f   1 - %.3e (>= %.5f%%)\n",
			k, quart, mean, frac, 100*(1-frac))
	}
	fmt.Fprintln(w, "# paper: 99.9993% - 99.9999%")
	return nil
}

func runFig8(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 8: GP-SSN vs Baseline (GP-SSN CPU: median [quartiles]; I/O: mean; speedup over the median)\n")
	fmt.Fprintf(w, "%-9s %32s %10s %6s %22s %18s\n",
		"dataset", "GP-SSN CPU", "GP-SSN IO", cutHeader, "Baseline CPU (est.)", "speedup (x)")
	for _, k := range allKinds {
		env, err := GetEnv(specFor(k, cfg))
		if err != nil {
			return err
		}
		agg, err := pruningAgg(k, cfg)
		if err != nil {
			return err
		}
		base := &core.Baseline{DS: env.DS}
		uq := env.QueryUsers(1, cfg.Seed+100)[0]
		est := base.EstimateCost(uq, defaultParams(), cfg.BaselineSamples, cfg.Seed+7)
		med, cut := agg.CPU.Quantile(0.5)
		speedup := fmt.Sprintf("%.3e", est.EstimatedHours*3600/med.Seconds())
		if cut {
			speedup = "≤" + speedup // the median is only known to be ≥ QueryDeadline
		}
		fmt.Fprintf(w, "%-9s %32s %10.0f %6d %17.3e hrs %18s\n",
			k, &agg.CPU, agg.AvgIO, agg.Censored, est.EstimatedHours, speedup)
	}
	fmt.Fprintln(w, "# paper: GP-SSN 0.017-0.035 s and 201-303 I/Os; Baseline ~1.9e13 days")
	return nil
}

// sweep runs a one-parameter sweep over the synthetic datasets.
func sweep(w io.Writer, cfg RunConfig, header string, values []float64,
	format func(v float64) string,
	mk func(kind DatasetKind, v float64) (EnvSpec, core.Params)) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "%-9s %10s %32s %10s %8s %6s\n", "dataset", header, "CPU", "I/O", "found", cutHeader)
	for _, k := range synthKinds {
		for _, v := range values {
			spec, params := mk(k, v)
			env, err := GetEnv(spec)
			if err != nil {
				return err
			}
			users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
			agg, err := env.RunQueries(params, users)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-9s %10s %32s %10.0f %7d%% %6d\n",
				k, format(v), &agg.CPU, agg.AvgIO,
				int(pct(agg.Found, agg.Completed())), agg.Censored)
		}
	}
	return nil
}

func runFig9(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 9: GP-SSN performance vs user group size tau\n")
	return sweep(w, cfg, "tau", []float64{2, 3, 5, 7, 10},
		func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			p := defaultParams()
			p.Tau = int(v)
			return specFor(k, cfg), p
		})
}

func runFig10(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 10: GP-SSN performance vs number of POIs n\n")
	return sweep(w, cfg, "n", []float64{3000, 5000, 10000, 15000, 30000},
		func(v float64) string { return fmt.Sprintf("%.0fK", v/1000) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			spec := specFor(k, cfg)
			spec.POIs = scaleCount(v, cfg.Scale)
			return spec, defaultParams()
		})
}

func runFig11(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Fig 11: GP-SSN performance vs |V(G_r)|\n")
	return sweep(w, cfg, "|V(Gr)|", []float64{10000, 20000, 30000, 40000, 50000},
		func(v float64) string { return fmt.Sprintf("%.0fK", v/1000) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			spec := specFor(k, cfg)
			spec.RoadVertices = scaleCount(v, cfg.Scale)
			return spec, defaultParams()
		})
}

func runAppPGamma(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Appendix P: GP-SSN performance vs gamma\n")
	return sweep(w, cfg, "gamma", []float64{0.2, 0.3, 0.5, 0.7, 0.9},
		func(v float64) string { return fmt.Sprintf("%.1f", v) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			p := defaultParams()
			p.Gamma = v
			return specFor(k, cfg), p
		})
}

func runAppPTheta(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Appendix P: GP-SSN performance vs theta\n")
	return sweep(w, cfg, "theta", []float64{0.2, 0.3, 0.5, 0.7, 0.9},
		func(v float64) string { return fmt.Sprintf("%.1f", v) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			p := defaultParams()
			p.Theta = v
			return specFor(k, cfg), p
		})
}

func runAppPR(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Appendix P: GP-SSN performance vs radius r\n")
	return sweep(w, cfg, "r", []float64{0.5, 1, 2, 3, 4},
		func(v float64) string { return fmt.Sprintf("%.1f", v) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			p := defaultParams()
			p.R = v
			return specFor(k, cfg), p
		})
}

func runAppPPivots(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Appendix P: GP-SSN performance vs number of pivots (l = h)\n")
	return sweep(w, cfg, "pivots", []float64{2, 3, 5, 7, 10},
		func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			spec := specFor(k, cfg)
			spec.RoadPivots = int(v)
			spec.SocialPivots = int(v)
			return spec, defaultParams()
		})
}

func runAppPVs(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Appendix P: GP-SSN performance vs |V(G_s)|\n")
	return sweep(w, cfg, "|V(Gs)|", []float64{10000, 20000, 30000, 40000, 50000},
		func(v float64) string { return fmt.Sprintf("%.0fK", v/1000) },
		func(k DatasetKind, v float64) (EnvSpec, core.Params) {
			spec := specFor(k, cfg)
			spec.Users = scaleCount(v, cfg.Scale)
			return spec, defaultParams()
		})
}

// compare runs the default workload under two specs and prints both rows.
func compare(w io.Writer, cfg RunConfig, label string, mk func(kind DatasetKind, variant bool) EnvSpec) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "%-9s %-22s %32s %10s %6s\n", "dataset", label, "CPU", "I/O", cutHeader)
	for _, k := range synthKinds {
		for _, variant := range []bool{false, true} {
			spec := mk(k, variant)
			env, err := GetEnv(spec)
			if err != nil {
				return err
			}
			users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
			agg, err := env.RunQueries(defaultParams(), users)
			if err != nil {
				return err
			}
			name := "baseline"
			if variant {
				name = "variant"
			}
			fmt.Fprintf(w, "%-9s %-22s %32s %10.0f %6d\n",
				k, name, &agg.CPU, agg.AvgIO, agg.Censored)
		}
	}
	return nil
}

func runAblationIndexPruning(w io.Writer, cfg RunConfig) error {
	fmt.Fprintf(w, "# Ablation: index-level pruning on (baseline) vs off (variant)\n")
	return compare(w, cfg, "index-pruning", func(k DatasetKind, variant bool) EnvSpec {
		spec := specFor(k, cfg.withDefaults())
		spec.DisableIndexPruning = variant
		return spec
	})
}

func runAblationDistance(w io.Writer, cfg RunConfig) error {
	fmt.Fprintf(w, "# Ablation: pivot distance pruning on (baseline) vs off (variant)\n")
	return compare(w, cfg, "distance-pruning", func(k DatasetKind, variant bool) EnvSpec {
		spec := specFor(k, cfg.withDefaults())
		spec.DisableDistancePruning = variant
		return spec
	})
}

func runAblationOracle(w io.Writer, cfg RunConfig) error {
	fmt.Fprintf(w, "# Ablation: hub-label distance oracle, the product's (baseline) vs plain Dijkstra (variant)\n")
	return compare(w, cfg, "distance-oracle", func(k DatasetKind, variant bool) EnvSpec {
		spec := specFor(k, cfg.withDefaults())
		if variant {
			spec.DistanceOracle = "dijkstra"
		}
		return spec
	})
}

// scaleCount scales a paper-sized count by the run scale, with a floor.
func scaleCount(v, scale float64) int {
	n := int(v * scale)
	if n < 20 {
		n = 20
	}
	return n
}

// pow2 is math.Exp2 with +Inf treated as the intended "astronomically
// large" pair-space size (the fraction then underflows to 0).
func pow2(lg float64) float64 { return math.Exp2(lg) }

// SortedNames lists experiment names, opt-in ones included (for CLI help).
func SortedNames() []string {
	var names []string
	for _, e := range append(Experiments(), OptIn()...) {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// runExtMetrics compares the paper's dot-product interest metric with the
// Jaccard and Hamming extensions (the paper's future work) on cost and
// answer availability.
func runExtMetrics(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Extension: interest metrics (dot product = paper's Eq. 1)\n")
	fmt.Fprintf(w, "%-9s %-9s %32s %10s %8s %6s\n", "dataset", "metric", "CPU", "I/O", "found", cutHeader)
	for _, k := range synthKinds {
		env, err := GetEnv(specFor(k, cfg))
		if err != nil {
			return err
		}
		users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
		for _, m := range []core.InterestMetric{core.MetricDotProduct, core.MetricJaccard, core.MetricHamming} {
			p := defaultParams()
			p.Metric = m
			if m == core.MetricJaccard {
				p.Gamma = 0.3 // Jaccard lives in [0,1]; 0.5 dot ~ 0.3 Jaccard
			}
			if m == core.MetricHamming {
				p.Gamma = 0.8 // agreement fraction
			}
			agg, err := env.RunQueries(p, users)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-9s %-9s %32s %10.0f %7d%% %6d\n",
				k, m, &agg.CPU, agg.AvgIO,
				int(pct(agg.Found, agg.Completed())), agg.Censored)
		}
	}
	return nil
}

// runExtTopK measures the top-k extension's cost growth with k.
func runExtTopK(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "# Extension: top-k GP-SSN (distinct anchors)\n")
	fmt.Fprintf(w, "%-9s %4s %32s %10s %10s %6s\n", "dataset", "k", "CPU", "I/O", "answers", cutHeader)
	for _, kind := range synthKinds {
		env, err := GetEnv(specFor(kind, cfg))
		if err != nil {
			return err
		}
		users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
		for _, k := range []int{1, 3, 5} {
			agg, err := env.runTopK(defaultParams(), users, k)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-9s %4d %32s %10.0f %10.1f %6d\n",
				kind, k, &agg.CPU, agg.AvgIO,
				float64(agg.Answers)/float64(max(agg.Completed(), 1)), agg.Censored)
		}
	}
	return nil
}
