package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"gpssn/internal/build"
	"gpssn/internal/gen"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
)

// scale1mReport is the BENCH_scale1m.json payload: the million-scale tier's
// end-to-end numbers — generation/build wall times, label-store footprint,
// query latency percentiles, and process peak RSS. At -scale 1.0 the dataset
// is ~1M road vertices and ~1M social users, an order of magnitude past the
// paper's evaluation (Section 6 stops at 50K).
type scale1mReport struct {
	Scale        float64 `json:"scale"`
	RoadVertices int     `json:"road_vertices"`
	RoadEdges    int     `json:"road_edges"`
	Users        int     `json:"users"`
	POIs         int     `json:"pois"`
	Queries      int     `json:"queries"`
	Seed         int64   `json:"seed"`

	GenSec     float64 `json:"gen_sec"`
	CHBuildSec float64 `json:"ch_build_sec"`
	HLBuildSec float64 `json:"hl_build_sec"`
	IndexSec   float64 `json:"index_build_sec"`

	AvgLabelSize float64 `json:"avg_label_size"`
	MaxLabelSize int     `json:"max_label_size"`
	OracleBytes  int64   `json:"oracle_bytes"`
	ArenaBytes   int64   `json:"arena_bytes"`

	P50Ms float64 `json:"query_p50_ms"`
	P90Ms float64 `json:"query_p90_ms"`
	P99Ms float64 `json:"query_p99_ms"`
	Found int     `json:"found"`

	PeakRSSBytes   int64  `json:"peak_rss_bytes"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
}

// runScale1m generates the million-scale tier with gen.Large, builds the
// CH + hub-label oracle and both indexes, runs the default-parameter query
// workload, and reports latency percentiles plus memory footprint. The
// lattice road network has grid-like treewidth, so hub labels grow ~sqrt(|V|)
// per vertex (~300 entries at 1M) — the rank-space label store holds the
// whole thing in three contiguous arrays. With cfg.JSONOut set the report is
// also written as JSON (the `make bench-scale` BENCH_scale1m.json).
func runScale1m(w io.Writer, cfg RunConfig) error {
	cfg = cfg.withDefaults()
	report := scale1mReport{Scale: cfg.Scale, Queries: cfg.Queries, Seed: cfg.Seed}

	nv := scaleCount(1_000_000, cfg.Scale)
	nu := scaleCount(1_000_000, cfg.Scale)
	np := scaleCount(100_000, cfg.Scale)
	fmt.Fprintf(w, "# scale1m: %d road vertices, %d users, %d POIs (scale=%.2f)\n", nv, nu, np, cfg.Scale)

	start := time.Now()
	ds, err := gen.Large(gen.Config{
		Name: "scale1m", Seed: cfg.Seed,
		RoadVertices: nv, SocialUsers: nu, POIs: np,
	})
	if err != nil {
		return err
	}
	report.GenSec = time.Since(start).Seconds()
	report.RoadVertices = ds.Road.NumVertices()
	report.RoadEdges = ds.Road.NumEdges()
	report.Users = len(ds.Users)
	report.POIs = len(ds.POIs)
	fmt.Fprintf(w, "# generated in %.1fs (%d edges, avg degree %.2f)\n",
		report.GenSec, report.RoadEdges, ds.Road.AvgDegree())

	start = time.Now()
	cho := ch.Build(ds.Road)
	report.CHBuildSec = time.Since(start).Seconds()
	start = time.Now()
	hlo := hl.FromCH(cho)
	report.HLBuildSec = time.Since(start).Seconds()
	ds.Road.SetDistanceOracle(hlo)
	report.AvgLabelSize = hlo.AvgLabelSize()
	report.MaxLabelSize = hlo.MaxLabelSize()
	fmt.Fprintf(w, "# CH %.1fs + HL %.1fs; labels avg %.1f max %d (%d MB)\n",
		report.CHBuildSec, report.HLBuildSec,
		report.AvgLabelSize, report.MaxLabelSize, hlo.MemoryBytes()>>20)

	start = time.Now()
	engine, err := build.Engine(ds, build.Options{RoadPivots: 5, SocialPivots: 5, RMin: 0.5, RMax: 4, Seed: cfg.Seed, Parallelism: cfg.Parallelism})
	if err != nil {
		return err
	}
	report.IndexSec = time.Since(start).Seconds()
	fmt.Fprintf(w, "# indexes built in %.1fs\n", report.IndexSec)

	env := &Env{DS: ds, Engine: engine}
	users := env.QueryUsers(cfg.Queries, cfg.Seed+100)
	lat := make([]time.Duration, 0, len(users))
	for _, u := range users {
		qStart := time.Now()
		res, _, err := engine.Query(u, defaultParams())
		if err != nil {
			return fmt.Errorf("scale1m: query user %d: %w", u, err)
		}
		lat = append(lat, time.Since(qStart))
		if res.Found {
			report.Found++
		}
	}
	slices.Sort(lat)
	pctl := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		return float64(lat[nearestRank(p, len(lat))]) / float64(time.Millisecond)
	}
	report.P50Ms, report.P90Ms, report.P99Ms = pctl(0.50), pctl(0.90), pctl(0.99)

	ms := engine.MemoryStats()
	report.OracleBytes = ms.OracleBytes
	report.ArenaBytes = ms.ArenaBytes
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	report.HeapAllocBytes = rt.HeapAlloc
	report.PeakRSSBytes = peakRSSBytes()

	fmt.Fprintf(w, "# %d/%d queries found an answer\n", report.Found, len(users))
	fmt.Fprintf(w, "%-24s %12s %12s %12s\n", "latency", "p50", "p90", "p99")
	fmt.Fprintf(w, "%-24s %10.1fms %10.1fms %10.1fms\n", "query", report.P50Ms, report.P90Ms, report.P99Ms)
	fmt.Fprintf(w, "# memory: oracle %d MB, arenas %d KB, heap %d MB, peak RSS %d MB\n",
		report.OracleBytes>>20, report.ArenaBytes>>10, report.HeapAllocBytes>>20, report.PeakRSSBytes>>20)

	if cfg.JSONOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "# wrote %s\n", cfg.JSONOut)
	}
	return nil
}

// peakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc/self/status; 0 on platforms without procfs.
func peakRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
