// Command benchmark is the repository's one layered benchmark: four named
// workloads, end-to-end metrics from an untraced run, per-layer metrics and
// span files from a traced run, correctness gates inside the harness. See
// README.md in this directory; BENCHMARK.json at the repository root
// declares every name printed here.
//
//	bash benchmark/run.sh --workload uni_cold --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// result is one run: what -out appends as one JSON line, and what -compare
// reads back.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    int     `json:"trace"`
	Env      envInfo `json:"env"`
	// Params are the workload's frozen parameters, Samples the measured
	// sample counts, PhasesS the wall time of each phase.
	Params        map[string]any     `json:"params"`
	Samples       map[string]int     `json:"samples"`
	PhasesS       map[string]float64 `json:"phases_s"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	FirstFailure  string             `json:"first_failure,omitempty"`
	AnswersDigest string             `json:"answers_digest"`
	SpanFile      string             `json:"span_file,omitempty"`
	// Metrics holds the end-to-end metrics of the untraced pass and, on a
	// traced run, the per-layer metrics too.
	Metrics map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric makes a reportable value; a ratio whose denominator was 0 (NaN,
// Inf) cannot be written as JSON and is reported as 0.
func metric(v float64, unit string) metricValue {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metricValue{v, unit}
}

// driverLine is the last line of standard output, the shape the driver
// reads: the end-to-end metrics without tracing, the per-layer ones with.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: uni_cold, zipf_hot, churn_wal or serve_open")
		seed    = flag.Int64("seed", 1, "traffic seed: issuers, shapes, update script, arrival schedule, correctness twin")
		seconds = flag.Int("seconds", 12, "nominal length of the measured window; op counts scale with it")
		trace   = flag.Int("trace", 0, "1: also replay the stream under the span recorder and run the layer probes")
		out     = flag.String("out", "", "append the run's full result to this file as one JSON line")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		spec    = flag.String("spec", "BENCHMARK.json", "metric declarations and bounds (for -compare)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)))
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: --workload <uni_cold|zipf_hot|churn_wal|serve_open> --seed <n> --seconds <n> --trace <0|1> [--out file]")
		os.Exit(2)
	}
	if w.Serve {
		// The load generator shares this process with the server under
		// test. At the default GOMAXPROCS the server's refinement workers
		// occupy every processor and the generator's timers fire 20-40 ms
		// late (p99), which is the Go scheduler being measured, not the
		// serve layer. One more processor stands in for the client machine;
		// the DB is opened with Parallelism pinned to the default, so the
		// engine fans out exactly as it does without this.
		runtime.GOMAXPROCS(defaultProcs + 1)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.appendTo(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	// The driver's line comes last.
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	defs := endToEndMetrics
	if *trace != 0 {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		line.Metrics[d.Name] = res.Metrics[d.Name]
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// outDir is where span files and scratch data (WALs, checkpoints) go.
const outDir = "benchmark/out"

// runWorkload runs the gates, the untraced pass and, when traced, the
// traced pass and the layer probes.
func runWorkload(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{
		Workload: w.Name, Seed: seed, Seconds: seconds,
		Env: captureEnv(), Params: w.params(seconds),
		Samples: map[string]int{}, PhasesS: map[string]float64{},
		Metrics: map[string]metricValue{},
	}
	if traced {
		res.Trace = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	var gates gateResult

	// Gate (a), before timing: the scale-0.02 twin against brute force.
	t0 := time.Now()
	g, err := w.baselineGate(seed, workDir)
	if err != nil {
		return nil, err
	}
	gates.add(g)
	res.PhasesS["gate_baseline"] = time.Since(t0).Seconds()

	// The untraced pass: every end-to-end metric comes from here.
	p, err := w.runPass(seed, seconds, setupRepeats, nil, workDir)
	defer func() {
		if p != nil && p.inst != nil {
			p.inst.close()
		}
	}()
	if err != nil {
		return nil, err
	}
	e2e, err := p.endToEnd()
	if err != nil {
		return nil, err
	}
	for _, d := range endToEndMetrics {
		res.Metrics[d.Name] = metric(e2e[d.Name], d.Unit)
	}
	res.PhasesS["setup"] = sum(p.setupS)
	res.PhasesS["warmup"] = p.warmupS
	res.PhasesS["measured"] = p.measuredS
	res.AnswersDigest = answersDigest(p.ops, p.outs)

	var rec *recorder
	var layer map[string]float64
	if traced {
		// The same stream again, on a fresh instance, under the recorder.
		untraced := p
		untraced.inst.close()
		rec = newRecorder()
		p, err = w.runPass(seed, seconds, 1, rec, workDir)
		if err != nil {
			return nil, err
		}
		res.PhasesS["traced_measured"] = p.measuredS
		gates.Checked++
		if d := answersDigest(p.ops, p.outs); d != res.AnswersDigest {
			gates.fail("traced pass digest differs from untraced: %s", firstDifference(p.ops, untraced.outs, p.outs))
		}
		gates.Checked++
		if n := rec.roots(w.rootName()); n != len(p.ops) {
			gates.fail("%d %q root spans for %d measured ops", n, w.rootName(), len(p.ops))
		}
		layer = w.passLayerMetrics(p, untraced)
	}

	// Gate (b), after timing, on the last pass: failed ops, then the
	// reference replay (static workloads) or the crash (churn_wal).
	t2 := time.Now()
	failedOps, first := p.failedOps()
	if failedOps > 0 {
		gates.fail("%s", first)
		gates.Failed += failedOps - 1
	}
	gates.Checked += len(p.ops)
	if w.Durable {
		cr, err := w.crashAndRecover(p, seed, workDir)
		if err != nil {
			return nil, err
		}
		gates.add(cr.Gate)
		if traced {
			layer["recovery_s"] = cr.RecoveryS
		}
		res.Samples["wal_records_replayed"] = int(cr.Replayed)
	} else {
		g, err := w.referenceGate(p, seed)
		if err != nil {
			return nil, err
		}
		gates.add(g)
	}
	res.PhasesS["gate_reference"] = time.Since(t2).Seconds()
	if traced {
		t1 := time.Now()
		probes, err := w.runProbes(p, rec, seed, seconds, workDir)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		res.PhasesS["probes"] = time.Since(t1).Seconds()
		for k, v := range probes {
			layer[k] = v
		}
		layer["failed_frac"] = float64(gates.Failed) / float64(gates.Checked)
		for _, d := range perLayerMetrics {
			res.Metrics[d.Name] = metric(layer[d.Name], d.Unit)
			delete(layer, d.Name)
		}
		for name := range layer {
			return nil, fmt.Errorf("metric %q was measured but is not declared in perLayerMetrics", name)
		}
		res.SpanFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))
		if err := rec.writeJSONL(res.SpanFile); err != nil {
			return nil, err
		}
	}

	queries := len(p.queryLatenciesMs())
	res.Samples["measured_ops"] = len(p.ops)
	res.Samples["queries"] = queries
	res.Samples["updates"] = len(p.ops) - queries
	res.Samples["beyond_p95"] = samplesBeyond(queries, 95)
	res.Samples["gate_checks"] = gates.Checked - len(p.ops)
	res.Attempted, res.Failed, res.FirstFailure = gates.Checked, gates.Failed, gates.First
	res.Correct = gates.Failed == 0
	return res, nil
}

// params are the workload's frozen parameters as recorded in a result.
func (w *workload) params(seconds int) map[string]any {
	cfg := w.Config()
	m := map[string]any{
		"zipf": w.Zipf, "road_vertices": w.Road, "users": w.Users, "pois": w.POIs, "dataset_seed": w.DatasetSeed,
		"clients": w.Clients, "issuer_zipf": w.IssuerZipf, "shapes": w.Shapes, "topk_every": w.TopKEvery, "update_frac": w.UpdateFrac,
		"warmup_ops": scaled(w.WarmupPer10s, seconds), "measured_ops": scaled(w.MeasuredPer10s, seconds),
		"cache_size": cfg.CacheSize, "distance_oracle": cfg.DistanceOracle, "parallelism": cfg.Parallelism, "shared_work": !cfg.DisableSharedWork,
		"setup_repeats": setupRepeats,
	}
	if w.Durable {
		m["wal_sync"], m["wal_auto_checkpoint_bytes"], m["overlay_compact_portals"] = cfg.WALSync, cfg.WALAutoCheckpointBytes, cfg.OverlayCompactPortals
	}
	if w.Serve {
		m["open_loop_rate_rps"], m["connections"] = w.OpenLoopRate, w.Clients
		m["serve"] = "MaxInFlight 128, DefaultTimeout 5s, GatherWindow 1ms"
	}
	return m
}

// print writes every metric by name with its unit, then the run's health.
func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "# %s seed=%d seconds=%d trace=%d  (%s, GOMAXPROCS=%d/%d cpus, %s, commit %s)\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.CPUModel, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.GoVersion, r.Env.Commit)
	defs := endToEndMetrics
	if r.Trace != 0 {
		defs = append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...)
	}
	for _, d := range defs {
		fmt.Fprintf(f, "%-38s %16.6g %-6s [%s]\n", d.Name, r.Metrics[d.Name].Value, d.Unit, d.Layer)
	}
	fmt.Fprintf(f, "# samples %v\n# phases_s %v\n# answers_digest %s\n", r.Samples, r.PhasesS, r.AnswersDigest)
	if r.SpanFile != "" {
		fmt.Fprintf(f, "# spans written to %s\n", r.SpanFile)
	}
	if !r.Correct {
		fmt.Fprintf(f, "# FAILED: %d of %d checks; first: %s\n", r.Failed, r.Attempted, r.FirstFailure)
	}
}

func (r *result) appendTo(path string) (err error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return err
}
