// Command gpssn-bench regenerates the paper's experimental tables and
// figures (Section 6 plus the DESIGN.md ablations).
//
// Usage:
//
//	gpssn-bench -exp fig8 -scale 0.1 -queries 8
//	gpssn-bench -exp all -scale 0.1 > results.txt
//	gpssn-bench -list
//
// Scale 1.0 reproduces the paper's dataset sizes (30K road vertices, 30K
// users, 10K POIs for the synthetic sweeps; Table 2 sizes for the real-like
// datasets); smaller scales preserve the figures' shapes at a fraction of
// the runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gpssn/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment name, comma-separated list, or 'all' (everything -list does not mark opt-in)")
		scale   = flag.Float64("scale", 0.1, "dataset scale relative to the paper (1.0 = published sizes)")
		queries = flag.Int("queries", 8, "query issuers per configuration")
		seed    = flag.Int64("seed", 1, "generation seed")
		samples = flag.Int("samples", 20, "Baseline estimator samples (paper: 100)")
		jsonOut = flag.String("jsonout", "", "file for the JSON report of JSON-capable experiments (scale1m)")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.Name, e.Description)
		}
		for _, e := range bench.OptIn() {
			fmt.Printf("%-22s %s [opt-in: not part of -exp all]\n", e.Name, e.Description)
		}
		return
	}

	cfg := bench.RunConfig{
		Scale: *scale, Queries: *queries, Seed: *seed, BaselineSamples: *samples,
		JSONOut: *jsonOut,
	}
	run := func(e bench.Experiment) error {
		start := time.Now()
		if err := e.Run(os.Stdout, cfg); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Printf("# [%s took %s]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			if err := run(e); err != nil {
				fmt.Fprintln(os.Stderr, "gpssn-bench:", err)
				os.Exit(1)
			}
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		e, ok := bench.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "gpssn-bench: unknown experiment %q; available: %v\n", name, bench.SortedNames())
			os.Exit(2)
		}
		if err := run(e); err != nil {
			fmt.Fprintln(os.Stderr, "gpssn-bench:", err)
			os.Exit(1)
		}
	}
}
