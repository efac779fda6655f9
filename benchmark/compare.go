package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// exactCounts are per-layer metrics that count work rather than time it: on
// one commit they repeat exactly for a (workload, seed), so any difference
// between two result sets is a change in behaviour, not noise.
var exactCounts = []string{"wal.bytes_per_update", "wal.fsyncs_per_update", "core.cand_anchors_avg", "core.page_reads_avg"}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict applies a metric's bound to two sets of values. worse is how far
// B's median is from A's in the metric's bad direction, as a share of A's
// median; spread is the wider of the two sets' quartile spreads.
func verdict(a, b []float64, better string, bound float64) (worse, spread float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > bound:
		// choosing-metrics §6.5: wider spread than bound is "unresolved",
		// never "unchanged".
		v = "unresolved"
	case worse > bound:
		v = "REGRESSION"
	default:
		v = "ok"
	}
	return worse, spread, v
}

// runCompare prints one row per (workload, end-to-end metric) with both
// medians, the spread and the verdict under the metric's bound, then checks
// answer digests and exact counts per (workload, seed). It returns the
// process exit code: 1 on a regression or a mismatch.
func runCompare(w io.Writer, specPath, pathA, pathB string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	ra, err := readResults(pathA)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s: no results", pathA)
	}
	var rb []result
	if err == nil {
		if rb, err = readResults(pathB); err == nil && len(rb) == 0 {
			err = fmt.Errorf("%s: no results", pathB)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// End-to-end metrics come from untraced runs only.
	values := func(rs []result, workload, metric string) []float64 {
		var v []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				v = append(v, m.Value)
			}
		}
		return v
	}
	bad := 0
	fmt.Fprintf(w, "%-11s %-18s %4s %12s %4s %12s %8s %8s %6s  %s\n", "workload", "metric", "nA", "median A", "nB", "median B", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(ra, wl.Name, m.Name), values(rb, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse, spread, v := verdict(a, b, m.Better, m.Bound)
			if v == "REGRESSION" {
				bad++
			}
			fmt.Fprintf(w, "%-11s %-18s %4d %12.5g %4d %12.5g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(a), median(a), len(b), median(b), 100*worse, 100*spread, 100*m.Bound, v)
		}
	}

	// Same workload, same seed: same answers and same exact counts, within
	// each set and across the two.
	type key struct {
		workload string
		seed     int64
		seconds  int // op counts, and so digests, follow the run length
	}
	digests := map[key]map[string]bool{}
	counts := map[key]map[string]map[float64]bool{}
	for _, r := range append(append([]result(nil), ra...), rb...) {
		k := key{r.Workload, r.Seed, r.Seconds}
		if digests[k] == nil {
			digests[k], counts[k] = map[string]bool{}, map[string]map[float64]bool{}
		}
		digests[k][r.AnswersDigest] = true
		for _, name := range exactCounts {
			if m, ok := r.Metrics[name]; ok {
				if counts[k][name] == nil {
					counts[k][name] = map[float64]bool{}
				}
				counts[k][name][m.Value] = true
			}
		}
	}
	keys := make([]key, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].seed != keys[j].seed {
			return keys[i].seed < keys[j].seed
		}
		return keys[i].seconds < keys[j].seconds
	})
	for _, k := range keys {
		if len(digests[k]) > 1 {
			bad++
			fmt.Fprintf(w, "MISMATCH %s seed %d: %d different answers_digest values\n", k.workload, k.seed, len(digests[k]))
		}
		for _, name := range exactCounts {
			if len(counts[k][name]) > 1 {
				bad++
				fmt.Fprintf(w, "MISMATCH %s seed %d: %s took %d different values\n", k.workload, k.seed, name, len(counts[k][name]))
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s) or mismatch(es)\n", bad)
		return 1
	}
	fmt.Fprintf(w, "no regression; digests and exact counts agree for %d (workload, seed) pair(s)\n", len(keys))
	return 0
}
