package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): with fewer, the tail figure is one or two
// outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending: the smallest sample with at least p% of
// the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// guardedPercentile is percentile plus the sample-count guard: it refuses a
// percentile that has fewer than minBeyond samples beyond it.
func guardedPercentile(sorted []float64, p float64) (float64, error) {
	if b := samplesBeyond(len(sorted), p); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, len(sorted), b, minBeyond)
	}
	return percentile(sorted, p), nil
}

// median returns the middle value (mean of the two middle values for an
// even count); it sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// quartileSpread is (Q3-Q1)/median with the exclusive-method quartiles
// Python's statistics.quantiles(v, n=4) uses, so -compare reports the same
// spread the acceptance procedure computes. Fewer than two values have no
// spread.
func quartileSpread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// ms and us convert a duration to fractional milli-/microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timeEach runs fn n times and returns the median per-call time in µs.
func timeEach(n int, fn func(i int)) float64 {
	lat := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		lat[i] = us(time.Since(t0))
	}
	return median(lat)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// currentRSSMB reads the process's resident set size.
func currentRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func heapAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// envInfo is recorded in every result so a number can be traced to the
// machine and commit that produced it.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func captureEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is expected there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}
