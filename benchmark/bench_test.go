package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpssn"
)

func TestPercentileRule(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %g", got)
	}
}

func TestSampleCountGuard(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{{1000, 99, 10, true}, {999, 99, 9, false}, {200, 95, 10, true}, {199, 95, 9, false}, {700, 95, 35, true}, {0, 95, 0, false}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		_, err := guardedPercentile(make([]float64, c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("guardedPercentile(n=%d, p%g): err=%v, want ok=%v", c.n, c.p, err, c.ok)
		}
	}
}

// The reference values are Python's statistics.quantiles(v, n=4), which the
// acceptance procedure uses.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{13.37, 14.35, 13.19, 14.37, 14.28, 13.64, 14.12, 14.72, 13.20, 12.69}
	// quantiles -> [13.1975, 13.88, 14.355]; median 13.88
	want := (14.355 - 13.1975) / 13.88
	if got := quartileSpread(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one value has no spread, got %v", got)
	}
}

func TestArrivalSchedule(t *testing.T) {
	const n, rate = 5000, 100.0
	a, b := arrivalSchedule(7, n, rate), arrivalSchedule(7, n, rate)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different due time at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	if got := float64(n) / a[n-1].Seconds(); math.Abs(got-rate)/rate > 0.05 {
		t.Errorf("schedule runs at %.1f req/s, nominal %v", got, rate)
	}
	if c := arrivalSchedule(8, n, rate); c[0] == a[0] && c[1] == a[1] {
		t.Error("another seed gave the same schedule")
	}
}

// slowTarget answers after a fixed service time and records how many
// requests were in flight at once.
type slowTarget struct {
	service  time.Duration
	inFlight *atomic.Int32
	maxSeen  *atomic.Int32
}

func (s slowTarget) do(*op, *spanBuf, uint32, uint32) outcome {
	n := s.inFlight.Add(1)
	for {
		m := s.maxSeen.Load()
		if n <= m || s.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(s.service)
	s.inFlight.Add(-1)
	return outcome{Found: true}
}

// An open loop keeps to its schedule when the server is slow: requests queue
// for one of the two connections and their wait counts as latency.
func TestOpenLoopCountsQueueingFromDueTime(t *testing.T) {
	var inFlight, maxSeen atomic.Int32
	tgt := slowTarget{service: 20 * time.Millisecond, inFlight: &inFlight, maxSeen: &maxSeen}
	// 8 requests all due at once on 2 connections: the last pair waits for
	// three service times before it is even sent.
	const n = 8
	due := make([]time.Duration, n)
	rec := newRecorder()
	r := runOpen([]target{tgt, tgt}, make([]op, n), due, "client.request", rec)
	if got := maxSeen.Load(); got != 2 {
		t.Errorf("%d requests in flight at once, want exactly 2 connections busy", got)
	}
	lat := append([]time.Duration(nil), r.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if lat[0] < 20*time.Millisecond || lat[n-1] < 80*time.Millisecond {
		t.Errorf("latencies %v: the queued requests must include their wait (>= 4 service times for the last)", lat)
	}
	if r.startDelay[n-1] < 55*time.Millisecond && r.startDelay[n-2] < 55*time.Millisecond {
		t.Errorf("start delays %v: the last requests waited three service times for a connection", r.startDelay)
	}
	for i, l := range r.late {
		if l < 0 || l > 15*time.Millisecond {
			t.Errorf("request %d handed over %v after its due time; the generator must not wait for the server", i, l)
		}
	}
	if got := rec.roots("client.request"); got != n {
		t.Errorf("%d root spans, want %d", got, n)
	}
	rec.each(func(s *span) {
		if s.Parent == 0 && time.Duration(s.End-s.Start) < 20*time.Millisecond {
			t.Errorf("root span lasts %v: it must start at the due time", time.Duration(s.End-s.Start))
		}
	})
}

func TestClosedLoopUsesEveryOpOnce(t *testing.T) {
	var inFlight, maxSeen atomic.Int32
	tgt := slowTarget{service: time.Millisecond, inFlight: &inFlight, maxSeen: &maxSeen}
	lat, outs, _ := runClosed([]target{tgt, tgt}, make([]op, 50), "op", nil)
	for i := range outs {
		if !outs[i].Found || lat[i] < time.Millisecond {
			t.Fatalf("op %d was not run: %+v %v", i, outs[i], lat[i])
		}
	}
	if got := maxSeen.Load(); got > 2 {
		t.Errorf("%d ops in flight with 2 clients", got)
	}
}

func TestRecorder(t *testing.T) {
	var none *spanBuf
	s := none.begin("x", 0, 0) // the untraced path: everything is a no-op
	none.end(s)
	s.set("k", 1)
	if tr, id := s.ids(); tr != 0 || id != 0 || s != nil {
		t.Fatal("a nil buffer must record nothing")
	}

	rec := newRecorder()
	a, b := rec.buf(), rec.buf()
	seen := map[uint32]bool{}
	var wg sync.WaitGroup
	for _, sb := range []*spanBuf{a, b} {
		wg.Add(1)
		go func(sb *spanBuf) {
			defer wg.Done()
			for i := 0; i < 3*spanChunk; i++ { // crosses chunk boundaries
				root := sb.begin("op", 0, 0)
				tr, id := root.ids()
				child := sb.begin("call", tr, id)
				child.set("n", float64(i))
				sb.end(child)
				sb.end(root)
			}
		}(sb)
	}
	wg.Wait()
	byID := map[uint32]*span{}
	rec.each(func(s *span) {
		if seen[s.ID] {
			t.Fatalf("span id %d used twice", s.ID)
		}
		seen[s.ID] = true
		byID[s.ID] = s
	})
	rec.each(func(s *span) {
		if s.Parent != 0 {
			p := byID[s.Parent]
			if p == nil || p.Trace != s.Trace || p.Start > s.Start || p.End < s.End {
				t.Fatalf("child %+v does not nest in its parent %+v", s, p)
			}
		} else if s.Trace != s.ID {
			t.Fatalf("root %+v must start its own trace", s)
		}
	})
	if got := rec.roots("op"); got != 6*spanChunk {
		t.Errorf("%d roots, want %d", got, 6*spanChunk)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != len(seen) {
		t.Fatalf("%d lines for %d spans", len(lines), len(seen))
	}
	var j spanJSON
	if err := json.Unmarshal(lines[1], &j); err != nil || j.Name == "" || j.EndNs < j.StartNs {
		t.Fatalf("bad span line %s: %v", lines[1], err)
	}
}

func TestOpsAndDigestAreDeterministic(t *testing.T) {
	w, err := findWorkload("churn_wal")
	if err != nil {
		t.Fatal(err)
	}
	tw := w.twin(3)
	run := func(seed int64) (string, []op) {
		in, err := tw.setup(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		ops := tw.genOps(seed, in.base, 120)
		_, outs, _ := runClosed(tw.targets(in, nil), ops, "op", nil)
		for i, o := range outs {
			if o.Err != "" {
				t.Fatalf("op %d (%s) failed: %s", i, ops[i].Kind, o.Err)
			}
		}
		return answersDigest(ops, outs), ops
	}
	d1, ops1 := run(5)
	d2, _ := run(5)
	d3, ops3 := run(6)
	if d1 != d2 {
		t.Errorf("same seed, different digests: %s %s", d1, d2)
	}
	if d1 == d3 {
		t.Error("another seed gave the same digest")
	}
	kinds := map[opKind]int{}
	for _, o := range ops1 {
		kinds[o.Kind]++
	}
	for k := opQuery; k <= opAddRoad; k++ {
		if k != opTopK && kinds[k] == 0 {
			t.Errorf("120 churn ops contain no %s", k)
		}
	}
	if ops1[0].User == ops3[0].User && ops1[1].User == ops3[1].User && ops1[2].User == ops3[2].User {
		t.Error("another seed gave the same issuers")
	}
}

func TestDigestIgnoresLastCostBits(t *testing.T) {
	a := []outcome{{Found: true, Answers: []gpssn.Answer{{Users: []int{1, 2}, POIs: []int{3}, Anchor: 3, MaxDistance: 1.2345678901234}}}}
	b := []outcome{{Found: true, Answers: []gpssn.Answer{{Users: []int{1, 2}, POIs: []int{3}, Anchor: 3, MaxDistance: math.Nextafter(1.2345678901234, 2)}}}}
	c := []outcome{{Found: true, Answers: []gpssn.Answer{{Users: []int{1, 2}, POIs: []int{3}, Anchor: 3, MaxDistance: 1.2345679}}}}
	ops := make([]op, 1)
	if answersDigest(ops, a) != answersDigest(ops, b) {
		t.Error("one ulp of cost changed the digest")
	}
	if answersDigest(ops, a) == answersDigest(ops, c) {
		t.Error("a different cost did not change the digest")
	}
	if !sameOutcome(&a[0], &b[0]) || sameOutcome(&a[0], &c[0]) {
		t.Error("sameOutcome disagrees with the digest")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every name the program emits is declared in BENCHMARK.json with the same
// unit, and the other way round.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []specMetric, emitted []metricDef, bounded bool) {
		want := map[string]metricDef{}
		for _, d := range emitted {
			if _, dup := want[d.Name]; dup {
				t.Errorf("%s metric %q is in the program's table twice", kind, d.Name)
			}
			want[d.Name] = d
		}
		for _, m := range declared {
			d, ok := want[m.Name]
			switch {
			case !ok:
				t.Errorf("BENCHMARK.json declares %s metric %q, which the program does not emit", kind, m.Name)
			case d.Unit != m.Unit:
				t.Errorf("%s metric %q: unit %q in the program, %q in BENCHMARK.json", kind, m.Name, d.Unit, m.Unit)
			}
			delete(want, m.Name)
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is outside the allowed alphabet", m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
		for name := range want {
			t.Errorf("the program emits %s metric %q, which BENCHMARK.json does not declare", kind, name)
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndMetrics, true)
	check("per-layer", spec.PerLayer, perLayerMetrics, false)

	declared := map[string]bool{}
	for _, wl := range spec.Workloads {
		declared[wl.Name] = true
		if !nameRE.MatchString(wl.Name) || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %q: bad name or why", wl.Name)
		}
		if _, err := findWorkload(wl.Name); err != nil {
			t.Errorf("BENCHMARK.json declares workload %q, which the program does not have", wl.Name)
		}
	}
	for _, wl := range workloads {
		if !declared[wl.Name] {
			t.Errorf("the program has workload %q, which BENCHMARK.json does not declare", wl.Name)
		}
	}
	var setup *specMetric
	for i := range spec.EndToEnd {
		if spec.EndToEnd[i].Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("BENCHMARK.json needs setup_s in s, lower is better; got %+v", setup)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", steady, steady, "lower", "ok"},
		{"slower", steady, []float64{12, 12.1, 11.9, 12, 12.05}, "lower", "REGRESSION"},
		{"faster", steady, []float64{8, 8.1, 7.9, 8, 8.05}, "lower", "ok"},
		{"less throughput", steady, []float64{8, 8.1, 7.9, 8, 8.05}, "higher", "REGRESSION"},
		{"too noisy to say", steady, []float64{8, 14, 9, 13, 12}, "lower", "unresolved"},
	} {
		if _, _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string, p50 float64) string {
		r := result{Workload: "uni_cold", Seed: 1, Seconds: 12, AnswersDigest: digest,
			Metrics: map[string]metricValue{"query_p50_ms": {p50, "ms"}}}
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			if err := r.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, other, slow := write("a", "d1", 10), write("b", "d1", 10.2), write("c", "d2", 10), write("d", "d1", 20)
	var out bytes.Buffer
	if code := runCompare(&out, "../BENCHMARK.json", a, same); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, "../BENCHMARK.json", a, other); code != 1 || !strings.Contains(out.String(), "answers_digest") {
		t.Errorf("different digests: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, "../BENCHMARK.json", a, slow); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("doubled latency: exit %d\n%s", code, out.String())
	}
}
