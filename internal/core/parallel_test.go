package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"gpssn/internal/failpoint"
	"gpssn/internal/socialnet"
)

// oracleParams is the parameter grid shared by the parallel-refinement
// tests: small enough for the brute-force oracle, varied enough to cover
// tau=1, loose and tight thresholds.
var oracleParams = []Params{
	{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct},
	{Gamma: 0.3, Tau: 3, Theta: 0.5, R: 2, Metric: MetricDotProduct},
	{Gamma: 0.1, Tau: 3, Theta: 0.2, R: 1, Metric: MetricDotProduct},
	{Gamma: 0.9, Tau: 1, Theta: 0.1, R: 2, Metric: MetricDotProduct},
}

// TestParallelRefinementMatchesOracle pins the headline determinism claim:
// the engine returns the exact optimal cost at Parallelism 1 and 8, and
// the two settings return byte-identical answers (not merely equal-cost
// ones), per the canonical total order documented in docs/ALGORITHMS.md.
func TestParallelRefinementMatchesOracle(t *testing.T) {
	for seed := int64(21); seed <= 23; seed++ {
		ds := smallDataset(t, seed)
		seq := buildEngine(t, ds, Options{Parallelism: 1})
		par := buildEngine(t, ds, Options{Parallelism: 8})
		oracle := &Baseline{DS: ds}
		for pi, p := range oracleParams {
			for _, uq := range []socialnet.UserID{0, 13, 41} {
				a, stA, err := seq.Query(uq, p)
				if err != nil {
					t.Fatalf("seed %d params %d uq %d seq: %v", seed, pi, uq, err)
				}
				b, stB, err := par.Query(uq, p)
				if err != nil {
					t.Fatalf("seed %d params %d uq %d par: %v", seed, pi, uq, err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d params %d uq %d: parallelism changed the answer:\n  P=1: %+v\n  P=8: %+v",
						seed, pi, uq, a, b)
				}
				if fa, fb := frontCounters(stA), frontCounters(stB); fa != fb {
					t.Fatalf("seed %d params %d uq %d: parallelism changed the front half's counters:\n  P=1: %+v\n  P=8: %+v",
						seed, pi, uq, fa, fb)
				}
				want, _ := oracle.Query(uq, p)
				if a.Found != want.Found {
					t.Fatalf("seed %d params %d uq %d: found=%v oracle=%v",
						seed, pi, uq, a.Found, want.Found)
				}
				if a.Found {
					if math.Abs(a.MaxDist-want.MaxDist) > 1e-6 {
						t.Fatalf("seed %d params %d uq %d: cost %v != oracle %v",
							seed, pi, uq, a.MaxDist, want.MaxDist)
					}
					checkFeasible(t, ds, uq, p, a)
				}
			}
		}
	}
}

// TestParallelTopKDeterministic extends the determinism check to top-k:
// the full ranked result lists must be deep-equal across parallelism
// settings, including per-result S and R contents.
func TestParallelTopKDeterministic(t *testing.T) {
	ds := smallDataset(t, 24)
	seq := buildEngine(t, ds, Options{Parallelism: 1})
	par := buildEngine(t, ds, Options{Parallelism: 8})
	p := Params{Gamma: 0.2, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	for _, uq := range []socialnet.UserID{3, 28} {
		for _, k := range []int{1, 3, 5} {
			a, stA, err := seq.QueryTopK(uq, p, k)
			if err != nil {
				t.Fatal(err)
			}
			b, stB, err := par.QueryTopK(uq, p, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("uq %d k %d: top-k differs across parallelism:\n  P=1: %+v\n  P=8: %+v", uq, k, a, b)
			}
			if fa, fb := frontCounters(stA), frontCounters(stB); fa != fb {
				t.Fatalf("uq %d k %d: parallelism changed the front half's counters:\n  P=1: %+v\n  P=8: %+v", uq, k, fa, fb)
			}
		}
	}
}

// TestFrontRethrowsSocialPanic arms the social half's failpoint at
// Parallelism 8, where the half runs on its own goroutine: front itself
// must re-raise the panic at the join, before refinement could read a
// half-built candidate graph.
func TestFrontRethrowsSocialPanic(t *testing.T) {
	defer failpoint.Reset()
	e := buildEngine(t, smallDataset(t, 27), Options{Parallelism: 8})
	failpoint.Arm("core.social.panic", failpoint.Failure{Mode: failpoint.ModeError, Count: 1})
	var st Stats
	q := e.newQctx(&st)
	ar, rar := e.acquireArena(), e.acquireArena()
	defer e.releaseArena(ar)
	defer e.releaseArena(rar)
	defer func() {
		if _, ok := recover().(*PanicError); !ok {
			t.Fatal("front returned without re-raising the social half's panic as a *PanicError")
		}
	}()
	e.front(0, Params{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2}, newSharedKeeper(1), q, ar, rar)
}

// frontCounters keeps the Stats fields the social half writes — the SN*
// counters and CandUsers — and zeroes the rest. They stay exact at any
// Parallelism, and a half that dropped or counted twice on its own
// goroutine would differ between P=1 and P=8. The RN* counters,
// CandAnchors and the road page reads are the anchor stream's: they
// depend on when the keeper's bound falls, like PairsEvaluated.
func frontCounters(s Stats) Stats {
	return Stats{
		SNUsersTotal: s.SNUsersTotal, SNIndexPruned: s.SNIndexPruned,
		SNIndexPrunedInterest: s.SNIndexPrunedInterest, SNIndexPrunedDist: s.SNIndexPrunedDist,
		SNObjPruned: s.SNObjPruned, SNObjPrunedInterest: s.SNObjPrunedInterest, SNObjPrunedDist: s.SNObjPrunedDist,
		CandUsers: s.CandUsers,
	}
}

// TestConcurrentQueriesIsolateStats is the regression test for the Stats
// aggregation fix: two queries running interleaved on one engine must each
// report exactly the answer and the page reads they report when run back
// to back. Before per-query trackers, concurrent queries shared one LRU
// pool and one counter set, so interleaving corrupted both numbers. The
// answers are checked at the default Parallelism; the page reads at
// Parallelism 1, where the anchor stream's reads do not depend on when
// the keeper's bound falls.
func TestConcurrentQueriesIsolateStats(t *testing.T) {
	ds := smallDataset(t, 25)
	pA := Params{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	pB := Params{Gamma: 0.3, Tau: 3, Theta: 0.4, R: 1.5, Metric: MetricDotProduct}
	for _, par := range []int{0, 1} {
		e := buildEngine(t, ds, Options{Parallelism: par})
		resA, seqA, err := e.Query(1, pA)
		if err != nil {
			t.Fatal(err)
		}
		resB, seqB, err := e.Query(9, pB)
		if err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 8; round++ {
			var wg sync.WaitGroup
			var gotA, gotB Result
			var stA, stB Stats
			var errA, errB error
			wg.Add(2)
			go func() { defer wg.Done(); gotA, stA, errA = e.Query(1, pA) }()
			go func() { defer wg.Done(); gotB, stB, errB = e.Query(9, pB) }()
			wg.Wait()
			if errA != nil || errB != nil {
				t.Fatalf("P=%d round %d: %v / %v", par, round, errA, errB)
			}
			if !reflect.DeepEqual(gotA, resA) || !reflect.DeepEqual(gotB, resB) {
				t.Fatalf("P=%d round %d: concurrent answers differ from sequential", par, round)
			}
			if par != 1 {
				continue
			}
			if stA.PageReads != seqA.PageReads {
				t.Fatalf("round %d: query A reports %d page reads interleaved, %d sequential",
					round, stA.PageReads, seqA.PageReads)
			}
			if stB.PageReads != seqB.PageReads {
				t.Fatalf("round %d: query B reports %d page reads interleaved, %d sequential",
					round, stB.PageReads, seqB.PageReads)
			}
		}
	}
}

// TestConcurrentEngineStress hammers one engine from many goroutines with
// a mix of Query and QueryTopK. Answers must match the ones computed
// sequentially up front. Run under -race this doubles as the engine-level
// data-race check.
func TestConcurrentEngineStress(t *testing.T) {
	ds := smallDataset(t, 26)
	e := buildEngine(t, ds, Options{})
	users := []socialnet.UserID{0, 5, 11, 23, 37, 52}
	want := make([]Result, len(users))
	wantK := make([][]Result, len(users))
	p := Params{Gamma: 0.2, Tau: 2, Theta: 0.3, R: 2, Metric: MetricDotProduct}
	for i, uq := range users {
		r, _, err := e.Query(uq, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
		rk, _, err := e.QueryTopK(uq, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantK[i] = rk
	}

	const goroutines = 8
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(users)
				if it%2 == 0 {
					r, _, err := e.Query(users[i], p)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(r, want[i]) {
						t.Errorf("goroutine %d iter %d: Query(%d) diverged", g, it, users[i])
						return
					}
				} else {
					rk, _, err := e.QueryTopK(users[i], p, 3)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(rk, wantK[i]) {
						t.Errorf("goroutine %d iter %d: QueryTopK(%d) diverged", g, it, users[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
