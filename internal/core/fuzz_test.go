package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gpssn/internal/gen"
	"gpssn/internal/socialnet"
)

// TestEngineOracleFuzz cross-checks the engine against the brute-force
// oracle on many random tiny datasets and random parameters — the widest
// correctness net in the suite. Each failure would print enough to
// reproduce (seed + params + issuer).
func TestEngineOracleFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep")
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		seed := rng.Int63n(1 << 30)
		ds, err := gen.Synthetic(gen.Config{
			Name: "fuzz", Seed: seed,
			RoadVertices: 80 + rng.Intn(80),
			SocialUsers:  30 + rng.Intn(40),
			POIs:         20 + rng.Intn(30),
			Topics:       4 + rng.Intn(6),
		})
		if err != nil {
			t.Fatalf("trial %d seed %d: %v", trial, seed, err)
		}
		e := buildEngine(t, ds, Options{})
		oracle := &Baseline{DS: ds}
		for q := 0; q < 3; q++ {
			p := Params{
				Gamma:  rng.Float64() * 0.6,
				Tau:    1 + rng.Intn(5),
				Theta:  rng.Float64() * 0.6,
				R:      0.5 + rng.Float64()*3,
				Metric: MetricDotProduct,
			}
			uq := socialnet.UserID(rng.Intn(len(ds.Users)))
			got, _, err := e.Query(uq, p)
			if err != nil {
				t.Fatalf("trial %d seed %d uq %d %s: %v", trial, seed, uq, p, err)
			}
			want, _ := oracle.Query(uq, p)
			if got.Found != want.Found {
				t.Fatalf("trial %d seed %d uq %d %s: found=%v oracle=%v",
					trial, seed, uq, p, got.Found, want.Found)
			}
			if got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6 {
				t.Fatalf("trial %d seed %d uq %d %s: cost %v oracle %v",
					trial, seed, uq, p, got.MaxDist, want.MaxDist)
			}
		}
	}
}

// TestEngineRadiusBoundaries exercises the exact RMin/RMax radii, where
// the multi-level sub_K selection and validation edge cases live.
func TestEngineRadiusBoundaries(t *testing.T) {
	ds := smallDataset(t, 31)
	e := buildEngine(t, ds, Options{})
	oracle := &Baseline{DS: ds}
	for _, r := range []float64{0.5, 1.0, 4.0} { // RMin, a sub level, RMax
		p := Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: r, Metric: MetricDotProduct}
		got, _, err := e.Query(9, p)
		if err != nil {
			t.Fatalf("r=%v: %v", r, err)
		}
		want, _ := oracle.Query(9, p)
		if got.Found != want.Found || (got.Found && math.Abs(got.MaxDist-want.MaxDist) > 1e-6) {
			t.Fatalf("r=%v: %+v vs oracle %+v", r, got, want)
		}
	}
}

// TestEngineIsolatedIssuer: a user with no friends can only form groups of
// size 1.
func TestEngineIsolatedIssuer(t *testing.T) {
	ds := smallDataset(t, 32)
	// Find (or fabricate conceptually) the least-connected user. Synthetic
	// generation guarantees degree >= 1, so test via tau > reachable set:
	// pick any user and ask for an impossible group size within 1 hop.
	e := buildEngine(t, ds, Options{})
	var uq socialnet.UserID
	minDeg := 1 << 30
	for u := 0; u < ds.Social.NumUsers(); u++ {
		if d := ds.Social.Degree(socialnet.UserID(u)); d < minDeg {
			minDeg = d
			uq = socialnet.UserID(u)
		}
	}
	reach := len(ds.Social.WithinHops(uq, 3))
	p := Params{Gamma: 0, Tau: reach + 1, Theta: 0, R: 2, Metric: MetricDotProduct}
	if p.Tau > 12 {
		t.Skip("dataset too connected for this check")
	}
	res, _, err := e.Query(uq, p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (&Baseline{DS: ds}).Query(uq, p)
	if res.Found != want.Found {
		t.Fatalf("found=%v oracle=%v", res.Found, want.Found)
	}
}

// TestEngineCorollary2KeepsOptimum: the Corollary 2 filter must never
// remove a user that belongs to the optimal group.
func TestEngineCorollary2KeepsOptimum(t *testing.T) {
	for seed := int64(33); seed < 36; seed++ {
		ds := smallDataset(t, seed)
		plain := buildEngine(t, ds, Options{})
		filtered := buildEngine(t, ds, Options{UseCorollary2: true})
		p := Params{Gamma: 0.3, Tau: 3, Theta: 0.3, R: 2, Metric: MetricDotProduct}
		for _, uq := range []socialnet.UserID{1, 20, 50} {
			a, _, err := plain.Query(uq, p)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := filtered.Query(uq, p)
			if err != nil {
				t.Fatal(err)
			}
			if a.Found != b.Found || (a.Found && math.Abs(a.MaxDist-b.MaxDist) > 1e-9) {
				t.Fatalf("seed %d uq %d: corollary2 changed the answer: %v vs %v",
					seed, uq, a.MaxDist, b.MaxDist)
			}
		}
	}
}

// TestEngineConcurrentQueries: an Engine may be shared across goroutines
// (queries serialize internally); results must match the sequential run.
func TestEngineConcurrentQueries(t *testing.T) {
	ds := smallDataset(t, 37)
	e := buildEngine(t, ds, Options{})
	p := Params{Gamma: 0.2, Tau: 2, Theta: 0.2, R: 2, Metric: MetricDotProduct}
	users := []socialnet.UserID{0, 5, 10, 15, 20, 25, 30, 35}
	sequential := make([]Result, len(users))
	for i, u := range users {
		r, _, err := e.Query(u, p)
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = r
	}
	results := make([]Result, len(users))
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func(i int, u socialnet.UserID) {
			defer wg.Done()
			r, _, err := e.Query(u, p)
			results[i], errs[i] = r, err
		}(i, u)
	}
	wg.Wait()
	for i := range users {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d: %v", i, errs[i])
		}
		if results[i].Found != sequential[i].Found ||
			(results[i].Found && math.Abs(results[i].MaxDist-sequential[i].MaxDist) > 1e-12) {
			t.Fatalf("concurrent result %d diverged", i)
		}
	}
}
