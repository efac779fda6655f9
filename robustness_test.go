package gpssn

import (
	"errors"
	"math"
	"strings"
	"testing"

	"gpssn/internal/failpoint"
)

// TestInvalidInputTyped drives every facade input-validation path and
// requires errors.Is(err, ErrInvalidInput) — and that nothing panics on
// the NaN/Inf values that slip through naive range comparisons.
func TestInvalidInputTyped(t *testing.T) {
	db := openWithOracle(t, 1, false, "dijkstra", 1)
	nan := math.NaN()
	inf := math.Inf(1)
	good := Query{GroupSize: 2, Gamma: 0.3, Theta: 0.4, Radius: 2}

	queryCases := map[string]struct {
		user int
		q    Query
	}{
		"negative user":   {-1, good},
		"user past range": {db.Network().NumUsers(), good},
		"zero tau":        {0, Query{GroupSize: 0, Gamma: 0.3, Theta: 0.4, Radius: 2}},
		"negative tau":    {0, Query{GroupSize: -3, Gamma: 0.3, Theta: 0.4, Radius: 2}},
		"zero radius":     {0, Query{GroupSize: 2, Gamma: 0.3, Theta: 0.4, Radius: 0}},
		"negative radius": {0, Query{GroupSize: 2, Gamma: 0.3, Theta: 0.4, Radius: -1}},
		"NaN radius":      {0, Query{GroupSize: 2, Gamma: 0.3, Theta: 0.4, Radius: nan}},
		"NaN gamma":       {0, Query{GroupSize: 2, Gamma: nan, Theta: 0.4, Radius: 2}},
		"negative gamma":  {0, Query{GroupSize: 2, Gamma: -0.1, Theta: 0.4, Radius: 2}},
		"NaN theta":       {0, Query{GroupSize: 2, Gamma: 0.3, Theta: nan, Radius: 2}},
		"negative budget": {0, Query{GroupSize: 2, Gamma: 0.3, Theta: 0.4, Radius: 2,
			Budget: Budget{MaxRefinedAnchors: -1}}},
		// The engine's own rejection (r outside the index build range
		// [RMin, RMax]) must come back typed too, not as an untyped error
		// that downstream layers misclassify as internal.
		"radius above RMax": {0, Query{GroupSize: 2, Gamma: 0.3, Theta: 0.4, Radius: 99}},
		"radius below RMin": {0, Query{GroupSize: 2, Gamma: 0.3, Theta: 0.4, Radius: 0.01}},
	}
	for name, tc := range queryCases {
		if _, _, err := db.Query(tc.user, tc.q); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Query %s: err = %v, want ErrInvalidInput", name, err)
		}
		if _, _, err := db.QueryTopK(tc.user, tc.q, 3); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("QueryTopK %s: err = %v, want ErrInvalidInput", name, err)
		}
	}

	if _, err := db.AddPOI(nan, 0, 1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddPOI NaN x: err = %v", err)
	}
	if _, err := db.AddPOI(0, inf, 1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddPOI Inf y: err = %v", err)
	}
	if _, err := db.AddPOI(0, 0); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddPOI no keywords: err = %v", err)
	}
	if _, err := db.AddPOI(0, 0, 99); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddPOI keyword out of vocabulary: err = %v", err)
	}
	if _, err := db.AddPOI(0, 0, -1); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddPOI negative keyword: err = %v", err)
	}
	topics := db.Network().NumTopics()
	if _, err := db.AddUser(nan, 0, make([]float64, topics)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddUser NaN x: err = %v", err)
	}
	bad := make([]float64, topics)
	bad[0] = nan
	if _, err := db.AddUser(0, 0, bad); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddUser NaN interest: err = %v", err)
	}
	bad[0] = 1.5
	if _, err := db.AddUser(0, 0, bad); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("AddUser interest > 1: err = %v", err)
	}

	// A valid query still works after all the rejected input (no state was
	// harmed).
	if _, _, err := db.Query(0, good); err != nil && !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("valid query after invalid input storm: %v", err)
	}
}

// requireEquivalentAnswers drives both DBs through the snapshot query set
// and demands the same answers up to floating-point association order
// (sameAnswer) — the right gate when the two sides run *different*
// oracles, where CH shortcut sums can differ from Dijkstra by 1 ULP.
func requireEquivalentAnswers(t *testing.T, want, got *DB, label string) {
	t.Helper()
	for _, q := range snapQueries {
		for user := 0; user < want.Network().NumUsers(); user += 7 {
			a1, _, err1 := want.Query(user, q)
			a2, _, err2 := got.Query(user, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: user %d %+v: err %v vs %v", label, user, q, err1, err2)
			}
			if err1 != nil {
				if !errors.Is(err1, ErrNoAnswer) || !errors.Is(err2, ErrNoAnswer) {
					t.Fatalf("%s: unexpected errors %v / %v", label, err1, err2)
				}
				continue
			}
			if !sameAnswer(a1, a2) {
				t.Fatalf("%s: user %d %+v:\n  want %s cost=%v\n  got  %s cost=%v",
					label, user, q, answerKey(a1), a1.MaxDistance, answerKey(a2), a2.MaxDistance)
			}
		}
	}
}

// TestOracleFallbackChain arms oracle-build failpoints and verifies Open
// degrades hl → ch → dijkstra, serving exact answers throughout, with
// the chain recorded in Health and never surfaced as an error.
func TestOracleFallbackChain(t *testing.T) {
	baseline := openWithOracle(t, 1, false, "dijkstra", 1)
	boom := errors.New("injected build failure")

	t.Run("hl-falls-to-ch", func(t *testing.T) {
		defer failpoint.Reset()
		failpoint.Arm("oracle.build.hl", failpoint.Failure{Mode: failpoint.ModeError, Err: boom})
		db := openWithOracle(t, 1, false, "hl", 1)
		h := db.Health()
		if !h.Degraded || h.OracleActive != "ch" || h.OracleRequested != "hl" {
			t.Fatalf("health = %+v, want degraded hl→ch", h)
		}
		if len(h.Notes) != 1 || !strings.Contains(h.Notes[0], "hl oracle build failed") {
			t.Fatalf("notes = %v", h.Notes)
		}
		requireEquivalentAnswers(t, baseline, db, "hl→ch")
	})

	t.Run("hl-falls-to-dijkstra", func(t *testing.T) {
		defer failpoint.Reset()
		failpoint.Arm("oracle.build.hl", failpoint.Failure{Mode: failpoint.ModeError, Err: boom})
		failpoint.Arm("oracle.build.ch", failpoint.Failure{Mode: failpoint.ModeError, Err: boom})
		var logged []string
		net, err := GenerateSynthetic(SyntheticOptions{
			Seed: 1, RoadVertices: 150, Users: 70, POIs: 45, Topics: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.RoadPivots = 4
		cfg.Parallelism = 1
		cfg.Logf = func(format string, args ...any) {
			logged = append(logged, format)
		}
		db, err := Open(net, cfg)
		if err != nil {
			t.Fatalf("Open must absorb oracle failures: %v", err)
		}
		h := db.Health()
		if !h.Degraded || h.OracleActive != "dijkstra" || len(h.Notes) != 2 {
			t.Fatalf("health = %+v, want degraded hl→ch→dijkstra", h)
		}
		if len(logged) == 0 {
			t.Fatal("Config.Logf saw no fallback lines")
		}
		requireIdenticalAnswers(t, baseline, db, "hl→dijkstra")
	})

	t.Run("strict-oracle-fails-open", func(t *testing.T) {
		defer failpoint.Reset()
		failpoint.Arm("oracle.build.hl", failpoint.Failure{Mode: failpoint.ModeError, Err: boom})
		net, err := GenerateSynthetic(SyntheticOptions{
			Seed: 1, RoadVertices: 60, Users: 20, POIs: 15, Topics: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.StrictOracle = true
		if _, err := Open(net, cfg); !errors.Is(err, boom) {
			t.Fatalf("strict open: err = %v, want the build failure", err)
		}
	})

	t.Run("healthy-open-reports-clean", func(t *testing.T) {
		db := openWithOracle(t, 1, false, "hl", 1)
		h := db.Health()
		if h.Degraded || h.OracleActive != "hl" || len(h.Notes) != 0 {
			t.Fatalf("healthy DB reports %+v", h)
		}
	})
}

// TestPanicBoundary injects a panic on a refinement worker goroutine, and
// one at the top of the query's social half (its own goroutine at
// Parallelism 8, inline at 1), and requires each to surface as a typed
// *InternalError carrying query context — with the DB still usable
// afterwards — at both sequential and parallel settings.
func TestPanicBoundary(t *testing.T) {
	for _, fp := range []string{"core.refine.panic", "core.social.panic"} {
		for _, par := range []int{1, 8} {
			defer failpoint.Reset()
			db := openWithOracle(t, 1, false, "dijkstra", par)
			q := Query{GroupSize: 2, Gamma: 0.1, Theta: 0.2, Radius: 2}
			failpoint.Arm(fp, failpoint.Failure{Mode: failpoint.ModeError, Count: 1})
			_, _, err := db.Query(3, q)
			failpoint.Reset()
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("%s par=%d: err = %v, want ErrInternal", fp, par, err)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("%s par=%d: error %v is not *InternalError", fp, par, err)
			}
			if ie.Op != "Query" || ie.User != 3 || len(ie.Stack) == 0 {
				t.Fatalf("%s par=%d: InternalError context incomplete: op=%q user=%d stack=%d bytes",
					fp, par, ie.Op, ie.User, len(ie.Stack))
			}
			// The DB survives: the same query without the failpoint answers
			// normally.
			if _, _, err := db.Query(3, q); err != nil && !errors.Is(err, ErrNoAnswer) {
				t.Fatalf("%s par=%d: DB unusable after recovered panic: %v", fp, par, err)
			}
		}
	}
}
