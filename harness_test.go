package gpssn

import (
	"errors"
	"reflect"
	"testing"

	"gpssn/internal/bench"
	"gpssn/internal/core"
)

// TestHarnessMatchesProduct is the harness = product gate: the figure
// harness's engine (bench.GetEnv) and a DB opened with DefaultConfig over
// an identically generated dataset must agree on every answer, on the
// paper's I/O metric and on the index-level pruning counters, under the hl
// oracle. It fails as soon as the harness's defaults drift from
// DefaultConfig's. Answers are compared at the default Parallelism; the
// counters at Parallelism 1 (a twin of the harness's engine over its
// indexes, and a DB opened at 1), since above it the anchor stream's page
// reads and RN* counters depend on when the keeper's bound falls.
func TestHarnessMatchesProduct(t *testing.T) {
	shapes := []Query{
		{GroupSize: 5, Gamma: 0.5, Theta: 0.5, Radius: 2}, // Table 3 defaults
		{GroupSize: 3, Gamma: 0.2, Theta: 0.3, Radius: 1},
	}
	for _, kind := range []bench.DatasetKind{bench.UNI, bench.BriCal} {
		// Seed 0 is DefaultConfig's pivot seed; the harness uses one seed
		// for the dataset and the pivots.
		env, err := bench.GetEnv(bench.EnvSpec{Kind: kind, Scale: 0.01, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := bench.Dataset(env.Spec)
		if err != nil {
			t.Fatal(err)
		}
		net := &Network{ds: ds}
		db, err := Open(net, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if h := db.Health(); h.OracleActive != "hl" {
			t.Fatalf("%s: product oracle %q, want hl", kind, h.OracleActive)
		}
		cfg := DefaultConfig()
		cfg.Parallelism = 1
		seqDB, err := Open(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		he := env.Engine
		seqEngine := core.NewEngine(he.DS, he.Road, he.Social, core.Options{Parallelism: 1})
		for _, q := range shapes {
			for _, u := range env.QueryUsers(8, 100) {
				want, _, err := env.Engine.Query(u, q.params())
				if err != nil {
					t.Fatal(err)
				}
				ans, st, err := db.Query(int(u), q)
				if err != nil && !(errors.Is(err, ErrNoAnswer) && !want.Found) {
					t.Fatalf("%s user %d %+v: %v", kind, u, q, err)
				}
				if want.Found != (ans != nil) {
					t.Fatalf("%s user %d %+v: harness found=%v, product found=%v", kind, u, q, want.Found, ans != nil)
				}
				// Same oracle, same indexes: bit-identical, cost included.
				if w := answerFrom(want, false); ans != nil && !reflect.DeepEqual(*ans, w) {
					t.Errorf("%s user %d %+v: harness %+v, product %+v", kind, u, q, w, *ans)
				}
				_, raw, err := seqEngine.Query(u, q.params())
				if err != nil {
					t.Fatal(err)
				}
				_, st, err = seqDB.Query(int(u), q)
				if err != nil && !errors.Is(err, ErrNoAnswer) {
					t.Fatalf("%s user %d %+v at P=1: %v", kind, u, q, err)
				}
				for _, c := range []struct {
					name      string
					got, want int64
				}{
					{"PageReads", st.PageReads, raw.PageReads},
					{"SNIndexPruned", int64(st.Raw.SNIndexPruned), int64(raw.SNIndexPruned)},
					{"RNIndexPruned", int64(st.Raw.RNIndexPruned), int64(raw.RNIndexPruned)},
				} {
					if c.got != c.want {
						t.Errorf("%s user %d %+v: %s product %d, harness %d", kind, u, q, c.name, c.got, c.want)
					}
				}
			}
		}
	}
}
