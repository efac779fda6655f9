package core

import (
	"math"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// ballTruth is M(u) from per-pair Graph.DistAttach calls: the ground truth
// every evaluator must reproduce up to float association order.
func ballTruth(ds *model.Dataset, u socialnet.UserID, ball []model.POIID) float64 {
	m := 0.0
	for _, o := range ball {
		m = math.Max(m, ds.Road.DistAttach(ds.Users[u].At, ds.POIs[o].At))
	}
	return m
}

func sameDist(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, b) }

// TestMOfOneDistancePath pins the bounded source-to-ball evaluator on every
// backend that uses it — plain Dijkstra, CH, and hub labels under an engine
// wired before they were attached, which holds no label table: unbounded it
// equals the per-pair DistAttach maximum; under a keeper a cost exactly at
// the bound is kept and the same cost one ulp beyond it is +Inf; and a
// tripped checkpoint prices every user +Inf.
func TestMOfOneDistancePath(t *testing.T) {
	backends := []struct {
		name  string
		setup func(ds *model.Dataset) *Engine
	}{
		{"dijkstra", func(ds *model.Dataset) *Engine { return buildEngine(t, ds, Options{}) }},
		{"ch", func(ds *model.Dataset) *Engine {
			ds.Road.SetDistanceOracle(ch.Build(ds.Road))
			return buildEngine(t, ds, Options{})
		}},
		{"hl-wired-early", func(ds *model.Dataset) *Engine {
			e := buildEngine(t, ds, Options{})
			ds.Road.SetDistanceOracle(hl.Build(ds.Road))
			if e.poiLabels != nil {
				t.Fatal("an engine wired before the labels were attached holds a label table")
			}
			return e
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			ds := smallDataset(t, 5)
			e := b.setup(ds)
			ar := e.acquireArena()
			defer e.releaseArena(ar)
			ball := []model.POIID{0, 3, 7, 11, 19}
			unbounded := e.makeMOf(ball, nil, nil, ar)
			tripped := roadnet.NewCheckpoint(nil, nil, 1)
			tripped.Spend(2)
			for u := range ds.Users {
				uid := socialnet.UserID(u)
				m := unbounded(uid)
				if want := ballTruth(ds, uid, ball); !sameDist(m, want) {
					t.Fatalf("user %d: M = %v, want per-pair max %v", u, m, want)
				}
				if math.IsInf(m, 1) {
					continue
				}
				at := newSharedKeeper(1)
				at.add(Result{Found: true, MaxDist: m})
				if got := e.makeMOf(ball, at, nil, ar)(uid); got != m {
					t.Fatalf("user %d: bound = M = %v evaluated to %v, want the tie kept", u, m, got)
				}
				below := newSharedKeeper(1)
				below.add(Result{Found: true, MaxDist: math.Nextafter(m, 0)})
				if got := e.makeMOf(ball, below, nil, ar)(uid); !math.IsInf(got, 1) {
					t.Fatalf("user %d: M = %v one ulp beyond the bound evaluated to %v, want +Inf", u, m, got)
				}
				if got := e.makeMOf(ball, nil, tripped, ar)(uid); !math.IsInf(got, 1) {
					t.Fatalf("user %d: tripped checkpoint evaluated to %v, want +Inf", u, got)
				}
			}
		})
	}
}
