package roadnet_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gpssn/internal/geo"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
)

// labelGraph builds a random graph of two mutually unreachable components
// (vertices [0, n/2) and [n/2, n)) with the hub-label oracle attached.
func labelGraph(rng *rand.Rand, n int) *roadnet.Graph {
	g := roadnet.NewGraph(n, 3*n)
	for i := 0; i < n; i++ {
		g.AddVertex(geo.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	half := n / 2
	for _, c := range [][2]int{{0, half}, {half, n}} {
		for i := c[0] + 1; i < c[1]; i++ {
			g.AddEdge(roadnet.VertexID(i-1), roadnet.VertexID(i))
		}
		for i := c[0]; i < c[1]; i++ {
			u, v := c[0]+rng.Intn(c[1]-c[0]), c[0]+rng.Intn(c[1]-c[0])
			if u != v && !g.HasEdge(roadnet.VertexID(u), roadnet.VertexID(v)) {
				g.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v))
			}
		}
	}
	g.SetDistanceOracle(hl.Build(g))
	return g
}

// sameBits is exact float equality with +Inf equal to itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLabelTableRowKernel checks the row kernel against its references on
// random two-component graphs: RowDistsCk over table rows equals LabelDists
// over PrepareTargetLabels bit for bit and DistAttach up to summation
// order, for same-edge pairs, unreachable pairs (+Inf), and bounds placed
// exactly at and just below a distance; a tripped checkpoint yields all
// +Inf with the whole merge charged. It also pins the flattened (hub, slot)
// order entry for entry against a stable sort of the per-target labels, and
// the table's structural invariants as rows are appended.
func TestLabelTableRowKernel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		g := labelGraph(rng, 70)
		randAttach := func() roadnet.Attach {
			return g.AttachAt(roadnet.EdgeID(rng.Intn(g.NumEdges())), rng.Float64())
		}
		src := randAttach()
		// Row 1 shares the source's edge; row 2 sits in the other component.
		other := randAttach()
		for (g.EdgeAt(other.Edge).U < 35) == (g.EdgeAt(src.Edge).U < 35) {
			other = randAttach()
		}
		atts := []roadnet.Attach{src, {Edge: src.Edge, T: rng.Float64()}, other}
		for i := 0; i < 30; i++ {
			atts = append(atts, randAttach())
		}

		// Built in two steps, so Append's rows sit next to NewLabelTable's.
		table := g.NewLabelTable(atts[:20])
		for _, a := range atts[20:] {
			table.Append(g, a)
			if err := table.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: after append: %v", seed, err)
			}
		}
		if table.NumRows() != len(atts) {
			t.Fatalf("seed %d: table has %d rows for %d attachments", seed, table.NumRows(), len(atts))
		}

		// A shuffled subset with a repeated row: slot k is rows[k].
		rows := []int32{5, 0, 32, 1, 17, 5, 2, 12, 29, 3}
		targets := make([]roadnet.Attach, len(rows))
		for k, r := range rows {
			targets[k] = atts[r]
		}
		tl := g.PrepareTargetLabels(targets)
		flat := table.Flatten(rows)
		checkFlattenOrder(t, g, targets, flat)
		checkFlattenOrder(t, g, targets, tl)

		lbl := roadnet.AcquireLabel()
		g.AttachLabel(src, lbl)
		exact := g.RowDistsCk(lbl, src, table, rows, math.Inf(1), make([]float64, len(rows)), nil)
		// DistAttach adds the along-edge offsets after the label merge, the
		// kernels before it, so the two may differ in the last bit.
		for k, d := range exact {
			if want := g.DistAttach(src, targets[k]); !almostEq(d, want) {
				t.Fatalf("seed %d: row %d dist %v, DistAttach %v", seed, rows[k], d, want)
			}
		}
		if exact[1] != 0 || !math.IsInf(exact[6], 1) {
			t.Fatalf("seed %d: own row at %v, other component's row at %v; want 0 and +Inf", seed, exact[1], exact[6])
		}

		bounds := []float64{math.Inf(1), 30, 4}
		for _, d := range exact {
			if !math.IsInf(d, 1) && d > 0 {
				bounds = append(bounds, d, math.Nextafter(d, 0))
			}
		}
		got, want := make([]float64, len(rows)), make([]float64, len(rows))
		for _, bound := range bounds {
			g.RowDistsCk(lbl, src, table, rows, bound, got, nil)
			g.LabelDists(lbl, src, tl, bound, want)
			for k := range rows {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("seed %d bound %v: row kernel %v, flattened kernel %v (slot %d)", seed, bound, got[k], want[k], k)
				}
				switch {
				case exact[k] <= bound && !sameBits(got[k], exact[k]):
					t.Fatalf("seed %d bound %v: distance %v within the bound reported as %v", seed, bound, exact[k], got[k])
				case exact[k] > bound && !math.IsInf(got[k], 1):
					t.Fatalf("seed %d bound %v: distance %v beyond the bound reported as %v", seed, bound, exact[k], got[k])
				}
			}
		}

		ck := roadnet.NewCheckpoint(nil, nil, 1)
		g.RowDistsCk(lbl, src, table, rows, math.Inf(1), got, ck)
		for k, d := range got {
			if !math.IsInf(d, 1) {
				t.Fatalf("seed %d: tripped checkpoint left slot %d at %v", seed, k, d)
			}
		}
		if work := int64(len(rows)*lbl.Len() + flat.NumEntries()); !ck.Stopped() || ck.Spent() != work {
			t.Fatalf("seed %d: tripped merge charged %d (stopped %v), want %d", seed, ck.Spent(), ck.Stopped(), work)
		}
		roadnet.ReleaseLabel(lbl)
	}
}

// TestLabelTableWithoutLabels pins the degradation: no table without a
// label oracle, and a nil table holds no memory.
func TestLabelTableWithoutLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, plain := twinPair(t, rng, 30, "hl")
	at := []roadnet.Attach{g.AttachAt(0, 0.5)}
	if plain.NewLabelTable(at) != nil {
		t.Fatal("NewLabelTable must return nil without a label oracle")
	}
	var none *roadnet.LabelTable
	if none.MemoryBytes() != 0 {
		t.Fatal("a nil table holds no memory")
	}
	if table := g.NewLabelTable(at); table.NumRows() != 1 || table.MemoryBytes() <= 0 {
		t.Fatal("fresh table must hold its row and report its size")
	}
}

// checkFlattenOrder compares a TargetLabels entry for entry with the
// reference construction: each target's AttachLabel emitted in slot order,
// stably sorted by (hub, slot).
func checkFlattenOrder(t *testing.T, g *roadnet.Graph, targets []roadnet.Attach, tl *roadnet.TargetLabels) {
	t.Helper()
	type entry struct {
		hub, slot int32
		dist      float64
	}
	var want []entry
	lbl := roadnet.AcquireLabel()
	defer roadnet.ReleaseLabel(lbl)
	for k, a := range targets {
		g.AttachLabel(a, lbl)
		for j, h := range lbl.Hubs {
			want = append(want, entry{h, int32(k), lbl.Dist[j]})
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].hub != want[j].hub {
			return want[i].hub < want[j].hub
		}
		return want[i].slot < want[j].slot
	})
	hubs, slot, dist := tl.Entries()
	if tl.NumTargets() != len(targets) || len(hubs) != len(want) || len(slot) != len(want) || len(dist) != len(want) {
		t.Fatalf("flattened %d targets / %d entries, want %d / %d", tl.NumTargets(), len(hubs), len(targets), len(want))
	}
	for i, w := range want {
		if hubs[i] != w.hub || slot[i] != w.slot || !sameBits(dist[i], w.dist) {
			t.Fatalf("entry %d = (%d, %d, %v), want (%d, %d, %v)", i, hubs[i], slot[i], dist[i], w.hub, w.slot, w.dist)
		}
	}
}
