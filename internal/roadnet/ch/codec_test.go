package ch

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gpssn/internal/roadnet"
	"gpssn/internal/snap"
)

// encodeOracle serializes o the way the snapshot layer does.
func encodeOracle(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var e snap.Enc
	o.Encode(&e)
	if err := e.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return e.B
}

// TestCodecRoundTrip: a decoded oracle answers bit-identically to the one
// that was saved (same upward searches over the same arrays).
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomGraph(t, rng, 120, 1.5, true)
	o := Build(g)
	got, err := Decode(&snap.Dec{B: encodeOracle(t, o)})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := 0; i < 50; i++ {
		s := roadnet.VertexID(rng.Intn(g.NumVertices()))
		d := roadnet.VertexID(rng.Intn(g.NumVertices()))
		seeds := []roadnet.Seed{{Vertex: s, Dist: 0}}
		a := o.SeedDistances(seeds, []roadnet.VertexID{d}, 0)[0]
		b := got.SeedDistances(seeds, []roadnet.VertexID{d}, 0)[0]
		if a != b {
			t.Fatalf("dist(%d,%d): decoded %v != original %v", s, d, b, a)
		}
	}
}

// TestCodecRejectsTruncation: every prefix of a valid payload fails to
// decode — no truncation produces a structurally valid oracle.
func TestCodecRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	o := Build(randomGraph(t, rng, 40, 1.2, true))
	b := encodeOracle(t, o)
	for cut := 0; cut < len(b); cut += 7 {
		d := &snap.Dec{B: b[:cut]}
		dec, err := Decode(d)
		if err == nil && d.Done() {
			t.Fatalf("truncation at %d/%d decoded cleanly: %+v", cut, len(b), dec)
		}
	}
}

// corrupt re-encodes a structurally broken clone of o and returns the
// decode error (the clone shares slices it does not mutate).
func corruptAndDecode(t *testing.T, o *Oracle, mutate func(c *Oracle)) error {
	t.Helper()
	c := &Oracle{
		n:    o.n,
		rank: append([]int32(nil), o.rank...),
		up:   csr{off: append([]int32(nil), o.up.off...), to: append([]int32(nil), o.up.to...), w: append([]float64(nil), o.up.w...)},
	}
	mutate(c)
	_, err := Decode(&snap.Dec{B: encodeOracle(t, c)})
	return err
}

// TestCodecRejectsStructuralDamage: each invariant the queries rely on is
// individually enforced with a descriptive error.
func TestCodecRejectsStructuralDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	o := Build(randomGraph(t, rng, 60, 1.4, true))
	cases := []struct {
		name   string
		mutate func(c *Oracle)
		want   string
	}{
		{"rank-not-permutation", func(c *Oracle) { c.rank[3] = c.rank[4] }, "not a permutation"},
		{"rank-out-of-range", func(c *Oracle) { c.rank[0] = int32(c.n) }, "not a permutation"},
		{"offsets-not-monotone", func(c *Oracle) { c.up.off[1] = c.up.off[len(c.up.off)-1] + 1 }, "not monotone"},
		{"arc-endpoint-wild", func(c *Oracle) { c.up.to[0] = int32(c.n) }, "out of range"},
		{"weight-negative", func(c *Oracle) { c.up.w[len(c.up.w)-1] = -1 }, "finite non-negative"},
		{"weight-nan", func(c *Oracle) { c.up.w[0] = nan() }, "finite non-negative"},
		{"arc-arrays-inconsistent", func(c *Oracle) { c.up.to = c.up.to[:len(c.up.to)-1] }, "inconsistent"},
	}
	for _, tc := range cases {
		err := corruptAndDecode(t, o, tc.mutate)
		if err == nil {
			t.Errorf("%s: corrupt payload decoded cleanly", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Up-arc direction: swapping two ranks makes some arc point downward.
	err := corruptAndDecode(t, o, func(c *Oracle) {
		c.rank[0], c.rank[1] = c.rank[1], c.rank[0]
	})
	if err == nil {
		t.Error("rank swap decoded cleanly; arc-direction invariants not checked")
	}
}

// TestCodecCountOverflowTyped: a payload declaring a slice too large for
// the platform fails with the typed snap.ErrCountOverflow — callers
// (snapshot recovery) branch on it with errors.Is.
func TestCodecCountOverflowTyped(t *testing.T) {
	var e snap.Enc
	e.U32(2)          // n
	e.U32(2)          // rank length prefix...
	e.U32(0)          // rank[0]
	e.U32(1)          // rank[1]
	e.U32(0xFFFFFFFF) // up.off declared length: fails the remaining-bytes check at best
	payload := e.B
	if _, err := Decode(&snap.Dec{B: payload}); err == nil {
		t.Fatal("oversized count decoded cleanly")
	}
	// The int64-prefixed path (hl offsets) carries the typed error; here
	// the 32-bit prefix cannot exceed MaxInt on 64-bit platforms, so the
	// decoder reports plain truncation instead. Assert the sticky decode
	// error never panics or allocates past the payload.
	d := &snap.Dec{B: payload}
	if _, err := Decode(d); err == nil || d.Done() {
		t.Fatal("decoder must fail without consuming the payload cleanly")
	}
	// And the snap layer's own overflow guard is typed end to end.
	var big snap.Enc
	big.U64(1 << 62)
	dd := &snap.Dec{B: big.B}
	dd.I64s()
	if err := dd.Err(); !errors.Is(err, snap.ErrCountOverflow) {
		t.Fatalf("I64s with 2^62 declared entries: err = %v, want ErrCountOverflow", err)
	}
}

// TestCodecRejectsOldLayout: a payload in the earlier layout — a
// shortcut count after n and a down-edge CSR after the up one — never
// decodes, whatever the shortcut count, including the one that makes the
// rank array's length come out right, and on an empty graph.
func TestCodecRejectsOldLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, g := range []*roadnet.Graph{randomGraph(t, rng, 40, 1.2, true), roadnet.NewGraph(0, 0)} {
		o := Build(g)
		for _, shortcuts := range []int{0, 1, o.n, o.n + 1, 7 * o.n} {
			var e snap.Enc
			e.U32(uint32(o.n))
			e.U32(uint32(shortcuts))
			e.I32s(o.rank)
			e.I32s(o.up.off)
			e.I32s(o.up.to)
			e.F64s(o.up.w)
			// A down CSR of the right shape: every vertex without arcs.
			e.I32s(make([]int32, o.n+1))
			e.I32s(nil)
			e.F64s(nil)
			d := &snap.Dec{B: e.B}
			if _, err := Decode(d); err == nil && d.Done() {
				t.Fatalf("n=%d shortcuts=%d: old layout decoded cleanly", o.n, shortcuts)
			}
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}
