package hl

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gpssn/internal/roadnet"
	"gpssn/internal/snap"
)

func encodeOracle(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var e snap.Enc
	o.Encode(&e)
	if err := e.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return e.B
}

// TestCodecRoundTrip: the decoded label store answers bit-identically —
// same CSR arrays, same merges, same distances.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
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
	if got.MaxLabelSize() != o.MaxLabelSize() || got.NumLabelEntries() != o.NumLabelEntries() {
		t.Fatalf("store stats drifted: max %d/%d entries %d/%d",
			got.MaxLabelSize(), o.MaxLabelSize(), got.NumLabelEntries(), o.NumLabelEntries())
	}
}

// TestCodecRejectsTruncation: every prefix fails to decode.
func TestCodecRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
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

func corruptAndDecode(t *testing.T, o *Oracle, mutate func(c *Oracle)) error {
	t.Helper()
	c := &Oracle{
		n:    o.n,
		pos:  append([]int32(nil), o.pos...),
		off:  append([]int64(nil), o.off...),
		hub:  append([]int32(nil), o.hub...),
		dist: append([]float64(nil), o.dist...),
	}
	mutate(c)
	_, err := Decode(&snap.Dec{B: encodeOracle(t, c)})
	return err
}

// TestCodecRejectsStructuralDamage: each label-store invariant the
// two-pointer merge kernel relies on is individually enforced.
func TestCodecRejectsStructuralDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	o := Build(randomGraph(t, rng, 60, 1.4, true))
	cases := []struct {
		name   string
		mutate func(c *Oracle)
		want   string
	}{
		{"pos-not-permutation", func(c *Oracle) { c.pos[3] = c.pos[4] }, "not a permutation"},
		{"pos-out-of-range", func(c *Oracle) { c.pos[0] = int32(c.n) }, "not a permutation"},
		{"pos-wrong-length", func(c *Oracle) { c.pos = c.pos[:c.n-1] }, "position map"},
		{"offsets-not-monotone", func(c *Oracle) { c.off[1] = c.off[len(c.off)-1] + 1 }, "not monotone"},
		{"offsets-wrong-origin", func(c *Oracle) {
			for i := range c.off {
				c.off[i]++
			}
		}, "start at 0"},
		{"arrays-inconsistent", func(c *Oracle) { c.hub = c.hub[:len(c.hub)-1] }, "inconsistent"},
		{"self-entry-missing", func(c *Oracle) { c.hub[c.off[2]-1] = 0 }, ""},
		{"self-entry-nonzero-dist", func(c *Oracle) { c.dist[c.off[1]-1] = 0.5 }, "self-entry"},
		{"hub-above-own-rank", func(c *Oracle) { c.hub[c.off[1]-1] = int32(c.n) }, "rank space"},
		{"distance-negative", func(c *Oracle) { c.dist[c.off[c.n-1]] = -1 }, "finite non-negative"},
	}
	for _, tc := range cases {
		err := corruptAndDecode(t, o, tc.mutate)
		if err == nil {
			t.Errorf("%s: corrupt payload decoded cleanly", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCodecRejectsOldLayout: a payload in the earlier layout, which had
// no position map and took it from a CH section, never decodes.
func TestCodecRejectsOldLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for _, g := range []*roadnet.Graph{randomGraph(t, rng, 40, 1.2, true), roadnet.NewGraph(0, 0)} {
		o := Build(g)
		var e snap.Enc
		e.U32(uint32(o.n))
		e.I64s(o.off)
		e.I32s(o.hub)
		e.F64s(o.dist)
		d := &snap.Dec{B: e.B}
		if _, err := Decode(d); err == nil && d.Done() {
			t.Fatalf("n=%d: old layout decoded cleanly", o.n)
		}
	}
}

// TestCodecCountOverflowTyped: the int64-prefixed offset array is the one
// place a snapshot can declare a count past platform bounds; it must fail
// with the typed snap.ErrCountOverflow so snapshot recovery can treat it
// as section damage (rebuild) rather than a programming error.
func TestCodecCountOverflowTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	o := Build(randomGraph(t, rng, 10, 1.0, true))
	var e snap.Enc
	e.U32(uint32(o.n))
	e.I32s(o.pos)
	e.U64(1 << 62) // off declared length: overflows MaxInt/8
	_, err := Decode(&snap.Dec{B: e.B})
	if !errors.Is(err, snap.ErrCountOverflow) {
		t.Fatalf("2^62 offsets: err = %v, want errors.Is ErrCountOverflow", err)
	}
}
