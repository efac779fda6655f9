package hl

import (
	"fmt"
	"math"

	"gpssn/internal/snap"
)

// Encode serializes the labels into a snapshot section payload that
// stands alone: the vertex count, the position map (vertex id → rank
// position) and the rank-space CSR label store. The offsets are int64 on
// the wire (uint64 length prefix) so an entry count past int32 round-trips
// without truncation. Slice counts that cannot fit their length prefix
// stick a snap.ErrCountOverflow on the encoder instead of writing a
// wrapped prefix; the snapshot writer checks Enc.Err before framing the
// section.
//
// The labels are written back to back in position order, so a store road
// inserts have left dead entries in is written without them.
//
// An earlier layout had no position map (it was derived from a CH
// section). Decode never misreads one: it takes the first four bytes of
// the uint64 offset count, n+1, for the map's length, which fails the
// length check.
func (o *Oracle) Encode(e *snap.Enc) {
	off := make([]int64, o.n+1)
	for p := range o.n {
		off[p+1] = off[p] + o.off[2*p+1] - o.off[2*p]
	}
	hub, dist := o.hub, o.dist
	if o.live != len(o.hub) {
		hub, dist = make([]int32, 0, o.live), make([]float64, 0, o.live)
		for p := range o.n {
			hH, hD := o.labelAt(int32(p))
			hub, dist = append(hub, hH...), append(dist, hD...)
		}
	}
	e.U32(uint32(o.n))
	e.I32s(o.pos)
	e.I64s(off)
	e.I32s(hub)
	e.F64s(dist)
}

// Decode reconstructs a label oracle from a payload written by Encode,
// validating the invariants the two-pointer merges rely on: the position
// map is a permutation of [0, n), offsets are monotone with a total that
// fits the platform, hubs are strictly ascending rank positions within
// each label and never above the owner's own position, every label is
// closed by its (p, 0) self-entry, and distances are finite and
// non-negative. The 2-hop cover property itself is not re-provable from
// the bytes alone — but a label store that passes these checks and was
// written by Encode is bit-identical to the saved oracle, and any
// tampering that survives them is caught by the section CRC first. Counts
// a 32-bit platform cannot index fail with snap.ErrCountOverflow (sticky
// on the decoder), never a silent truncation.
func Decode(d *snap.Dec) (*Oracle, error) {
	n := int(int32(d.U32()))
	pos := d.I32s()
	off := d.I64s()
	hub := d.I32s()
	dist := d.F64s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("hl: negative vertex count %d", n)
	}
	if len(pos) != n {
		return nil, fmt.Errorf("hl: position map has %d entries, want %d", len(pos), n)
	}
	seen := make([]bool, n)
	for v, p := range pos {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("hl: pos[%d]=%d is not a permutation entry", v, p)
		}
		seen[p] = true
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("hl: offset array has %d entries, want %d", len(off), n+1)
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("hl: offset array must start at 0")
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("hl: offset array not monotone at %d", i)
		}
	}
	if total := off[n]; total > int64(math.MaxInt) {
		return nil, fmt.Errorf("hl: label store holds %d entries: %w", total, snap.ErrCountOverflow)
	}
	if int(off[n]) != len(hub) || len(hub) != len(dist) {
		return nil, fmt.Errorf("hl: label arrays inconsistent (off=%d hub=%d dist=%d)", off[n], len(hub), len(dist))
	}
	o := &Oracle{n: n, pos: pos, off: make([]int64, 2*n), hub: hub, dist: dist, live: len(hub)}
	for p := 0; p < n; p++ {
		o.off[2*p], o.off[2*p+1] = off[p], off[p+1]
		lo, hi := off[p], off[p+1]
		if lo == hi {
			return nil, fmt.Errorf("hl: rank position %d has an empty label (self-entry missing)", p)
		}
		for i := lo; i < hi; i++ {
			h := hub[i]
			if h < 0 || int(h) > p {
				return nil, fmt.Errorf("hl: rank position %d hub %d outside rank space [0,%d]", p, h, p)
			}
			if i > lo && hub[i-1] >= h {
				return nil, fmt.Errorf("hl: rank position %d label not strictly ascending at entry %d", p, i-lo)
			}
			if dd := dist[i]; math.IsNaN(dd) || math.IsInf(dd, 0) || dd < 0 {
				return nil, fmt.Errorf("hl: rank position %d hub %d distance %v not finite non-negative", p, h, dd)
			}
		}
		if int(hub[hi-1]) != p {
			return nil, fmt.Errorf("hl: rank position %d label lacks its self-entry", p)
		}
		if dist[hi-1] != 0 {
			return nil, fmt.Errorf("hl: rank position %d self-entry distance %v, want 0", p, dist[hi-1])
		}
		if size := int(hi - lo); size > o.maxLabel {
			o.maxLabel = size
		}
	}
	return o, nil
}
