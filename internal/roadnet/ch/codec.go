package ch

import (
	"fmt"
	"math"

	"gpssn/internal/snap"
)

// Encode serializes the oracle into a snapshot section payload: the
// in-memory representation verbatim, the vertex count, the rank array and
// the up-edge CSR.
//
// An earlier layout also carried a shortcut count after n and a down-edge
// CSR at the end. Decode never misreads one: it takes the shortcut count
// for the rank array's length prefix, so the rank array is either the
// wrong length or starts with n, out of range either way.
func (o *Oracle) Encode(e *snap.Enc) {
	e.U32(uint32(o.n))
	e.I32s(o.rank)
	e.I32s(o.up.off)
	e.I32s(o.up.to)
	e.F64s(o.up.w)
}

// Decode reconstructs an oracle from a payload written by Encode,
// validating every structural invariant queries rely on: the rank array is
// a permutation, the CSR is well-formed with in-range endpoints and finite
// non-negative weights, and its arcs lead strictly upward in rank. A
// snapshot that decodes cleanly therefore
// answers exactly like the oracle that was saved; anything less fails with
// an error so the caller rebuilds from the road graph instead.
func Decode(d *snap.Dec) (*Oracle, error) {
	n := int(int32(d.U32()))
	rank := d.I32s()
	up, errUp := decodeCSR(d, n)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if errUp != nil {
		return nil, fmt.Errorf("ch: up adjacency: %w", errUp)
	}
	if n < 0 {
		return nil, fmt.Errorf("ch: negative size (n=%d)", n)
	}
	if len(rank) != n {
		return nil, fmt.Errorf("ch: rank array has %d entries, want %d", len(rank), n)
	}
	seen := make([]bool, n)
	for v, r := range rank {
		if r < 0 || int(r) >= n || seen[r] {
			return nil, fmt.Errorf("ch: rank[%d]=%d is not a permutation entry", v, r)
		}
		seen[r] = true
	}
	for v := 0; v < n; v++ {
		for i := up.off[v]; i < up.off[v+1]; i++ {
			if rank[up.to[i]] <= rank[v] {
				return nil, fmt.Errorf("ch: up-arc %d->%d does not increase rank", v, up.to[i])
			}
		}
	}
	return &Oracle{n: n, rank: rank, up: up}, nil
}

func decodeCSR(d *snap.Dec, n int) (csr, error) {
	c := csr{off: d.I32s(), to: d.I32s(), w: d.F64s()}
	if d.Err() != nil {
		return c, nil // the sticky decode error is reported by the caller
	}
	if n < 0 || len(c.off) != n+1 {
		return c, fmt.Errorf("offset array has %d entries, want %d", len(c.off), n+1)
	}
	// The in-memory CSR indexes arcs through int32 offsets; a payload
	// declaring more arcs than int32 can address is rejected with the
	// typed overflow error rather than silently wrapping the offsets.
	if int64(len(c.to)) > int64(math.MaxInt32) {
		return c, fmt.Errorf("arc count %d: %w", len(c.to), snap.ErrCountOverflow)
	}
	if c.off[0] != 0 {
		return c, fmt.Errorf("offset array starts at %d", c.off[0])
	}
	for i := 1; i <= n; i++ {
		if c.off[i] < c.off[i-1] {
			return c, fmt.Errorf("offset array not monotone at %d", i)
		}
	}
	if int(c.off[n]) != len(c.to) || len(c.to) != len(c.w) {
		return c, fmt.Errorf("arc arrays inconsistent (off=%d to=%d w=%d)", c.off[n], len(c.to), len(c.w))
	}
	for i, t := range c.to {
		if t < 0 || int(t) >= n {
			return c, fmt.Errorf("arc %d endpoint %d out of range [0,%d)", i, t, n)
		}
		if w := c.w[i]; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return c, fmt.Errorf("arc %d weight %v not a finite non-negative value", i, w)
		}
	}
	return c, nil
}
