// Package bitvec implements the fixed-width keyword bit vectors that the
// GP-SSN indexes store in their nodes (Section 4.1 of the paper): each
// keyword in a node's sup_K set is hashed to a position in a bit vector
// (V_sup) so that membership can be tested without storing the full
// keyword set.
//
// A Vector of width w behaves like a Bloom filter with one hash function:
// Test may return false positives (a hash collision makes an absent keyword
// look present) but never false negatives. The pruning rules in the core
// package only rely on the superset direction, so collisions cost pruning
// power, never correctness.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-width bit vector. The zero value is unusable; create
// vectors with New.
type Vector struct {
	width int
	words []uint64
}

// New returns a zeroed Vector with the given width in bits. It panics if
// width is not positive, since a zero-width signature cannot represent any
// keyword set.
func New(width int) *Vector {
	if width <= 0 {
		panic(fmt.Sprintf("bitvec: non-positive width %d", width))
	}
	return &Vector{width: width, words: make([]uint64, (width+63)/64)}
}

// FromKeywords returns a new Vector of the given width with every keyword
// in ks hashed and set.
func FromKeywords(width int, ks []int) *Vector {
	v := New(width)
	for _, k := range ks {
		v.SetKeyword(k)
	}
	return v
}

// Width returns the vector's width in bits.
func (v *Vector) Width() int { return v.width }

// position maps a keyword identifier to a bit position. Keyword IDs are
// small non-negative integers (topic indices), so a multiplicative hash
// spreads consecutive IDs across the vector.
func (v *Vector) position(keyword int) int {
	h := uint64(keyword) * 0x9E3779B97F4A7C15 // Fibonacci hashing
	return int(h % uint64(v.width))
}

// SetKeyword hashes the keyword and sets its bit.
func (v *Vector) SetKeyword(keyword int) {
	v.SetBit(v.position(keyword))
}

// TestKeyword reports whether the keyword's bit is set. False positives are
// possible; false negatives are not.
func (v *Vector) TestKeyword(keyword int) bool {
	return v.Bit(v.position(keyword))
}

// SetBit sets bit i. It panics when i is out of range.
func (v *Vector) SetBit(i int) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: bit %d out of range [0,%d)", i, v.width))
	}
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// Bit reports whether bit i is set. It panics when i is out of range.
func (v *Vector) Bit(i int) bool {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: bit %d out of range [0,%d)", i, v.width))
	}
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Or sets v to the bitwise OR of v and u (the index stores a node's V_sup
// as the OR of its children's vectors). It panics when widths differ.
func (v *Vector) Or(u *Vector) {
	if v.width != u.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d != %d", v.width, u.width))
	}
	for i := range v.words {
		v.words[i] |= u.words[i]
	}
}

// Contains reports whether every set bit of u is also set in v, i.e.
// whether v's keyword set (as a signature) is a superset of u's.
func (v *Vector) Contains(u *Vector) bool {
	if v.width != u.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d != %d", v.width, u.width))
	}
	for i := range v.words {
		if u.words[i]&^v.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether v and u share at least one set bit.
func (v *Vector) Intersects(u *Vector) bool {
	if v.width != u.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d != %d", v.width, u.width))
	}
	for i := range v.words {
		if v.words[i]&u.words[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	out := &Vector{width: v.width, words: make([]uint64, len(v.words))}
	copy(out.words, v.words)
	return out
}

// Reset clears every bit.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Equal reports whether v and u have identical width and bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.width != u.width {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// SizeBytes returns the in-memory size of the vector's payload, used by the
// page simulator to lay index nodes out on pages.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// String renders the vector as a bit string, lowest bit first, for debugging.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.width)
	for i := 0; i < v.width; i++ {
		if v.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
