// Package topics provides an exact bitset over the GP-SSN topic/keyword
// vocabulary [0, d). Refinement and the probe use a Set for a ball's
// keyword union; unlike the paper's hashed bit-vector signatures, a Set
// has no collisions, which an exact matching score requires.
package topics

import "fmt"

// Set is an exact bitset over the topic vocabulary [0, d); see the
// package comment for where it is used and why it must be exact.
type Set struct {
	d     int
	words []uint64
}

// NewSet returns an empty set over a vocabulary of d topics.
func NewSet(d int) Set {
	if d <= 0 {
		panic(fmt.Sprintf("topics: non-positive vocabulary size %d", d))
	}
	return Set{d: d, words: make([]uint64, (d+63)/64)}
}

// Add inserts topic t.
func (s Set) Add(t int) {
	if t < 0 || t >= s.d {
		panic(fmt.Sprintf("topics: topic %d outside vocabulary [0,%d)", t, s.d))
	}
	s.words[t>>6] |= 1 << (uint(t) & 63)
}

// Has reports whether topic t is in the set.
func (s Set) Has(t int) bool {
	if t < 0 || t >= s.d {
		panic(fmt.Sprintf("topics: topic %d outside vocabulary [0,%d)", t, s.d))
	}
	return s.words[t>>6]&(1<<(uint(t)&63)) != 0
}

// IsEmpty reports whether no topic is set.
func (s Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Vocabulary returns d.
func (s Set) Vocabulary() int { return s.d }

// Words returns the set's bit words, topic t at bit t&63 of word t>>6 and
// every bit at or above d clear. Read-only: it is the set's own storage.
func (s Set) Words() []uint64 { return s.words }

// Clear removes every topic, keeping the allocation — scratch sets in
// per-worker arenas are reused across anchors this way.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}
