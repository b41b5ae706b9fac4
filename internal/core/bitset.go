package core

import "math/bits"

// bitset is a set of small non-negative integers, one bit each. It grows
// to hold the largest member added; a nil bitset is empty.
type bitset []uint64

// newBitset returns an empty set with room for the members below n.
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// add puts i in the set. Growth at least doubles the words, so a set
// built member by member allocates about twice its final size in all.
func (b *bitset) add(i int) {
	w := i >> 6
	if w >= len(*b) {
		grown := make(bitset, max(w+1, 2*len(*b)))
		copy(grown, *b)
		*b = grown
	}
	(*b)[w] |= 1 << (i & 63)
}

// has reports whether i is in the set.
func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

// count returns the number of members.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// jobSet is a set of JobIDs. In-process JobIDs count up from 1, so an ID
// within jobSetReach of 64 times the IDs added so far is a bit of a bitset;
// any other ID, which only wire or imported input carries, goes to a map.
// No input can make the bitset outgrow the IDs it holds by more than that
// margin: it takes at most 8 bytes per ID added, plus 8 KiB.
type jobSet struct {
	bits bitset
	n    int64 // IDs added, repeats included
	far  map[int64]bool
}

// jobSetReach is the slack, in IDs, past 64 per ID added within which an ID
// still goes into the bitset (8 KiB of bits).
const jobSetReach = 1 << 16

func (s *jobSet) add(id int64) {
	if id >= 0 && id < 64*s.n+jobSetReach {
		s.bits.add(int(id))
	} else {
		if s.far == nil {
			s.far = make(map[int64]bool)
		}
		s.far[id] = true
	}
	s.n++
}

func (s *jobSet) has(id int64) bool {
	// An ID filed in the map before the bitset reached it is still there.
	return id >= 0 && id < int64(len(s.bits))<<6 && s.bits.has(int(id)) || s.far[id]
}
