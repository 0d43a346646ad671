// Package bitset is a fixed-size set of small non-negative integers,
// one bit each. The simulator's front-end tables use one to mark the
// parts a run wrote (cache sets, predictor blocks and entries), so
// resetting or diffing a table visits only those parts instead of the
// whole table.
package bitset

import (
	"iter"
	"math/bits"
)

// Set holds the integers 0..n-1 for the n it was made with.
type Set []uint64

// New returns an empty set able to hold 0..n-1.
func New(n int) Set { return make(Set, (n+63)/64) }

// Add puts i in the set.
func (s Set) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// All yields the set's members in increasing order.
func (s Set) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				if !yield(wi<<6 | bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}
