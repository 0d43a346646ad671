package bitset

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestAllYieldsMembersInOrder: All yields exactly the added integers,
// each once, in increasing order — across word boundaries and at the
// set's last index — and stops when the loop breaks.
func TestAllYieldsMembersInOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		s := New(n)
		want := map[int]bool{n - 1: true}
		s.Add(n - 1)
		for k := 0; k < n/3; k++ {
			i := rng.IntN(n)
			s.Add(i)
			want[i] = true
		}
		var got []int
		for i := range s.All() {
			got = append(got, i)
		}
		if !slices.IsSorted(got) || len(got) != len(want) {
			t.Fatalf("n %d: All yields %v, want the %d members in order", n, got, len(want))
		}
		for _, i := range got {
			if !want[i] {
				t.Fatalf("n %d: All yields %d, which was never added", n, i)
			}
		}
		for range s.All() {
			break
		}
		clear(s)
		for i := range s.All() {
			t.Fatalf("n %d: a cleared set yields %d", n, i)
		}
	}
}
