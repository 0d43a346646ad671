package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestDeltaApplyReproducesWarmedHierarchy: a hierarchy warmed by a
// random access stream, recorded as a Delta and applied to a reset
// hierarchy — a fresh one and a reused, dirtied one — is deeply equal to
// the warmed one.
func TestDeltaApplyReproducesWarmedHierarchy(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	warm := NewHierarchy(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<22)) &^ 7
		if i%3 == 0 {
			warm.InstFetch(addr)
		} else {
			warm.DataAccess(addr)
		}
	}
	d := warm.Delta()

	fresh := NewHierarchy(cfg)
	fresh.Apply(&d)
	if !reflect.DeepEqual(fresh, warm) {
		t.Error("Apply on a new hierarchy differs from the warmed one")
	}
	reused := NewHierarchy(cfg)
	for i := 0; i < 5000; i++ {
		reused.DataAccess(uint64(rng.Intn(1<<24)) &^ 7)
	}
	reused.Reset()
	reused.Apply(&d)
	if !reflect.DeepEqual(reused, warm) {
		t.Error("Apply on a reset, reused hierarchy differs from the warmed one")
	}
	if got := NewHierarchy(cfg).Delta(); len(got.L1I.Sets)+len(got.L1D.Sets)+len(got.L2.Sets) != 0 {
		t.Error("a reset hierarchy records a non-empty delta")
	}
}
