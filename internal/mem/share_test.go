package mem

import (
	"math/rand"
	"testing"
)

// TestShareIsCopyOnWrite: after Share, stores through either view land
// only in that view, and views of views stay independent — a property
// check over random stores and shares against a word-map model, with
// enough shares to stack delta layers and merge them flat.
func TestShareIsCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type view struct {
		m   *Memory
		ref map[uint64]uint64
	}
	clone := func(r map[uint64]uint64) map[uint64]uint64 {
		c := make(map[uint64]uint64, len(r))
		for k, v := range r {
			c[k] = v
		}
		return c
	}
	views := []view{{New(), map[uint64]uint64{}}}
	for step := 0; step < 20000; step++ {
		v := &views[rng.Intn(len(views))]
		switch r := rng.Intn(100); {
		case r < 2 && len(views) < 64:
			views = append(views, view{v.m.Share(), clone(v.ref)})
		case r < 60:
			// Most stores hit a few hot pages, some spread wide.
			page := uint64(rng.Intn(8))
			if rng.Intn(10) == 0 {
				page = uint64(rng.Intn(400))
			}
			a := page*PageSize + uint64(rng.Intn(PageSize/8))*8
			val := rng.Uint64()
			v.m.Store64(a, val)
			v.ref[a] = val
		default:
			for a, want := range v.ref {
				if got := v.m.Load64(a); got != want {
					t.Fatalf("step %d: %#x reads %#x, want %#x", step, a, got, want)
				}
				break
			}
		}
	}
	for i, v := range views {
		for a, want := range v.ref {
			if got := v.m.Load64(a); got != want {
				t.Fatalf("view %d: %#x reads %#x, want %#x", i, a, got, want)
			}
		}
		img := New()
		for a, val := range v.ref {
			img.Store64(a, val)
		}
		if !v.m.Equal(img) {
			t.Errorf("view %d holds words its model does not", i)
		}
	}
	if len(views) < 10 {
		t.Fatalf("only %d views; the test would not exercise sharing", len(views))
	}
}

// TestFromPagesOverSharesEqualPages: decoding an image over a previous
// one reuses every page whose contents are unchanged, and only those.
func TestFromPagesOverSharesEqualPages(t *testing.T) {
	a := New()
	for i := uint64(0); i < 6; i++ {
		a.Store64(i*PageSize, i+1)
	}
	prev, err := FromPages(a.Export())
	if err != nil {
		t.Fatal(err)
	}
	a.Store64(2*PageSize+8, 99) // page 2 changes
	a.Store64(9*PageSize, 5)    // page 9 is new
	next, err := FromPagesOver(a.Export(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(a) {
		t.Fatal("image decoded over a previous one differs from the original")
	}
	if got, want := ResidentBytes(prev, next), uint64(8*PageSize); got/PageSize != want/PageSize {
		t.Errorf("two images resident in %d pages, want 8 (6 shared + 1 changed + 1 new)", got/PageSize)
	}
}

// TestFlattenMatchesDecoding: flattening a layered image over a
// predecessor keeps its contents, drops the shadowed and all-zero
// pages, shares the predecessor's equal pages, and holds exactly what
// decoding its export over the same predecessor holds.
func TestFlattenMatchesDecoding(t *testing.T) {
	m := New()
	for a := uint64(0); a < 8*PageSize; a += PageSize {
		m.Store64(a, a+1)
	}
	prev := m.Share().Flatten(nil)
	m.Store64(3*PageSize, 99)           // shadows a page of the frozen layer
	m.Store64(20*PageSize, 0)           // an all-zero page
	m.Store64(5*PageSize, 5*PageSize+1) // rewrites the same value
	got := m.Share().Flatten(prev)
	if !got.Equal(m) {
		t.Fatal("flattened image differs from the original")
	}
	want, err := FromPagesOver(m.Export(), prev)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := ResidentBytes(prev, got), ResidentBytes(prev, want); g != w {
		t.Errorf("flattened over its predecessor holds %d bytes, decoded %d", g, w)
	}
	if got.PageCount() != 8 {
		t.Errorf("flattened image has %d pages, want 8 (no zero page, no shadowed page)", got.PageCount())
	}
}
