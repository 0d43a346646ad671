package mem

import (
	"math/rand"
	"testing"
)

// TestPageCacheMatchesViews drives random 8- and 4-byte loads and stores
// over 48 pages that collide in pairs of page-cache slots, interleaved
// with Share, Flatten and FromPagesOver, and checks every view against
// its own word model. A read entry left stale by a copy-on-write store,
// or a write entry that outlives a freeze, shows as a view reading
// another view's store or missing its own.
func TestPageCacheMatchesViews(t *testing.T) {
	// Twelve pages in each of four slots: every slot is contended.
	var pages []uint64
	for _, slot := range []uint64{1, 2, 9, 15} {
		for k := uint64(0); k < 12; k++ {
			pages = append(pages, k*pageCacheSlots+slot)
		}
	}
	// A view's model maps each 4-byte-aligned address to its word; a
	// missing address reads zero.
	type view struct {
		m   *Memory
		ref map[uint64]uint32
	}
	clone := func(r map[uint64]uint32) map[uint64]uint32 {
		c := make(map[uint64]uint32, len(r))
		for k, v := range r {
			c[k] = v
		}
		return c
	}
	check := func(step int, i int, v *view) {
		for a, want := range v.ref {
			if got := v.m.Load32(a); got != want {
				t.Fatalf("step %d: view %d reads %#x at %#x, want %#x", step, i, got, a, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	views := []view{{New(), map[uint64]uint32{}}}
	for step := 0; step < 30000; step++ {
		i := rng.Intn(len(views))
		v := &views[i]
		// Most accesses go to a few pages of the view, so entries are
		// read, copied on write and read again before they are evicted.
		page := pages[rng.Intn(len(pages))]
		if rng.Intn(4) > 0 {
			page = pages[(step/500+rng.Intn(3)*12)%len(pages)]
		}
		a := page<<pageBits | uint64(rng.Intn(PageSize/8))*8
		switch r := rng.Intn(100); {
		case r < 2 && len(views) < 40:
			views = append(views, view{v.m.Share(), clone(v.ref)})
		case r < 3 && len(views) < 40:
			var prev *Memory
			if rng.Intn(2) == 0 {
				prev = views[rng.Intn(len(views))].m
			}
			views = append(views, view{v.m.Flatten(prev), clone(v.ref)})
		case r < 4 && len(views) < 40:
			prev := views[rng.Intn(len(views))].m
			m, err := FromPagesOver(v.m.Export(), prev)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, view{m, clone(v.ref)})
		case r < 5:
			check(step, i, v)
		case r < 30:
			val := rng.Uint64()
			v.m.Store64(a, val)
			v.ref[a], v.ref[a+4] = uint32(val), uint32(val>>32)
		case r < 45:
			a += uint64(rng.Intn(2)) * 4
			val := rng.Uint32()
			v.m.Store32(a, val)
			v.ref[a] = val
		case r < 75:
			want := uint64(v.ref[a]) | uint64(v.ref[a+4])<<32
			if got := v.m.Load64(a); got != want {
				t.Fatalf("step %d: view %d Load64(%#x) = %#x, want %#x", step, i, a, got, want)
			}
		default:
			a += uint64(rng.Intn(2)) * 4
			if got, want := v.m.Load32(a), v.ref[a]; got != want {
				t.Fatalf("step %d: view %d Load32(%#x) = %#x, want %#x", step, i, a, got, want)
			}
		}
	}
	if len(views) < 20 {
		t.Fatalf("only %d views; the test would not exercise sharing", len(views))
	}
	for i := range views {
		check(-1, i, &views[i])
	}
}
