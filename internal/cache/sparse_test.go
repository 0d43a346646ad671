package cache

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// fullScanDelta is the reference for Delta: it scans every set of the
// level for one that differs from the New state.
func fullScanDelta(c *Cache) Delta {
	d := Delta{Accesses: c.Accesses, Misses: c.Misses}
	a := c.cfg.Assoc
	for base := 0; base < len(c.tags); base += a {
		diff := false
		for w := 0; w < a && !diff; w++ {
			diff = c.valid[base+w] || c.tags[base+w] != 0 || int(c.lru[base+w]) != w
		}
		if diff {
			d.Sets = append(d.Sets, int32(base/a))
			d.Tags = append(d.Tags, c.tags[base:base+a]...)
			d.Valid = append(d.Valid, c.valid[base:base+a]...)
			d.LRU = append(d.LRU, c.lru[base:base+a]...)
		}
	}
	return d
}

// TestSparseResetProperty: through seeded random runs of accesses,
// resets and Applies of earlier deltas, a level's Delta equals a
// full-scan reference, Apply of it on a new level reproduces the level
// deeply (dirty marks included), and Reset leaves it deeply equal to
// New. Reset and Delta visit only the dirty sets, so a set a run wrote
// but left unmarked would fail all three.
func TestSparseResetProperty(t *testing.T) {
	hc := DefaultHierarchyConfig()
	for i, cfg := range []Config{
		hc.L1I, hc.L1D, hc.L2,
		{Name: "tiny", SizeB: 128, Assoc: 2, LineB: 16, Latency: 2},
		{Name: "dm", SizeB: 256, Assoc: 1, LineB: 16, Latency: 1},
	} {
		rng := rand.New(rand.NewPCG(uint64(i), 5))
		span := uint64(cfg.SizeB) * 4 // conflicts, yet some sets stay clean
		c := New(cfg)
		var saved []Delta
		for round := 0; round < 60; round++ {
			if rng.IntN(4) == 0 {
				c.Reset()
				if len(saved) > 0 && rng.IntN(3) > 0 {
					c.Apply(&saved[rng.IntN(len(saved))])
				}
			}
			hot := rng.Uint64N(span)
			for n := rng.IntN(400); n > 0; n-- {
				addr := rng.Uint64N(span)
				if rng.IntN(3) > 0 {
					addr = hot + rng.Uint64N(4*uint64(cfg.LineB))
				}
				c.Access(addr)
			}
			d := c.Delta()
			if want := fullScanDelta(c); !reflect.DeepEqual(d, want) {
				t.Fatalf("%s round %d: Delta has %d sets, a full scan %d", cfg.Name, round, len(d.Sets), len(want.Sets))
			}
			applied := New(cfg)
			applied.Apply(&d)
			if !reflect.DeepEqual(applied, c) {
				t.Fatalf("%s round %d: Apply(Delta) on a new level differs from the level", cfg.Name, round)
			}
			saved = append(saved, d)
		}
		c.Reset()
		if !reflect.DeepEqual(c, New(cfg)) {
			t.Errorf("%s: Reset differs from New", cfg.Name)
		}
	}
}
