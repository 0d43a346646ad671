// Package cache implements the set-associative cache hierarchy of the
// simulated machine. The timing model only needs access *latencies* (the
// data values come from the oracle), so caches here track tags and LRU
// state and report hit/miss latency per access.
//
// The default hierarchy matches Table 2 of the paper:
//
//	L1 I: 64 KB, 4-way, 64 B lines, 1 cycle
//	L1 D: 32 KB, 2-way, 32 B lines, 2 ports, 2 cycles
//	L2:   1 MB, 2-way, 128 B lines, 10 cycles (unified)
//	Mem:  100 cycles
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name    string
	SizeB   int // total size in bytes
	Assoc   int // ways
	LineB   int // line size in bytes
	Latency uint64
}

// Cache is one set-associative, LRU, allocate-on-miss cache level. The
// tag/valid/LRU state lives in flat [set*assoc+way] arrays, so
// resetting a level for reuse (see Reset) is three bulk writes rather
// than thousands of per-set allocations.
type Cache struct {
	cfg      Config
	sets     int
	lineBits uint
	tags     []uint64 // [set*assoc+way]
	valid    []bool
	lru      []uint8 // lower is more recently used

	// Stats.
	Accesses uint64
	Misses   uint64
}

// MaxLines bounds a level's lines (SizeB / LineB), so its tag, valid
// and LRU arrays stay within about 10 MiB whatever a config asks for.
const MaxLines = 1 << 20

// Validate reports a geometry New cannot build: a non-positive size,
// associativity or line size, a line size or set count that is not a
// power of two, more than MaxLines lines, or more ways than the
// byte-wide LRU ranks can order (256). The message starts with the
// offending field's name.
func (c Config) Validate() error {
	switch {
	case c.SizeB <= 0 || c.Assoc <= 0 || c.LineB <= 0:
		return fmt.Errorf("SizeB %d, Assoc %d and LineB %d must be positive", c.SizeB, c.Assoc, c.LineB)
	case c.LineB&(c.LineB-1) != 0:
		return fmt.Errorf("LineB %d is not a power of two", c.LineB)
	case c.SizeB/c.LineB > MaxLines:
		return fmt.Errorf("SizeB %d holds %d lines of %d bytes; at most %d are allowed", c.SizeB, c.SizeB/c.LineB, c.LineB, MaxLines)
	case c.Assoc > 256 || c.Assoc > c.SizeB/c.LineB:
		return fmt.Errorf("Assoc %d exceeds 256 ways or the level's %d lines", c.Assoc, c.SizeB/c.LineB)
	}
	if sets := c.SizeB / (c.Assoc * c.LineB); sets&(sets-1) != 0 {
		return fmt.Errorf("SizeB %d gives %d sets of %d ways × %d bytes, not a power of two", c.SizeB, sets, c.Assoc, c.LineB)
	}
	return nil
}

// New builds a cache level. It panics on a geometry Validate rejects,
// which indicates a configuration bug rather than a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("cache %s: %v", cfg.Name, err))
	}
	c := &Cache{cfg: cfg, sets: cfg.SizeB / (cfg.Assoc * cfg.LineB)}
	for c.cfg.LineB>>c.lineBits > 1 {
		c.lineBits++
	}
	n := c.sets * cfg.Assoc
	c.tags = make([]uint64, n)
	c.valid = make([]bool, n)
	c.lru = make([]uint8, n)
	c.Reset()
	return c
}

// Reset returns the level to exactly the state New builds: every line
// invalid, each set's LRU order by way, statistics zero. Simulation
// reuses one level per geometry this way instead of allocating a fresh
// one per session or sampled window.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.valid)
	w := uint8(0)
	for i := range c.lru {
		c.lru[i] = w
		w++
		if int(w) == c.cfg.Assoc {
			w = 0
		}
	}
	c.Accesses, c.Misses = 0, 0
}

// Delta is a level's state as a sparse difference from its reset
// state: the sets that differ, each with its tag, valid and LRU bytes
// (Assoc entries per set, in Sets order), plus the statistics counters.
// A functionally warmed level touches a small share of its sets, so a
// Delta is much smaller than the level; Apply on a reset level of the
// same geometry reproduces the recorded state exactly.
type Delta struct {
	Sets     []int32
	Tags     []uint64
	Valid    []bool
	LRU      []uint8
	Accesses uint64
	Misses   uint64
}

// Delta records the level as a difference from its reset state.
func (c *Cache) Delta() Delta {
	d := Delta{Accesses: c.Accesses, Misses: c.Misses}
	a := c.cfg.Assoc
	for set := 0; set < c.sets; set++ {
		base := set * a
		diff := false
		for w := 0; w < a && !diff; w++ {
			diff = c.valid[base+w] || c.tags[base+w] != 0 || int(c.lru[base+w]) != w
		}
		if !diff {
			continue
		}
		d.Sets = append(d.Sets, int32(set))
		d.Tags = append(d.Tags, c.tags[base:base+a]...)
		d.Valid = append(d.Valid, c.valid[base:base+a]...)
		d.LRU = append(d.LRU, c.lru[base:base+a]...)
	}
	return d
}

// Apply installs d on a reset level of the geometry d was recorded
// from, leaving it in exactly the recorded state.
func (c *Cache) Apply(d *Delta) {
	a := c.cfg.Assoc
	for i, set := range d.Sets {
		base := int(set) * a
		copy(c.tags[base:base+a], d.Tags[i*a:])
		copy(c.valid[base:base+a], d.Valid[i*a:])
		copy(c.lru[base:base+a], d.LRU[i*a:])
	}
	c.Accesses, c.Misses = d.Accesses, d.Misses
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineBits
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

func (c *Cache) touch(base, way int) {
	old := c.lru[base+way]
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.lru[base+w] < old {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
}

// Access looks up addr, allocating the line on a miss (LRU victim), and
// reports whether it hit. Timing is the caller's concern via Latency().
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	set, tag := c.index(addr)
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			return true
		}
	}
	c.Misses++
	// Allocate into the LRU way.
	victim := 0
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.lru[base+w] == uint8(c.cfg.Assoc-1) {
			victim = w
			break
		}
	}
	c.tags[base+victim] = tag
	c.valid[base+victim] = true
	c.touch(base, victim)
	return false
}

// Probe reports whether addr is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Latency returns the level's access latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy bundles the L1 instruction, L1 data and unified L2 caches
// with the memory latency behind them.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	MemLatency   uint64
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   uint64
}

// DefaultHierarchyConfig reproduces Table 2.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "L1I", SizeB: 64 << 10, Assoc: 4, LineB: 64, Latency: 1},
		L1D:        Config{Name: "L1D", SizeB: 32 << 10, Assoc: 2, LineB: 32, Latency: 2},
		L2:         Config{Name: "L2", SizeB: 1 << 20, Assoc: 2, LineB: 128, Latency: 10},
		MemLatency: 100,
	}
}

// NewHierarchy builds the three-level hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:        New(cfg.L1I),
		L1D:        New(cfg.L1D),
		L2:         New(cfg.L2),
		MemLatency: cfg.MemLatency,
	}
}

// Reset returns every level to its New state (see Cache.Reset).
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}

// HierarchyDelta is a hierarchy's state as per-level Deltas.
type HierarchyDelta struct {
	L1I, L1D, L2 Delta
}

// Delta records every level as a difference from its reset state.
func (h *Hierarchy) Delta() HierarchyDelta {
	return HierarchyDelta{L1I: h.L1I.Delta(), L1D: h.L1D.Delta(), L2: h.L2.Delta()}
}

// Apply installs d on a reset hierarchy of the geometry it was recorded
// from (see Cache.Apply).
func (h *Hierarchy) Apply(d *HierarchyDelta) {
	h.L1I.Apply(&d.L1I)
	h.L1D.Apply(&d.L1D)
	h.L2.Apply(&d.L2)
}

// InstFetch returns the latency of fetching the instruction line at addr.
func (h *Hierarchy) InstFetch(addr uint64) uint64 {
	if h.L1I.Access(addr) {
		return h.L1I.Latency()
	}
	if h.L2.Access(addr) {
		return h.L1I.Latency() + h.L2.Latency()
	}
	return h.L1I.Latency() + h.L2.Latency() + h.MemLatency
}

// DataAccess returns the latency of a load/store to addr.
func (h *Hierarchy) DataAccess(addr uint64) uint64 {
	if h.L1D.Access(addr) {
		return h.L1D.Latency()
	}
	if h.L2.Access(addr) {
		return h.L1D.Latency() + h.L2.Latency()
	}
	return h.L1D.Latency() + h.L2.Latency() + h.MemLatency
}
