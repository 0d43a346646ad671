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

// New builds a cache level. It panics on non-power-of-two geometry, which
// indicates a configuration bug rather than a runtime condition.
func New(cfg Config) *Cache {
	if cfg.SizeB <= 0 || cfg.Assoc <= 0 || cfg.LineB <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	sets := cfg.SizeB / (cfg.Assoc * cfg.LineB)
	if sets <= 0 || sets&(sets-1) != 0 || cfg.LineB&(cfg.LineB-1) != 0 {
		panic(fmt.Sprintf("cache %s: non-power-of-two geometry %+v", cfg.Name, cfg))
	}
	c := &Cache{cfg: cfg, sets: sets}
	for c.cfg.LineB>>c.lineBits > 1 {
		c.lineBits++
	}
	n := sets * cfg.Assoc
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
