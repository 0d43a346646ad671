package core

import "repro/internal/regfile"

// mbcEntry is one line of the Memory Bypass Cache. As §3.2 describes,
// "excluding the access information, the cache line data is precisely the
// same data provided by the RAT": the symbolic value of the last memory
// instruction that touched the 8-byte-aligned address, plus the physical
// register that carries (or will carry) the datum.
type mbcEntry struct {
	valid bool
	addr  uint64
	// preg is the physical destination of the load (or data source of
	// the store) that installed the entry; the entry holds a reference.
	preg regfile.PReg
	// sym is the symbolic value of the datum; holds a reference on its
	// base when symbolic.
	sym SymVal
	// size is the access width in bytes; the tag match requires both the
	// address (which carries the offset from 8-byte alignment) and the
	// size to agree (§3.2), so 4- and 8-byte accesses never forward to
	// each other.
	size uint8
	// oracle is the architecturally correct datum at install time, used
	// by the verification stage to detect entries gone stale under
	// unknown-address stores (paper: "strict expression and value
	// checking").
	oracle uint64
	// bundle is the rename-bundle id that installed the entry, for the
	// chained-memory limit.
	bundle uint64
}

// mbc is the direct-mapped Memory Bypass Cache. All addresses are 8-byte
// aligned (the paper's simplification; the ISA guarantees it).
type mbc struct {
	entries []mbcEntry
	prf     *regfile.File

	// bases[p] counts valid entries whose symbolic base is preg p,
	// maintained alongside the reference counts. The count is exact, so
	// feedback skips the table scan for the (overwhelmingly common)
	// produced values no MBC entry is expressed against, and stops
	// scanning once it has folded bases[p] entries.
	bases []uint32
}

func newMBC(entries int, prf *regfile.File) *mbc {
	m := new(mbc)
	m.reset(entries, prf)
	return m
}

// reset returns the table to exactly the state newMBC builds, reusing
// its storage when large enough.
func (m *mbc) reset(entries int, prf *regfile.File) {
	if entries <= 0 {
		entries = 128
	}
	m.entries = regfile.Resize(m.entries, entries)
	m.prf = prf
	m.bases = regfile.Resize(m.bases, prf.Size())
}

func (m *mbc) index(addr uint64) int {
	return int((addr >> 3) % uint64(len(m.entries)))
}

// lookup returns the entry matching addr and access size, if present.
func (m *mbc) lookup(addr uint64, size uint8) *mbcEntry {
	e := &m.entries[m.index(addr)]
	if e.valid && e.addr == addr && e.size == size {
		return e
	}
	return nil
}

func (m *mbc) dropRefs(e *mbcEntry) {
	if !e.valid {
		return
	}
	m.prf.Release(e.preg)
	if e.sym.HasBase() {
		m.bases[e.sym.Base]--
		m.prf.Release(e.sym.Base)
	}
}

// install (over)writes the entry for addr, taking references on the new
// payload and dropping those of any evicted entry.
func (m *mbc) install(addr uint64, size uint8, preg regfile.PReg, sym SymVal, oracle, bundle uint64) {
	e := &m.entries[m.index(addr)]
	// Take the new references before dropping the evicted entry's, in
	// case the payloads alias.
	m.prf.AddRef(preg)
	if sym.HasBase() {
		m.bases[sym.Base]++
		m.prf.AddRef(sym.Base)
	}
	old := *e
	*e = mbcEntry{valid: true, addr: addr, size: size, preg: preg, sym: sym, oracle: oracle, bundle: bundle}
	m.dropRefs(&old)
}

// invalidate drops a single entry (used when verification catches a stale
// forward — the hardware analog squashes and the entry is replaced).
func (m *mbc) invalidate(e *mbcEntry) {
	m.dropRefs(e)
	*e = mbcEntry{}
}

// flush invalidates the whole table (StoreFlush policy).
func (m *mbc) flush() {
	for i := range m.entries {
		m.dropRefs(&m.entries[i])
		m.entries[i] = mbcEntry{}
	}
}

// feedback folds a produced value into every entry based on preg p,
// scanning only while the base index says unfolded entries remain.
func (m *mbc) feedback(p regfile.PReg, val uint64) (applied uint64) {
	if m.bases[p] == 0 {
		return 0
	}
	for i := range m.entries {
		e := &m.entries[i]
		if e.valid && e.sym.HasBase() && e.sym.Base == p {
			e.sym = Const(e.sym.Eval(val))
			m.bases[p]--
			m.prf.Release(p)
			applied++
			if m.bases[p] == 0 {
				break
			}
		}
	}
	return applied
}

// liveEntries counts valid entries (for tests).
func (m *mbc) liveEntries() int {
	n := 0
	for i := range m.entries {
		if m.entries[i].valid {
			n++
		}
	}
	return n
}
