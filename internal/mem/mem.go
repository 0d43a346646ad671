// Package mem implements the sparse byte-addressable data memory used by
// both the architectural emulator and the timing model. Memory is backed
// by 4KiB pages allocated on first touch; untouched memory reads as zero.
//
// All CO64 data accesses are 8-byte and naturally aligned, matching the
// paper's Memory Bypass Cache simplification that "entries are all 8-byte
// aligned" (§3.2); Load64/Store64 enforce that alignment.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const (
	pageBits = 12
	// PageSize is the allocation granule in bytes.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1
)

// Memory is a sparse 64-bit address space. The zero value is ready to use.
//
// A Memory holds the pages it owns (and may write in place) over an
// optional chain of frozen layers it shares with other memories. Share
// freezes the owned pages and hands out a second view of the same
// layers, so a checkpoint and every machine resumed from it hold one
// copy of each page they have not written: the first store to a shared
// page copies it (copy-on-write). Frozen layers are never written, so
// views of them may be read from any number of goroutines.
type Memory struct {
	pages map[uint64]*[PageSize]byte // owned: writable in place
	base  *layer                     // shared, read-only (nil: none)

	// One-entry lookup caches: accesses cluster within a page, so the
	// last page read (owned or shared) and the last owned page written
	// take the page-map hash out of the emulator's hot load/store path.
	// A read pointer stays valid until its page is copied on write,
	// which refreshes both caches; freezing empties the write cache.
	// The keys are stored plus one, so the zero value caches nothing.
	lastKey  uint64
	lastPage *[PageSize]byte
	ownKey   uint64
	ownPage  *[PageSize]byte
}

// layer is a frozen page map. A layer may sit on one flat parent (its
// pages shadow the parent's), so a lookup probes at most two maps.
type layer struct {
	pages  map[uint64]*[PageSize]byte
	parent *layer
}

func (l *layer) lookup(key uint64) *[PageSize]byte {
	for ; l != nil; l = l.parent {
		if p := l.pages[key]; p != nil {
			return p
		}
	}
	return nil
}

// deltaRatio bounds a delta layer: freeze stacks the owned pages on the
// shared layer only while they number at most 1/deltaRatio of the
// layer below; past that it merges them into one flat layer.
const deltaRatio = 4

// New returns an empty memory image.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

// readPage returns the page holding addr, or nil when it was never
// written.
func (m *Memory) readPage(addr uint64) *[PageSize]byte {
	key := addr >> pageBits
	if m.lastKey == key+1 {
		return m.lastPage
	}
	return m.lookup(key, false)
}

// writePage returns the owned page holding addr, copying or allocating
// it first when needed.
func (m *Memory) writePage(addr uint64) *[PageSize]byte {
	key := addr >> pageBits
	if m.ownKey == key+1 {
		return m.ownPage
	}
	return m.lookup(key, true)
}

// lookup is the pages' slow path: find key in the owned pages, then the
// shared layers, copying a shared page into the owned set (or
// allocating a zero one) when alloc asks to write it.
func (m *Memory) lookup(key uint64, alloc bool) *[PageSize]byte {
	p, own := m.pages[key], true
	if p == nil {
		p, own = m.base.lookup(key), false
	}
	if alloc && !own {
		np := new([PageSize]byte)
		if p != nil {
			*np = *p
		}
		if m.pages == nil {
			m.pages = make(map[uint64]*[PageSize]byte)
		}
		m.pages[key] = np
		p, own = np, true
	}
	if p != nil {
		m.lastKey, m.lastPage = key+1, p
	}
	if own {
		m.ownKey, m.ownPage = key+1, p
	}
	return p
}

// freeze moves the owned pages into the shared layers: onto the
// current layer as a small delta, or merged into one flat layer when
// the delta would grow too large or too deep. An owned page whose
// contents equal the shared page it was copied from (a store that
// rewrote the same values) is dropped, so the shared page stays the one
// copy. The contents read the same before and after; later stores copy
// on write.
func (m *Memory) freeze() {
	own := m.pages
	if len(own) == 0 {
		return
	}
	m.pages = nil
	m.lastKey, m.lastPage = 0, nil
	m.ownKey, m.ownPage = 0, nil
	b := m.base
	for k, p := range own {
		if q := b.lookup(k); q != nil && *q == *p {
			delete(own, k)
		}
	}
	switch {
	case len(own) == 0:
	case b == nil:
		m.base = &layer{pages: own}
	case b.parent == nil && len(own)*deltaRatio <= len(b.pages):
		m.base = &layer{pages: own, parent: b}
	case b.parent != nil && (len(own)+len(b.pages))*deltaRatio <= len(b.parent.pages):
		merged := make(map[uint64]*[PageSize]byte, len(own)+len(b.pages))
		for k, p := range b.pages {
			merged[k] = p
		}
		for k, p := range own {
			merged[k] = p
		}
		m.base = &layer{pages: merged, parent: b.parent}
	default:
		merged := make(map[uint64]*[PageSize]byte, len(own)+len(b.pages))
		for l := range b.chain() {
			for k, p := range l.pages {
				if _, shadowed := merged[k]; !shadowed {
					merged[k] = p
				}
			}
		}
		for k, p := range own {
			merged[k] = p
		}
		m.base = &layer{pages: merged}
	}
}

// chain yields l and its parents, innermost first.
func (l *layer) chain() func(func(*layer) bool) {
	return func(yield func(*layer) bool) {
		for ; l != nil; l = l.parent {
			if !yield(l) {
				return
			}
		}
	}
}

// Share returns a second view of m's contents that shares every page
// with m: m's owned pages are frozen first, so from then on a store
// through either view copies the page it writes and leaves the other
// view unchanged. Sharing a memory that owns no pages (a checkpoint's
// image) does not write m, so any number of goroutines may share one
// concurrently; a memory that owns pages must not be shared while it
// is in use elsewhere.
func (m *Memory) Share() *Memory {
	m.freeze()
	return &Memory{base: m.base}
}

// Flatten returns m's image as one flat frozen layer — the pages
// FromPagesOver(m.Export(), prev) would decode, without copying any: a
// page whose contents equal prev's page at the same address is prev's,
// every other page is m's own, and all-zero pages are dropped. Pages of
// the layers m stacks on that m's newer pages shadow are no longer
// referenced through the result, so a run of checkpoints flattened each
// over its predecessor holds what its decoded form holds. m's owned
// pages are frozen first (see Share); a nil prev shares nothing.
func (m *Memory) Flatten(prev *Memory) *Memory {
	m.freeze()
	pages := m.visible()
	for k, p := range pages {
		if prev != nil {
			if q := prev.peek(k); q != nil && (q == p || *q == *p) {
				pages[k] = q
				continue
			}
		}
		if *p == [PageSize]byte{} {
			delete(pages, k)
		}
	}
	return &Memory{base: &layer{pages: pages}}
}

// visible returns the page each key resolves to, across every layer.
func (m *Memory) visible() map[uint64]*[PageSize]byte {
	out := make(map[uint64]*[PageSize]byte, len(m.pages))
	for k, p := range m.pages {
		out[k] = p
	}
	for l := range m.base.chain() {
		for k, p := range l.pages {
			if _, shadowed := out[k]; !shadowed {
				out[k] = p
			}
		}
	}
	return out
}

// ResidentBytes returns the bytes the memories hold between them —
// their pages plus their page-map entries — counting a page or a layer
// shared by several memories once.
func ResidentBytes(ms ...*Memory) uint64 {
	// mapEntryBytes approximates one page-map entry: key, pointer and
	// the map's per-slot overhead.
	const mapEntryBytes = 24
	pages := make(map[*[PageSize]byte]struct{})
	layers := make(map[*layer]struct{})
	var entries uint64
	for _, m := range ms {
		if m == nil {
			continue
		}
		entries += uint64(len(m.pages))
		for _, p := range m.pages {
			pages[p] = struct{}{}
		}
		for l := range m.base.chain() {
			if _, seen := layers[l]; seen {
				continue
			}
			layers[l] = struct{}{}
			entries += uint64(len(l.pages))
			for _, p := range l.pages {
				pages[p] = struct{}{}
			}
		}
	}
	return uint64(len(pages))*PageSize + entries*mapEntryBytes
}

// checkAlign panics on a misaligned 8-byte access; alignment faults are
// programming errors in the workloads, not recoverable machine events.
func checkAlign(addr uint64) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mem: misaligned 8-byte access at %#x", addr))
	}
}

// Words are stored little-endian; encoding/binary's fixed-width
// accessors compile to single loads/stores, which matters because these
// sit on the emulator's per-instruction path.

// Load64 reads the 8-byte word at the naturally aligned address addr.
func (m *Memory) Load64(addr uint64) uint64 {
	checkAlign(addr)
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	off := addr & pageMask
	return binary.LittleEndian.Uint64(p[off : off+8])
}

// Store64 writes the 8-byte word v at the naturally aligned address addr.
func (m *Memory) Store64(addr uint64, v uint64) {
	checkAlign(addr)
	p := m.writePage(addr)
	off := addr & pageMask
	binary.LittleEndian.PutUint64(p[off:off+8], v)
}

// Load32 reads the 4-byte word at the naturally aligned address addr.
func (m *Memory) Load32(addr uint64) uint32 {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: misaligned 4-byte access at %#x", addr))
	}
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	off := addr & pageMask
	return binary.LittleEndian.Uint32(p[off : off+4])
}

// Store32 writes the 4-byte word v at the naturally aligned address addr.
func (m *Memory) Store32(addr uint64, v uint32) {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: misaligned 4-byte access at %#x", addr))
	}
	p := m.writePage(addr)
	off := addr & pageMask
	binary.LittleEndian.PutUint32(p[off:off+4], v)
}

// LoadByte reads one byte (used by image loading and debugging tools).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.readPage(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.writePage(addr)[addr&pageMask] = b
}

// WriteBlock copies data into memory starting at addr (any alignment).
func (m *Memory) WriteBlock(addr uint64, data []byte) {
	for i, b := range data {
		m.StoreByte(addr+uint64(i), b)
	}
}

// PageCount returns the number of resident pages (for tests and stats):
// the distinct page addresses m reads from, owned or shared.
func (m *Memory) PageCount() int {
	if m.base == nil {
		return len(m.pages)
	}
	return len(m.visible())
}

// Page is one resident page of a Memory in serializable form: the
// page's base address plus its data with trailing zero bytes trimmed
// (untouched memory reads as zero, so the trim is lossless). The JSON
// form base64-encodes Data, which is what keeps serialized checkpoint
// memory images compact.
type Page struct {
	Base uint64 `json:"base"`
	Data []byte `json:"data,omitempty"`
}

// Export returns the memory image as a deterministic page list: sorted
// by base address, trailing zeros trimmed, all-zero pages dropped.
// Determinism matters — two processes exporting the same image must
// produce identical bytes, so content-addressed stores see idempotent
// rewrites.
func (m *Memory) Export() []Page {
	pages := m.visible()
	keys := make([]uint64, 0, len(pages))
	for k := range pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Page, 0, len(keys))
	for _, k := range keys {
		p := pages[k]
		n := PageSize
		for n > 0 && p[n-1] == 0 {
			n--
		}
		if n == 0 {
			continue // all-zero page: absent and resident read the same
		}
		data := make([]byte, n)
		copy(data, p[:n])
		out = append(out, Page{Base: k << pageBits, Data: data})
	}
	return out
}

// FromPages reconstructs a Memory from an Export page list, validating
// that each base is page-aligned, no page exceeds PageSize, and no base
// repeats — the errors a torn or hand-edited serialized image would
// produce. The pages come back frozen (see Share), so the image can seed
// machines concurrently without a copy.
func FromPages(pages []Page) (*Memory, error) {
	return FromPagesOver(pages, nil)
}

// FromPagesOver is FromPages that shares pages with prev: a decoded page
// whose contents equal prev's page at the same address reuses prev's
// page instead of allocating its own. Decoding a run of checkpoints
// each over its predecessor keeps the pages they have in common
// resident once, as they were before encoding. A nil prev shares
// nothing.
func FromPagesOver(pages []Page, prev *Memory) (*Memory, error) {
	own := make(map[uint64]*[PageSize]byte, len(pages))
	for i, pg := range pages {
		if pg.Base&pageMask != 0 {
			return nil, fmt.Errorf("mem: page %d: base %#x not %d-byte aligned", i, pg.Base, PageSize)
		}
		if len(pg.Data) > PageSize {
			return nil, fmt.Errorf("mem: page %d: %d bytes exceeds the %d-byte page size", i, len(pg.Data), PageSize)
		}
		key := pg.Base >> pageBits
		if _, dup := own[key]; dup {
			return nil, fmt.Errorf("mem: page %d: duplicate base %#x", i, pg.Base)
		}
		if prev != nil {
			if q := prev.peek(key); q != nil && samePage(q, pg.Data) {
				own[key] = q
				continue
			}
		}
		p := new([PageSize]byte)
		copy(p[:], pg.Data)
		own[key] = p
	}
	return &Memory{base: &layer{pages: own}}, nil
}

// peek returns the page key resolves to without touching the lookup
// cache, so it may run concurrently with other readers.
func (m *Memory) peek(key uint64) *[PageSize]byte {
	if p := m.pages[key]; p != nil {
		return p
	}
	return m.base.lookup(key)
}

// samePage reports whether p holds exactly data followed by zeros.
func samePage(p *[PageSize]byte, data []byte) bool {
	if string(p[:len(data)]) != string(data) {
		return false
	}
	for _, b := range p[len(data):] {
		if b != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two memory images hold the same contents,
// treating absent pages and all-zero pages as identical (both read as
// zero). Internal caches and page residency do not participate.
func (m *Memory) Equal(o *Memory) bool {
	zero := func(p *[PageSize]byte) bool {
		for _, b := range p {
			if b != 0 {
				return false
			}
		}
		return true
	}
	mp, op := m.visible(), o.visible()
	for k, p := range mp {
		q, ok := op[k]
		if !ok {
			if !zero(p) {
				return false
			}
			continue
		}
		if *p != *q {
			return false
		}
	}
	for k, q := range op {
		if _, ok := mp[k]; !ok && !zero(q) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the memory image: every page private to
// the copy, none shared (Share is the cheap alternative).
func (m *Memory) Clone() *Memory {
	c := New()
	for k, p := range m.visible() {
		np := new([PageSize]byte)
		*np = *p
		c.pages[k] = np
	}
	return c
}
