// Package regfile implements the physical register file with
// reference-counting deallocation.
//
// Conventional schemes (MIPS R10000, Alpha 21264) free a physical
// register when the next writer of the same architectural register
// retires. As §3.1 of the paper observes, continuous optimization extends
// physical register lifetimes past that point: symbolic RAT entries and
// Memory Bypass Cache entries keep referencing a preg long after its
// architectural name has been overwritten. The paper therefore adopts a
// reference-counting allocator in the style of Jourdan et al. [15]; this
// package is that allocator.
//
// Reference-count discipline (enforced by the pipeline and optimizer):
//
//   - +1 when a preg becomes an architectural mapping in the RAT
//   - +1 for each symbolic RAT entry whose base is the preg
//   - +1 for each MBC entry referencing the preg (data or symbolic base)
//   - +1 per in-flight instruction source operand, held until retire
//
// A preg returns to the free list when its count reaches zero.
package regfile

import "fmt"

// PReg names a physical register. NoPReg marks "none".
type PReg uint16

// NoPReg is the absent physical register.
const NoPReg PReg = 0xFFFF

// MaxRegs is the largest register file a PReg can index: every value
// below NoPReg names a register.
const MaxRegs = int(NoPReg)

// File is the physical register file: values, ready state, and reference
// counts with an embedded free list.
type File struct {
	vals  []uint64
	ready []bool
	refs  []int32
	free  []PReg

	// Stats.
	Allocs     uint64
	Frees      uint64
	StallsFull uint64
}

// New builds a file with n physical registers, all free.
func New(n int) *File {
	f := new(File)
	f.Reset(n)
	return f
}

// Reset returns the file to exactly the state New(n) builds — n
// registers, all free, statistics zero — reusing its storage when it is
// large enough, so simulation can pool register files across sessions
// of any size.
func (f *File) Reset(n int) {
	if n <= 0 || n > MaxRegs {
		panic(fmt.Sprintf("regfile: bad size %d", n))
	}
	f.vals = Resize(f.vals, n)
	f.ready = Resize(f.ready, n)
	f.refs = Resize(f.refs, n)
	if cap(f.free) < n {
		f.free = make([]PReg, 0, n)
	}
	f.free = f.free[:0]
	for i := n - 1; i >= 0; i-- {
		f.free = append(f.free, PReg(i))
	}
	f.Allocs, f.Frees, f.StallsFull = 0, 0, 0
}

// Resize returns s with length n and every element zero, reusing its
// backing array when it is large enough: how the register file, and the
// optimizer and pipeline tables sized by it, reset for reuse.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Size returns the total number of physical registers.
func (f *File) Size() int { return len(f.vals) }

// FreeCount returns how many pregs are currently unallocated.
func (f *File) FreeCount() int { return len(f.free) }

// CanAlloc reports whether n allocations would succeed.
func (f *File) CanAlloc(n int) bool { return len(f.free) >= n }

// Alloc takes a preg from the free list with an initial reference count
// of one (the architectural mapping that caused the allocation). It
// returns NoPReg when the file is exhausted; the caller must stall.
func (f *File) Alloc() PReg {
	if len(f.free) == 0 {
		f.StallsFull++
		return NoPReg
	}
	p := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.refs[p] = 1
	f.ready[p] = false
	f.vals[p] = 0
	f.Allocs++
	return p
}

// AddRef takes an additional reference on p.
func (f *File) AddRef(p PReg) {
	if p == NoPReg {
		return
	}
	if f.refs[p] <= 0 {
		panic(fmt.Sprintf("regfile: AddRef on dead preg p%d", p))
	}
	f.refs[p]++
}

// Release drops one reference; at zero the preg returns to the free list.
func (f *File) Release(p PReg) {
	if p == NoPReg {
		return
	}
	if f.refs[p] <= 0 {
		panic(fmt.Sprintf("regfile: Release on dead preg p%d", p))
	}
	f.refs[p]--
	if f.refs[p] == 0 {
		f.free = append(f.free, p)
		f.ready[p] = false
		f.Frees++
	}
}

// Refs returns the current reference count of p (for tests/invariants).
func (f *File) Refs(p PReg) int32 {
	if p == NoPReg {
		return 0
	}
	return f.refs[p]
}

// Write sets the value of p and marks it ready (writeback).
func (f *File) Write(p PReg, v uint64) {
	if p == NoPReg {
		return
	}
	f.vals[p] = v
	f.ready[p] = true
}

// Value returns the current value of p; it panics if the preg is not
// ready, which would indicate a scheduling bug in the timing model.
func (f *File) Value(p PReg) uint64 {
	if !f.ready[p] {
		panic(fmt.Sprintf("regfile: reading not-ready preg p%d", p))
	}
	return f.vals[p]
}

// Ready reports whether p has been written.
func (f *File) Ready(p PReg) bool { return p != NoPReg && f.ready[p] }

// LiveCount returns the number of allocated pregs (for leak checks).
func (f *File) LiveCount() int { return len(f.vals) - len(f.free) }

// CheckInvariants validates internal consistency: free list entries must
// have zero refs, live pregs positive refs, and counts must add up. It
// returns an error description or "" when consistent.
func (f *File) CheckInvariants() string {
	onFree := make(map[PReg]bool, len(f.free))
	for _, p := range f.free {
		if onFree[p] {
			return fmt.Sprintf("preg p%d appears twice on free list", p)
		}
		onFree[p] = true
		if f.refs[p] != 0 {
			return fmt.Sprintf("free preg p%d has refcount %d", p, f.refs[p])
		}
	}
	for i := range f.refs {
		if f.refs[i] < 0 {
			return fmt.Sprintf("preg p%d has negative refcount", i)
		}
		if f.refs[i] > 0 && onFree[PReg(i)] {
			return fmt.Sprintf("live preg p%d is on the free list", i)
		}
		if f.refs[i] == 0 && !onFree[PReg(i)] {
			return fmt.Sprintf("dead preg p%d is not on the free list", i)
		}
	}
	return ""
}
