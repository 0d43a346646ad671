// Package workloads provides the 22 benchmark programs used by the
// evaluation, mirroring Table 1 of the paper: ten SPECint-like, six
// SPECfp-like and six mediabench-like kernels.
//
// The paper ran SPEC2000 and mediabench Alpha binaries; those binaries
// (and the Compaq compilers that produced them) are not reproducible
// here, so each benchmark is a hand-written CO64 kernel engineered to
// exhibit the *behavioral property* the paper attributes to its namesake:
// mcf's quicksort (`sort_basket`) with MBC-resident partitions, untoast's
// short-term synthesis filter over two 8-entry arrays, mpeg2's 8x8
// blocks, gcc's indirect dispatch, and so on. Dynamic instruction counts
// are scaled down (hundreds of thousands instead of hundreds of
// millions); the Scale parameter grows or shrinks them.
package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/emu"
)

// Suite names.
const (
	SPECint    = "SPECint"
	SPECfp     = "SPECfp"
	Mediabench = "mediabench"
	// Generated is the suite of programs materialized from scenario
	// specs (internal/scenario) rather than hand-written for Table 1.
	Generated = "generated"
)

// Behavior classes. Every benchmark — hand-written or generated — is
// tagged with the dominant behavior it stresses, so artifacts can slice
// results uniformly by class instead of by suite.
const (
	ClassMemory  = "memory-bound" // performance governed by load/store traffic
	ClassBranchy = "branchy"      // performance governed by control flow
	ClassILP     = "ilp-rich"     // wide independent compute, little memory
	ClassMixed   = "mixed"        // no single dominant behavior
)

// Classes returns the behavior-class names in display order.
func Classes() []string {
	return []string{ClassMemory, ClassBranchy, ClassILP, ClassMixed}
}

// Benchmark is one workload generator.
type Benchmark struct {
	// Name is the paper's benchmark abbreviation (Table 1).
	Name string
	// Suite is SPECint, SPECfp or Mediabench.
	Suite string
	// Class is the benchmark's behavior class (ClassMemory, ClassBranchy,
	// ClassILP or ClassMixed).
	Class string
	// Notes describes what the kernel models.
	Notes string
	// DefaultScale is the iteration parameter used by the experiments.
	DefaultScale int

	src func(scale int) string

	mu    sync.Mutex
	cache map[int]*emu.Program
	fps   map[int]string
}

// Source returns the assembly text at the given scale (<= 0 uses the
// default).
func (b *Benchmark) Source(scale int) string {
	if scale <= 0 {
		scale = b.DefaultScale
	}
	return b.src(scale)
}

// Program assembles the benchmark at the given scale (<= 0 uses the
// default), caching the result.
func (b *Benchmark) Program(scale int) *emu.Program {
	if scale <= 0 {
		scale = b.DefaultScale
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p, ok := b.cache[scale]; ok {
		return p
	}
	p := asm.MustAssemble(b.Name, b.Source(scale))
	if b.cache == nil {
		b.cache = make(map[int]*emu.Program)
	}
	b.cache[scale] = p
	return p
}

// Fingerprint returns the content hash of the benchmark's source at
// the given scale (<= 0 uses the default): the first 16 hex digits of
// its SHA-256, memoized per scale beside the program cache, without
// assembling the program or keeping the source. Store keys carry it,
// so editing a kernel invalidates its stored results instead of
// serving stale ones: the name alone does not identify the work.
func (b *Benchmark) Fingerprint(scale int) string {
	if scale <= 0 {
		scale = b.DefaultScale
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if w, ok := b.fps[scale]; ok {
		return w
	}
	sum := sha256.Sum256([]byte(b.Source(scale)))
	w := hex.EncodeToString(sum[:8])
	if b.fps == nil {
		b.fps = make(map[int]string)
	}
	b.fps[scale] = w
	return w
}

var registry []*Benchmark

func register(b *Benchmark) *Benchmark {
	registry = append(registry, b)
	return b
}

// New constructs an unregistered benchmark backed by src — the hook
// generated workloads (internal/scenario) use to build programs that
// honor the same Source/Program contract as the built-in suite.
func New(name, suite, class, notes string, defaultScale int, src func(scale int) string) *Benchmark {
	if defaultScale <= 0 {
		defaultScale = 1
	}
	return &Benchmark{
		Name:         name,
		Suite:        suite,
		Class:        class,
		Notes:        notes,
		DefaultScale: defaultScale,
		src:          src,
	}
}

// The generated registry is disjoint from the built-in one: All() and
// the paper artifacts keep seeing exactly the 22 Table 1 kernels, while
// ByName — and therefore sweeps, the engine, store keys, the sampler
// and the serve layer — resolves generated scenarios too.
var (
	genMu     sync.Mutex
	generated = map[string]*Benchmark{}
)

// Register adds a generated benchmark to the registry. Registration is
// idempotent: re-registering a benchmark whose name and generated
// source (at its default scale) match an existing entry returns the
// existing entry, so repeated materializations of the same scenario
// spec share one program cache. A name that collides with a built-in
// benchmark, or with a generated one of different content, is an error.
func Register(b *Benchmark) (*Benchmark, error) {
	if b.Name == "" {
		return nil, fmt.Errorf("workloads: benchmark has no name")
	}
	for _, r := range registry {
		if r.Name == b.Name {
			return nil, fmt.Errorf("workloads: %q is a built-in benchmark", b.Name)
		}
	}
	genMu.Lock()
	defer genMu.Unlock()
	if old, ok := generated[b.Name]; ok {
		if old.Suite == b.Suite && old.Class == b.Class &&
			old.DefaultScale == b.DefaultScale &&
			old.Source(old.DefaultScale) == b.Source(b.DefaultScale) {
			return old, nil
		}
		return nil, fmt.Errorf("workloads: generated benchmark %q already registered with different content", b.Name)
	}
	generated[b.Name] = b
	return b, nil
}

// GeneratedBenchmarks returns every registered generated benchmark,
// sorted by name for deterministic iteration.
func GeneratedBenchmarks() []*Benchmark {
	genMu.Lock()
	defer genMu.Unlock()
	out := make([]*Benchmark, 0, len(generated))
	for _, b := range generated {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns every built-in benchmark in suite order (SPECint, SPECfp,
// mediabench), each suite in registration order. Generated scenarios
// are deliberately excluded: the paper artifacts iterate All() and must
// keep reproducing Table 1 exactly (use GeneratedBenchmarks or ByName
// for scenario workloads).
func All() []*Benchmark {
	out := make([]*Benchmark, len(registry))
	copy(out, registry)
	rank := map[string]int{SPECint: 0, SPECfp: 1, Mediabench: 2}
	sort.SliceStable(out, func(i, j int) bool {
		return rank[out[i].Suite] < rank[out[j].Suite]
	})
	return out
}

// Suites returns the suite names in paper order.
func Suites() []string { return []string{SPECint, SPECfp, Mediabench} }

// BySuite returns the benchmarks of one suite.
func BySuite(suite string) []*Benchmark {
	var out []*Benchmark
	for _, b := range All() {
		if b.Suite == suite {
			out = append(out, b)
		}
	}
	return out
}

// ByName finds a benchmark by its Table 1 abbreviation, or a generated
// scenario by its materialized name.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	genMu.Lock()
	defer genMu.Unlock()
	b, ok := generated[name]
	return b, ok
}

// RNG is a deterministic xorshift64 generator used to emit data
// tables; workloads, built-in and generated (internal/scenario), must
// be reproducible run to run and Go-version to Go-version. It is fixed
// forever: changing it would change every program and orphan stored
// results.
type RNG uint64

// NewRNG returns a generator seeded with seed (forced odd, so never 0).
func NewRNG(seed uint64) *RNG {
	r := RNG(seed | 1)
	return &r
}

// Next returns the next value of the stream.
func (r *RNG) Next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = RNG(x)
	return x
}

// N returns a value in [0, m) (0 when m is 0). Modulo bias is
// irrelevant here: the draws parameterize programs, they are not
// statistics.
func (r *RNG) N(m uint64) uint64 {
	if m == 0 {
		return 0
	}
	return r.Next() % m
}

// Quads emits n .quad words drawn from gen, eight per line. It builds
// through a strings.Builder: the data tables run to tens of thousands
// of words at large scales, where naive concatenation is quadratic and
// used to dominate workload assembly time.
func Quads(n int, gen func(i int) uint64) string {
	var s strings.Builder
	s.Grow(n * 8)
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			if i > 0 {
				s.WriteByte('\n')
			}
			s.WriteString(".quad ")
		} else {
			s.WriteString(", ")
		}
		s.WriteString(strconv.FormatUint(gen(i), 10))
	}
	s.WriteByte('\n')
	return s.String()
}

// randQuads emits n pseudo-random .quad words in [0, mod).
func randQuads(n int, seed, mod uint64) string {
	r := NewRNG(seed)
	return Quads(n, func(int) uint64 {
		v := r.Next()
		if mod != 0 {
			v %= mod
		}
		return v
	})
}

// floatQuads emits n .quad words holding float64 bit patterns.
func floatQuads(n int, gen func(i int) float64) string {
	return Quads(n, func(i int) uint64 {
		return math.Float64bits(gen(i))
	})
}
