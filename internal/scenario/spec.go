package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/workloads"
)

// Version is the scenario-spec schema version this package writes and
// the newest it accepts.
const Version = 1

// maxCount bounds how many variants one scenario block may expand to.
const maxCount = 1024

// FieldError is a validation failure annotated with the JSON field path
// that caused it, e.g. "scenarios[2].params.stride". Packages embedding
// scenario specs (exper.SweepSpec) reuse the same shape so every
// validation error names the offending field instead of a bare
// "invalid spec".
type FieldError struct {
	Path string
	Msg  string
}

func (e *FieldError) Error() string { return e.Path + ": " + e.Msg }

// Pathf builds a FieldError with a formatted message.
func Pathf(path, format string, args ...any) error {
	return &FieldError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Spec is a declarative, versioned, seeded description of a generated
// workload set. See the package comment for the JSON form.
type Spec struct {
	// Version is the schema version (0 is treated as the current one).
	Version int `json:"version,omitempty"`
	// Seed is the root RNG seed; every scenario derives a stable
	// sub-seed from (Seed, scenario name).
	Seed uint64 `json:"seed,omitempty"`
	// Scenarios are the family blocks to expand.
	Scenarios []ScenarioSpec `json:"scenarios"`
}

// ScenarioSpec is one block of a Spec: a kernel family, how many
// variants to draw from it, and knob constraints.
type ScenarioSpec struct {
	// Family names the kernel family (see Families).
	Family string `json:"family"`
	// Name prefixes the generated scenario names; it defaults to the
	// family name. With Count == 1 the name is used verbatim, otherwise
	// variants are named <name>0, <name>1, ...
	Name string `json:"name,omitempty"`
	// Count is how many variants to generate (default 1).
	Count int `json:"count,omitempty"`
	// Scale overrides the family's default iteration scale when > 0.
	Scale int `json:"scale,omitempty"`
	// Params pins knobs to values or [min, max] ranges; omitted knobs
	// use the family defaults.
	Params map[string]Knob `json:"params,omitempty"`
}

// Knob is one knob constraint: a pinned value (Min == Max) or an
// inclusive range to draw from. Its JSON form is a bare number or a
// two-element [min, max] array.
type Knob struct {
	Min, Max int64
}

// UnmarshalJSON accepts 8 or [1, 64].
func (k *Knob) UnmarshalJSON(data []byte) error {
	var v int64
	if err := json.Unmarshal(data, &v); err == nil {
		k.Min, k.Max = v, v
		return nil
	}
	var r []int64
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("need a number or [min, max], got %s", data)
	}
	if len(r) != 2 {
		return fmt.Errorf("range needs exactly [min, max], got %s", data)
	}
	k.Min, k.Max = r[0], r[1]
	return nil
}

// MarshalJSON writes the compact form Knob parses.
func (k Knob) MarshalJSON() ([]byte, error) {
	if k.Min == k.Max {
		return json.Marshal(k.Min)
	}
	return json.Marshal([2]int64{k.Min, k.Max})
}

// ParseSpec decodes a JSON scenario spec, rejecting unknown fields, and
// validates it.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parsing spec: trailing content after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &s, nil
}

// LoadSpec reads and parses a JSON scenario spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading spec: %w", err)
	}
	return ParseSpec(data)
}

// Validate checks the spec without generating anything. Errors are
// FieldError values whose Path names the offending field, e.g.
// "scenarios[1].params.stride".
func (s *Spec) Validate() error {
	if s.Version < 0 || s.Version > Version {
		return Pathf("version", "unsupported scenario-spec version %d (have %d)", s.Version, Version)
	}
	if len(s.Scenarios) == 0 {
		return Pathf("scenarios", "need at least one scenario block")
	}
	names := map[string]string{} // expanded name -> defining path
	for i := range s.Scenarios {
		b := &s.Scenarios[i]
		path := fmt.Sprintf("scenarios[%d]", i)
		fam, ok := families[b.Family]
		if !ok {
			return Pathf(path+".family", "unknown family %q (have %s)", b.Family, strings.Join(FamilyNames(), ", "))
		}
		name := b.Name
		if name == "" {
			name = b.Family
		}
		if !validName(name) {
			return Pathf(path+".name", "invalid name %q (want letters, digits, '_' or '-', starting with a letter)", name)
		}
		if b.Count < 0 || b.Count > maxCount {
			return Pathf(path+".count", "count %d out of range [0, %d]", b.Count, maxCount)
		}
		if b.Scale < 0 {
			return Pathf(path+".scale", "scale %d must be non-negative", b.Scale)
		}
		for knobName, k := range b.Params {
			kpath := path + ".params." + knobName
			def, ok := fam.knob(knobName)
			if !ok {
				return Pathf(kpath, "family %q has no knob %q (have %s)", b.Family, knobName, strings.Join(fam.knobNames(), ", "))
			}
			if k.Min > k.Max {
				return Pathf(kpath, "min %d above max %d", k.Min, k.Max)
			}
			if k.Min < def.min || k.Max > def.max {
				return Pathf(kpath, "range [%d, %d] outside the family bounds [%d, %d]", k.Min, k.Max, def.min, def.max)
			}
		}
		count := b.Count
		if count == 0 {
			count = 1
		}
		for v := 0; v < count; v++ {
			n := variantName(name, v, count)
			if prev, dup := names[n]; dup {
				return Pathf(path+".name", "scenario %q collides with %s", n, prev)
			}
			names[n] = path
			if builtin, ok := workloads.ByName(n); ok && builtin.Suite != workloads.Generated {
				return Pathf(path+".name", "%q is a built-in benchmark", n)
			}
		}
	}
	return nil
}

// variantName names variant v of a block expanding to count scenarios.
func variantName(name string, v, count int) string {
	if count == 1 {
		return name
	}
	return fmt.Sprintf("%s%d", name, v)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c == '_', c == '-':
			if i == 0 {
				return false
			}
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Scenario is one generated workload: a family instantiated with
// resolved knob values, a derived sub-seed, and behavior-class
// metadata. Its Source/InstCap pair is the determinism contract: the
// same Scenario always emits byte-identical assembly, and the program
// provably halts within InstCap dynamic instructions.
type Scenario struct {
	// Name is the materialized benchmark name.
	Name string
	// Family is the kernel family the scenario was drawn from.
	Family string
	// Class is the behavior class (workloads.Class* constant) derived
	// from the family and the resolved knobs.
	Class string
	// Seed is the scenario's derived RNG sub-seed; data tables and
	// structural draws come from it, never from the spec's root seed
	// directly, so scenarios are independent of their neighbors.
	Seed uint64
	// Scale is the default iteration scale.
	Scale int
	// Params are the resolved knob values, one per family knob.
	Params map[string]int64

	emitOnce sync.Once
	emit     emitted
}

// emitBody generates (once) the scale-independent parts of the program:
// the outer-loop body, its data tables, the extra params words, and the
// per-trip dynamic-instruction bound.
func (sc *Scenario) emitBody() emitted {
	sc.emitOnce.Do(func() {
		sc.emit = families[sc.Family].emit(sc.Params, splitmix(sc.Seed))
	})
	return sc.emit
}

// Source returns the scenario's assembly at the given scale (<= 0 uses
// the default). Same scenario, same scale: byte-identical text.
func (sc *Scenario) Source(scale int) string {
	if scale <= 0 {
		scale = sc.Scale
	}
	e := sc.emitBody()
	var s strings.Builder
	s.Grow(len(e.body) + len(e.data) + 512)
	fmt.Fprintf(&s, "; scenario %s: family=%s class=%s seed=%#x %s\n",
		sc.Name, sc.Family, sc.Class, sc.Seed, FormatParams(sc.Params))
	s.WriteString(`start:
    ldi params -> r28
    ldq [r28] -> r20        ; outer trips (scale)
    ldi 0 -> r19            ; checksum
outer:
`)
	s.WriteString(e.body)
	s.WriteString(`    sub r20, 1 -> r20
    bne r20, outer
    ldi result -> r1
    stq r19 -> [r1]
    halt

.org 0x3F000
.data params
.quad `)
	fmt.Fprintf(&s, "%d", scale)
	for _, w := range e.params {
		fmt.Fprintf(&s, ", %d", w)
	}
	s.WriteString("\n.data result\n.quad 0\n")
	s.WriteString(e.data)
	return s.String()
}

// InstCap returns the declared dynamic-instruction cap at the given
// scale (<= 0 uses the default): an upper bound the generated program
// is guaranteed to halt within, derived from its counted-loop structure
// rather than measured.
func (sc *Scenario) InstCap(scale int) uint64 {
	if scale <= 0 {
		scale = sc.Scale
	}
	e := sc.emitBody()
	// Skeleton: 3 prologue + scale*(body + sub/bne) + 3 epilogue.
	exact := 3 + uint64(scale)*(e.bodyMax+2) + 3
	return exact + exact/8 + 64
}

// Benchmark wraps the scenario as an unregistered workloads.Benchmark
// honoring the registry's Source/Program contract.
func (sc *Scenario) Benchmark() *workloads.Benchmark {
	notes := fmt.Sprintf("generated %s: %s", sc.Family, FormatParams(sc.Params))
	return workloads.New(sc.Name, workloads.Generated, sc.Class, notes, sc.Scale, sc.Source)
}

// FormatParams renders resolved knob values as "k1=v1 k2=v2" in key
// order.
func FormatParams(p map[string]int64) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s strings.Builder
	for i, k := range keys {
		if i > 0 {
			s.WriteByte(' ')
		}
		fmt.Fprintf(&s, "%s=%d", k, p[k])
	}
	return s.String()
}

// Generate validates the spec and expands it into scenarios, resolving
// every ranged knob from the seeded RNG. The result is deterministic:
// same spec (including seed), same scenarios, and each scenario's
// Source is byte-identical across calls and processes.
func (s *Spec) Generate() ([]*Scenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []*Scenario
	for i := range s.Scenarios {
		b := &s.Scenarios[i]
		fam := families[b.Family]
		name := b.Name
		if name == "" {
			name = b.Family
		}
		count := b.Count
		if count == 0 {
			count = 1
		}
		scale := b.Scale
		if scale == 0 {
			scale = fam.defaultScale
		}
		for v := 0; v < count; v++ {
			n := variantName(name, v, count)
			// Sub-seed by name, not by position: a scenario's programs
			// do not change when unrelated blocks are edited.
			sub := splitmix(s.Seed ^ fnv64(n))
			prng := workloads.NewRNG(sub)
			params := make(map[string]int64, len(fam.knobs))
			for _, k := range fam.knobs {
				r := Knob{Min: k.def, Max: k.def}
				if userK, ok := b.Params[k.name]; ok {
					r = userK
				}
				val := r.Min
				if r.Max > r.Min {
					val = r.Min + int64(prng.N(uint64(r.Max-r.Min+1)))
				}
				params[k.name] = val
			}
			out = append(out, &Scenario{
				Name:   n,
				Family: b.Family,
				Class:  fam.classify(params),
				Seed:   sub,
				Scale:  scale,
				Params: params,
			})
		}
	}
	return out, nil
}

// Materialize generates the spec's scenarios and registers them in the
// workloads registry, returning the registered benchmarks in spec
// order. Materializing the same spec again is idempotent and returns
// the already-registered benchmarks (shared program caches); a name
// clash with different content is an error.
func (s *Spec) Materialize() ([]*workloads.Benchmark, error) {
	scens, err := s.Generate()
	if err != nil {
		return nil, err
	}
	out := make([]*workloads.Benchmark, 0, len(scens))
	for _, sc := range scens {
		b, err := workloads.Register(sc.Benchmark())
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
