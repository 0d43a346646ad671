package exper

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// SweepSpec declares an experiment without code: which benchmarks to
// run, a reference machine, and a list of labeled machine variants. The
// engine simulates every (variant ∪ reference) × benchmark cell and
// reports each variant's speedup over the reference.
//
// Variants are built axis-by-axis: each starts from the paper's default
// machine (or its baseline, when "baseline" is true) and applies the
// "set" overrides, whose keys are dotted pipeline.Config field paths
// such as "SchedEntries", "Opt.MBCEntries" or "BPred.BTBEntries".
//
// JSON form (see examples/sweeps/ for complete files):
//
//	{
//	  "title": "MBC capacity",
//	  "suites": ["mediabench"],
//	  "reference": {"label": "baseline", "baseline": true},
//	  "variants": [
//	    {"label": "mbc32", "set": {"Opt.MBCEntries": 32}},
//	    {"label": "mbc256", "set": {"Opt.MBCEntries": 256, "PRegs": 544}}
//	  ]
//	}
type SweepSpec struct {
	// Title heads the printed table.
	Title string `json:"title"`
	// Suites and Benchmarks filter the registry; their union is taken,
	// in registry order. Both empty means the full 22-benchmark workload.
	Suites     []string `json:"suites,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scale overrides each benchmark's default iteration scale when > 0.
	Scale int `json:"scale,omitempty"`
	// Scenarios adds generated workloads (internal/scenario) to the
	// sweep: a scenario-spec file path (resolved against the sweep-spec
	// file's directory when loaded from disk) or an inline scenario spec
	// object. With no suite/benchmark filters the sweep runs only the
	// generated scenarios; with filters, their union.
	Scenarios *ScenarioRef `json:"scenarios,omitempty"`
	// Reference is the machine speedups are measured against. Nil means
	// the default machine's baseline (optimizer off).
	Reference *VariantSpec `json:"reference,omitempty"`
	// Variants are the machines under test, one table column each.
	Variants []VariantSpec `json:"variants"`
	// PerBenchmark adds one row per benchmark above the group geomeans.
	PerBenchmark bool `json:"per_benchmark,omitempty"`
	// GroupBy selects the table's geomean grouping: "suite" (default)
	// or "class" (behavior-class slices).
	GroupBy string `json:"group_by,omitempty"`

	// baseDir resolves relative scenario-spec paths; set by LoadSpec.
	baseDir string
}

// ScenarioRef references a scenario spec from a sweep spec: either a
// JSON file path or the spec object inlined. Its JSON form is a string
// or an object.
type ScenarioRef struct {
	Path   string
	Inline *scenario.Spec
}

// UnmarshalJSON accepts "path/to/spec.json" or an inline spec object.
func (r *ScenarioRef) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if s == "" {
			return fmt.Errorf("scenarios: empty scenario-spec path")
		}
		r.Path = s
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp scenario.Spec
	if err := dec.Decode(&sp); err != nil {
		return fmt.Errorf("scenarios: need a spec path or an inline scenario spec: %w", err)
	}
	r.Inline = &sp
	return nil
}

// MarshalJSON writes the form ScenarioRef parses.
func (r ScenarioRef) MarshalJSON() ([]byte, error) {
	if r.Inline != nil {
		return json.Marshal(r.Inline)
	}
	return json.Marshal(r.Path)
}

// VariantSpec describes one machine as a delta from the default config.
type VariantSpec struct {
	// Label names the table column (and the config, for diagnostics).
	Label string `json:"label"`
	// Baseline starts from the default machine with the optimizer
	// disabled instead of the full default machine.
	Baseline bool `json:"baseline,omitempty"`
	// Set maps dotted pipeline.Config field paths to values. Numbers
	// must be integral for integer fields; core.Mode and
	// core.StorePolicy fields also accept their string names
	// ("baseline", "feedback-only", "full"; "speculate", "flush").
	Set map[string]any `json:"set,omitempty"`
}

// ParseSpec decodes a JSON sweep spec, rejecting unknown fields, and
// validates it.
func ParseSpec(data []byte) (*SweepSpec, error) {
	s, err := decodeSpec(data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSpec reads and parses a JSON sweep spec file. Relative scenario
// paths in the spec resolve against the spec file's directory.
func LoadSpec(path string) (*SweepSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("exper: reading sweep spec: %w", err)
	}
	s, err := decodeSpec(data)
	if err != nil {
		return nil, err
	}
	s.baseDir = filepath.Dir(path)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeSpec(data []byte) (*SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("exper: parsing sweep spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("exper: parsing sweep spec: trailing content after the spec object")
	}
	return &s, nil
}

// Validate checks the spec: at least one variant, unique non-empty
// labels, known suites and benchmarks, a resolvable scenario reference,
// and overrides that resolve to real config fields with compatible
// values (each variant's config is built and checked with
// pipeline.Config.Validate). Errors name the offending field path,
// e.g. "exper: variants[1].label: duplicate label".
func (s *SweepSpec) Validate() error {
	if err := s.validate(); err != nil {
		return fmt.Errorf("exper: %w", err)
	}
	return nil
}

func (s *SweepSpec) validate() error {
	if len(s.Variants) == 0 {
		return scenario.Pathf("variants", "need at least one variant")
	}
	seen := map[string]int{}
	for i, v := range s.Variants {
		if v.Label == "" {
			return scenario.Pathf(fmt.Sprintf("variants[%d].label", i), "variant has no label")
		}
		if prev, dup := seen[v.Label]; dup {
			return scenario.Pathf(fmt.Sprintf("variants[%d].label", i), "duplicate label %q (already used by variants[%d])", v.Label, prev)
		}
		seen[v.Label] = i
	}
	known := map[string]bool{}
	for _, su := range workloads.Suites() {
		known[su] = true
	}
	for i, su := range s.Suites {
		if !known[su] {
			return scenario.Pathf(fmt.Sprintf("suites[%d]", i), "unknown suite %q (have %v)", su, workloads.Suites())
		}
	}
	for i, name := range s.Benchmarks {
		if _, ok := workloads.ByName(name); !ok {
			return scenario.Pathf(fmt.Sprintf("benchmarks[%d]", i), "unknown benchmark %q (try 'contopt list')", name)
		}
	}
	switch s.GroupBy {
	case "", "suite", "class":
	default:
		return scenario.Pathf("group_by", "unknown group_by %q (want \"suite\" or \"class\")", s.GroupBy)
	}
	if _, err := s.scenarioBenches(); err != nil {
		return err
	}
	if s.Reference != nil {
		if _, err := s.Reference.config(); err != nil {
			return scenario.Pathf("reference", "%v", err)
		}
	}
	for i := range s.Variants {
		if _, err := s.Variants[i].config(); err != nil {
			return scenario.Pathf(fmt.Sprintf("variants[%d]", i), "%v", err)
		}
	}
	return nil
}

// scenarioBenches materializes the referenced scenario spec, if any,
// into registered benchmarks. Materialization is idempotent, so calling
// this from both Validate and benches is safe and cheap.
func (s *SweepSpec) scenarioBenches() ([]*workloads.Benchmark, error) {
	if s.Scenarios == nil {
		return nil, nil
	}
	sp := s.Scenarios.Inline
	if sp == nil {
		p := s.Scenarios.Path
		if !filepath.IsAbs(p) && s.baseDir != "" {
			p = filepath.Join(s.baseDir, p)
		}
		loaded, err := scenario.LoadSpec(p)
		if err != nil {
			return nil, scenario.Pathf("scenarios", "%v", err)
		}
		sp = loaded
	}
	benches, err := sp.Materialize()
	if err != nil {
		return nil, scenario.Pathf("scenarios", "%v", err)
	}
	return benches, nil
}

// benches resolves the suite/benchmark/scenario filters against the
// registry, preserving registry (suite) order with generated scenarios
// after the built-ins.
func (s *SweepSpec) benches() []*workloads.Benchmark {
	scen, err := s.scenarioBenches()
	if err != nil {
		return nil // Validate reports this before benches is reached
	}
	if len(s.Suites) == 0 && len(s.Benchmarks) == 0 {
		if s.Scenarios != nil {
			return scen
		}
		return workloads.All()
	}
	want := map[string]bool{}
	for _, name := range s.Benchmarks {
		want[name] = true
	}
	suite := map[string]bool{}
	for _, su := range s.Suites {
		suite[su] = true
	}
	var out []*workloads.Benchmark
	for _, b := range workloads.All() {
		if suite[b.Suite] || want[b.Name] {
			out = append(out, b)
		}
	}
	// The benchmarks filter may also name previously registered
	// generated scenarios.
	inScen := map[string]bool{}
	for _, b := range scen {
		inScen[b.Name] = true
	}
	for _, b := range workloads.GeneratedBenchmarks() {
		if want[b.Name] && !inScen[b.Name] {
			out = append(out, b)
		}
	}
	return append(out, scen...)
}

// reference returns the reference machine config.
func (s *SweepSpec) reference() (pipeline.Config, error) {
	if s.Reference == nil {
		ref := pipeline.DefaultConfig().Baseline()
		return ref, nil
	}
	return s.Reference.config()
}

// config builds the variant's machine from the default config and the
// Set overrides, validating the result.
func (v *VariantSpec) config() (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	if v.Baseline {
		cfg = cfg.Baseline()
	}
	if v.Label != "" {
		cfg.Name = v.Label
	}
	for _, path := range sortedKeys(v.Set) {
		if err := setField(&cfg, path, v.Set[path]); err != nil {
			return cfg, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var (
	modeType  = reflect.TypeOf(core.Mode(0))
	storeType = reflect.TypeOf(core.StorePolicy(0))
)

var modeNames = map[string]core.Mode{
	"baseline":      core.ModeBaseline,
	"feedback-only": core.ModeFeedbackOnly,
	"full":          core.ModeFull,
}

var storeNames = map[string]core.StorePolicy{
	"speculate": core.StoreSpeculate,
	"flush":     core.StoreFlush,
}

// setField assigns val (a JSON scalar) to the dotted field path of cfg.
func setField(cfg *pipeline.Config, path string, val any) error {
	v := reflect.ValueOf(cfg).Elem()
	for _, part := range strings.Split(path, ".") {
		if v.Kind() != reflect.Struct {
			return fmt.Errorf("config field %q: %q is not a struct", path, v.Type())
		}
		f := v.FieldByName(part)
		if !f.IsValid() {
			return fmt.Errorf("unknown config field %q (no %q in %s)", path, part, v.Type())
		}
		v = f
	}
	switch v.Type() {
	case modeType:
		if s, ok := val.(string); ok {
			m, ok := modeNames[s]
			if !ok {
				return fmt.Errorf("config field %q: unknown mode %q", path, s)
			}
			v.SetInt(int64(m))
			return nil
		}
	case storeType:
		if s, ok := val.(string); ok {
			p, ok := storeNames[s]
			if !ok {
				return fmt.Errorf("config field %q: unknown store policy %q", path, s)
			}
			v.SetInt(int64(p))
			return nil
		}
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		f, ok := val.(float64)
		if !ok || f != math.Trunc(f) {
			return fmt.Errorf("config field %q: need an integer, got %v", path, val)
		}
		v.SetInt(int64(f))
	case reflect.Uint, reflect.Uint64:
		f, ok := val.(float64)
		if !ok || f != math.Trunc(f) || f < 0 {
			return fmt.Errorf("config field %q: need a non-negative integer, got %v", path, val)
		}
		v.SetUint(uint64(f))
	case reflect.Float64:
		f, ok := val.(float64)
		if !ok {
			return fmt.Errorf("config field %q: need a number, got %v", path, val)
		}
		v.SetFloat(f)
	case reflect.Bool:
		b, ok := val.(bool)
		if !ok {
			return fmt.Errorf("config field %q: need a bool, got %v", path, val)
		}
		v.SetBool(b)
	case reflect.String:
		s, ok := val.(string)
		if !ok {
			return fmt.Errorf("config field %q: need a string, got %v", path, val)
		}
		v.SetString(s)
	default:
		return fmt.Errorf("config field %q: unsupported field type %s", path, v.Type())
	}
	return nil
}

// SweepResult holds every simulation of one executed sweep, indexed
// [benchmark][column] where column 0 is the reference and columns 1..n
// follow Spec.Variants.
type SweepResult struct {
	Spec    *SweepSpec
	Benches []*workloads.Benchmark
	Cells   [][]*pipeline.Result
}

// Sweep validates and executes spec, memoizing every cell in the
// runner's cache. Canceling ctx aborts the in-flight cells and returns
// the cancellation error.
func (r *Runner) Sweep(ctx context.Context, spec *SweepSpec) (*SweepResult, error) {
	return r.sweep(ctx, spec, nil)
}

// SweepSampled executes spec under sampled simulation: every cell is a
// sampled estimate (see RunSampled) instead of an exact run, memoized
// in the sampled-result cache.
func (r *Runner) SweepSampled(ctx context.Context, spec *SweepSpec, sc sample.Config) (*SweepResult, error) {
	return r.sweep(ctx, spec, &sc)
}

// Resolve validates the spec and expands it into its execution cells:
// the benchmarks it selects (registry order) and the machine configs it
// simulates, with the reference at index 0 followed by the variants in
// spec order. Every (benchmark, config) pair is one cell of the sweep —
// this is the hook a serving layer uses to run cells individually (for
// per-cell progress) while still producing a SweepResult the standard
// formatters understand.
func (s *SweepSpec) Resolve() ([]*workloads.Benchmark, []pipeline.Config, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	benches := s.benches()
	if len(benches) == 0 {
		return nil, nil, fmt.Errorf("exper: sweep spec selects no benchmarks")
	}
	ref, err := s.reference()
	if err != nil {
		return nil, nil, err
	}
	cfgs := make([]pipeline.Config, 0, len(s.Variants)+1)
	cfgs = append(cfgs, ref)
	for i := range s.Variants {
		cfg, err := s.Variants[i].config()
		if err != nil {
			return nil, nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return benches, cfgs, nil
}

func (r *Runner) sweep(ctx context.Context, spec *SweepSpec, sc *sample.Config) (*SweepResult, error) {
	benches, cfgs, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	cells, err := r.Matrix(ctx, benches, cfgs, spec.Scale, sc, nil)
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Spec:    spec,
		Benches: benches,
		Cells:   cells,
	}, nil
}

// Speedup returns variant vi's speedup over the reference on benchmark
// bi (both zero-based; vi indexes Spec.Variants).
func (sr *SweepResult) Speedup(bi, vi int) float64 {
	return sr.Cells[bi][vi+1].SpeedupOver(sr.Cells[bi][0])
}

// groupKey returns b's table-grouping key under the spec's GroupBy:
// the behavior class for "class", the suite otherwise.
func (sr *SweepResult) groupKey(b *workloads.Benchmark) string {
	if sr.Spec.GroupBy == "class" {
		if b.Class == "" {
			return "unclassified"
		}
		return b.Class
	}
	return b.Suite
}

// groups returns the grouping keys in display order: the canonical
// suite (or class) order first, then any other keys present in the
// result in first-appearance order (e.g. the "generated" suite).
func (sr *SweepResult) groups() []string {
	var out []string
	if sr.Spec.GroupBy == "class" {
		out = workloads.Classes()
	} else {
		out = workloads.Suites()
	}
	seen := map[string]bool{}
	for _, g := range out {
		seen[g] = true
	}
	for _, b := range sr.Benches {
		if k := sr.groupKey(b); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// WriteTable prints the sweep as a speedup table: optional per-benchmark
// rows, then one geomean row per group present (suites by default,
// behavior classes with group_by "class"), then an overall geomean row
// when more than one group is present.
func (sr *SweepResult) WriteTable(w io.Writer) error {
	if sr.Spec.Title != "" {
		fmt.Fprintln(w, sr.Spec.Title)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, v := range sr.Spec.Variants {
		fmt.Fprintf(tw, "\t%s", v.Label)
	}
	fmt.Fprintln(tw)

	if sr.Spec.PerBenchmark {
		for bi, b := range sr.Benches {
			fmt.Fprint(tw, b.Name)
			for vi := range sr.Spec.Variants {
				fmt.Fprintf(tw, "\t%.3f", sr.Speedup(bi, vi))
			}
			fmt.Fprintln(tw)
		}
	}

	groups := 0
	for _, g := range sr.groups() {
		var idx []int
		for bi, b := range sr.Benches {
			if sr.groupKey(b) == g {
				idx = append(idx, bi)
			}
		}
		if len(idx) == 0 {
			continue
		}
		groups++
		fmt.Fprint(tw, g)
		for vi := range sr.Spec.Variants {
			vals := make([]float64, 0, len(idx))
			for _, bi := range idx {
				vals = append(vals, sr.Speedup(bi, vi))
			}
			fmt.Fprintf(tw, "\t%.3f", Geomean(vals))
		}
		fmt.Fprintln(tw)
	}
	if groups > 1 {
		fmt.Fprint(tw, "all")
		for vi := range sr.Spec.Variants {
			vals := make([]float64, 0, len(sr.Benches))
			for bi := range sr.Benches {
				vals = append(vals, sr.Speedup(bi, vi))
			}
			fmt.Fprintf(tw, "\t%.3f", Geomean(vals))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Geomean returns the geometric mean of xs (0 for empty input) — the
// paper's aggregation for per-suite speedups.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
