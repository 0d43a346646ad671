package sample

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// fillPlan populates v recursively so every exported field — including
// fields added after this test was written — holds a distinct non-zero
// value (unexported state, like a plan's warming memo, is not encoded),
// mirroring the store's Result round-trip test. Memory images cannot be
// reflected into (their pages are unexported), so *mem.Memory fields
// are built through the public store API with values spanning several
// sparse pages.
func fillPlan(v reflect.Value, n *uint64) {
	if v.Type() == reflect.TypeOf((*mem.Memory)(nil)) {
		m := mem.New()
		for i := 0; i < 3; i++ {
			*n++
			m.Store64(uint64(i)*3*mem.PageSize+uint64(i)*8, *n)
		}
		v.Set(reflect.ValueOf(m))
		return
	}
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fillPlan(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillPlan(v.Field(i), n)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillPlan(s.Index(i), n)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillPlan(v.Index(i), n)
		}
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint64:
		*n++
		v.SetUint(*n)
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.5)
	default:
		panic(fmt.Sprintf("fillPlan: unhandled kind %s (extend the test)", v.Kind()))
	}
}

// plansEqual compares two plans field by field, comparing checkpoint
// memory images semantically (absent pages read as zero) rather than by
// internal representation.
func plansEqual(t *testing.T, want, got *Plan) {
	t.Helper()
	if want.Program != got.Program || want.TotalInsts != got.TotalInsts || want.Period != got.Period {
		t.Errorf("plan header changed: want {%s %d %d}, got {%s %d %d}",
			want.Program, want.TotalInsts, want.Period, got.Program, got.TotalInsts, got.Period)
	}
	if len(want.Windows) != len(got.Windows) {
		t.Fatalf("window count changed: want %d, got %d", len(want.Windows), len(got.Windows))
	}
	for i := range want.Windows {
		a, b := want.Windows[i], got.Windows[i]
		if a.Index != b.Index || a.Start != b.Start || a.WarmFrom != b.WarmFrom {
			t.Errorf("window %d schedule changed: want %+v, got %+v", i, a, b)
		}
		if (a.Ck == nil) != (b.Ck == nil) {
			t.Fatalf("window %d checkpoint presence changed", i)
		}
		if a.Ck == nil {
			continue
		}
		if a.Ck.Program != b.Ck.Program || a.Ck.PC != b.Ck.PC ||
			a.Ck.InstCount != b.Ck.InstCount || a.Ck.Halted != b.Ck.Halted {
			t.Errorf("window %d checkpoint header changed: want %+v, got %+v", i, a.Ck, b.Ck)
		}
		if a.Ck.Regs != b.Ck.Regs {
			t.Errorf("window %d registers changed", i)
		}
		if !a.Ck.Mem.Equal(b.Ck.Mem) {
			t.Errorf("window %d memory image changed", i)
		}
	}
}

func TestPlanCodecRoundTripEveryField(t *testing.T) {
	var plan Plan
	var n uint64
	fillPlan(reflect.ValueOf(&plan), &n)

	data, err := json.Marshal(&plan)
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	plansEqual(t, &plan, &got)

	// The encoding is canonical: re-encoding the decoded plan yields
	// identical bytes, which is what makes concurrent shard rewrites of
	// the same plan idempotent at the store layer.
	data2, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("decode+re-encode changed the serialized bytes; the codec is not canonical")
	}
}

// TestBuiltPlanRoundTripRunsIdentically is the semantic half: a real
// plan built from a workload, serialized and decoded, must drive
// RunPlanned to a byte-identical estimate — the store-loaded plan is
// indistinguishable from the freshly built one.
func TestBuiltPlanRoundTripRunsIdentically(t *testing.T) {
	ctx := context.Background()
	b := prog(t, "tst")
	p := b.Program(2)
	pre := emu.New(p)
	pre.Run(0)
	total := pre.InstCount()

	sc := Config{Warmup: 30, Window: 60, TargetWindows: 6, Workers: 1}
	plan, err := BuildPlan(ctx, p, sc, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Windows) == 0 {
		t.Fatalf("plan scheduled no windows; pick a longer program (total %d insts)", total)
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Plan
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}

	cfg := pipeline.DefaultConfig()
	want, err := RunPlanned(ctx, cfg, p, sc, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPlanned(ctx, cfg, p, sc, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("decoded plan produced a different estimate:\nbuilt  %+v\nloaded %+v", want, got)
	}
}

func TestPlanCodecVersionSkew(t *testing.T) {
	var plan Plan
	var n uint64
	fillPlan(reflect.ValueOf(&plan), &n)
	data, err := json.Marshal(&plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []int{0, PlanCodecVersion - 1, PlanCodecVersion + 1, 999} {
		if old == PlanCodecVersion {
			continue
		}
		skewed := strings.Replace(string(data),
			fmt.Sprintf(`"codec":%d`, PlanCodecVersion),
			fmt.Sprintf(`"codec":%d`, old), 1)
		if skewed == string(data) {
			t.Fatal("could not rewrite the codec version in the test fixture")
		}
		var got Plan
		if err := json.Unmarshal([]byte(skewed), &got); err == nil {
			t.Errorf("codec version %d decoded without error; stale plans must read as misses", old)
		}
	}
}

func TestPlanCodecRejectsTornImages(t *testing.T) {
	var plan Plan
	var n uint64
	fillPlan(reflect.ValueOf(&plan), &n)
	data, err := json.Marshal(&plan)
	if err != nil {
		t.Fatal(err)
	}
	// A misaligned page base models a torn or hand-edited image.
	torn := strings.Replace(string(data), `"base":0,`, `"base":12345,`, 1)
	if torn == string(data) {
		// Every filled page base happened to be non-zero; corrupt the
		// first one generically.
		torn = strings.Replace(string(data), `"base":`, `"base":7,"x":`, 1)
	}
	var got Plan
	if err := json.Unmarshal([]byte(torn), &got); err == nil {
		t.Error("torn memory image decoded without error")
	}
}
