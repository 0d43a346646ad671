package pipeline_test

import (
	"reflect"
	"testing"

	"repro/internal/pipeline"
)

// fillCounters sets every uint64 in v — a struct, walked recursively —
// to a distinct value starting at *next.
func fillCounters(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(*next)
		*next++
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillCounters(v.Field(i), next)
		}
	}
}

// counters lists every uint64 in v, a struct, walked recursively.
func counters(v reflect.Value) []uint64 {
	switch v.Kind() {
	case reflect.Uint64:
		return []uint64{v.Uint()}
	case reflect.Struct:
		var out []uint64
		for i := 0; i < v.NumField(); i++ {
			out = append(out, counters(v.Field(i))...)
		}
		return out
	}
	return nil
}

// TestResultCountsCopiesEveryField guards Result.Counts, the one place
// the counters are still copied by name. It sets a distinct value on
// each Result field Counts names and requires Counts to return it, so a
// field added to Counts but not copied fails. It also lists Result's
// counters that are not run Counts, so a counter added to Result must be
// placed on one side or the other. Add and Sub must be inverses on every
// field.
func TestResultCountsCopiesEveryField(t *testing.T) {
	var r pipeline.Result
	rv := reflect.ValueOf(&r).Elem()
	ct := reflect.TypeOf(pipeline.Counts{})
	next := uint64(1)
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		rf := rv.FieldByName(f.Name)
		if !rf.IsValid() || rf.Type() != f.Type {
			t.Fatalf("Result has no %s field of type %s", f.Name, f.Type)
		}
		fillCounters(rf, &next)
	}
	c := reflect.ValueOf(r.Counts())
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if got, want := c.Field(i).Interface(), rv.FieldByName(name).Interface(); got != want {
			t.Errorf("Result.Counts().%s = %v, want %v", name, got, want)
		}
	}

	notCounts := map[string]bool{"StartInst": true, "WindowStalls": true, "SchedStalls": true, "RegStalls": true, "BPLookups": true}
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		if _, inCounts := ct.FieldByName(f.Name); f.Type.Kind() == reflect.Uint64 && !inCounts && !notCounts[f.Name] {
			t.Errorf("Result.%s is neither a Counts field nor a listed non-Counts counter", f.Name)
		}
	}

	var a, b pipeline.Counts
	fillCounters(reflect.ValueOf(&a).Elem(), &next)
	fillCounters(reflect.ValueOf(&b).Elem(), &next)
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("a.Add(b).Sub(b) = %+v, want %+v", got, a)
	}
	sum, av, bv := counters(reflect.ValueOf(a.Add(b))), counters(reflect.ValueOf(a)), counters(reflect.ValueOf(b))
	for i := range sum {
		if sum[i] != av[i]+bv[i] {
			t.Errorf("a.Add(b) counter %d = %d, want %d", i, sum[i], av[i]+bv[i])
		}
	}
}
