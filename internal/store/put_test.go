package store

// Put tests: every entry kind round-trips with its payload stored as
// its JSON, only a handle's first Put creates a file, and a write that
// fails midway leaves the previous entry intact.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// TestEntryRoundTripEveryKind stores every entry kind, with strings
// that encoding/json escapes (plans, whose MarshalJSON output Put
// stores as is, included), and requires the record's payload to be the
// value's JSON byte for byte and what Get decodes to re-encode to it
// exactly.
func TestEntryRoundTripEveryKind(t *testing.T) {
	var exact pipeline.Result
	var sampled sample.Result
	var n uint64
	fill(reflect.ValueOf(&exact), &n)
	fill(reflect.ValueOf(&sampled), &n)
	exact.Machine = `<opt> & "quoted" \ ` + " \t\x01é"
	sampled.Program = "<b>&amp;</b>"
	escaped := testPlan()
	escaped.Program = `<p> & "q" \ ` + "\t\x01é"
	for _, w := range escaped.Windows {
		w.Ck.Program = escaped.Program
	}

	cases := []struct {
		k   Key
		v   any
		out any
	}{
		{ExactKey(exact.ConfigKey, "gcc", 2, "w1"), &exact, new(pipeline.Result)},
		{SampledKey(sampled.ConfigKey, "gcc", 2, sampled.Sampling.Key(), "w1"), &sampled, new(sample.Result)},
		{CountKey("gcc", 2, "w1"), &Count{Insts: 123456}, new(Count)},
		{PlanKey("b", 1, "p1000.t2.w60.x30", "w1"), testPlan(), new(sample.Plan)},
		{PlanKey(escaped.Program, 1, "p1000.t2.w60.x30", "w1"), escaped, new(sample.Plan)},
	}
	s := openTemp(t)
	for _, c := range cases {
		if err := s.Put(c.k, c.v); err != nil {
			t.Fatalf("%s: %v", c.k, err)
		}
		e := entryOf(t, s, c.k)
		data, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkRecord(data[e.Offset:e.Offset+e.Size], e.Path, &c.k)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s: stored payload differs from the value's JSON:\ngot  %s\nwant %s", c.k, got, payload)
		}
		if err := s.Get(c.k, c.out); err != nil {
			t.Fatalf("%s: %v", c.k, err)
		}
		again, err := json.Marshal(c.out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Errorf("%s: round trip changed the payload:\nput %s\ngot %s", c.k, payload, again)
		}
	}
}

// TestOnlyFirstPutCreatesAFile: a handle's first Put creates its
// segment and every later Put appends to it — no file per entry, and
// none for a Get that misses.
func TestOnlyFirstPutCreatesAFile(t *testing.T) {
	s := openTemp(t)
	// files fails unless the store holds exactly one file, the segment
	// the handle's first Put created.
	var first string
	files := func(after string) {
		t.Helper()
		got, err := filepath.Glob(filepath.Join(s.Dir(), "*", "*"))
		if err != nil || len(got) != 1 || first != "" && got[0] != first {
			t.Fatalf("after %s the store holds %v (%v), want only %s", after, got, err, first)
		}
		first = got[0]
	}
	for i := 0; i < 4; i++ {
		k := CountKey(fmt.Sprintf("b%d", i), 1, "w1")
		if err := s.Put(k, &Count{Insts: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		files("a Put")
		if err := s.Put(k, &Count{Insts: uint64(i) + 1}); err != nil {
			t.Fatal(err)
		}
		files("an overwrite")
	}
	var c Count
	if err := s.Get(CountKey("missing", 1, "w1"), &c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a missing key = %v", err)
	}
	files("a miss")
	if err := s.Get(CountKey("b2", 1, "w1"), &c); err != nil || c.Insts != 3 {
		t.Fatalf("Get = %+v, %v; want the last Put's value", c, err)
	}
}

// TestPutWriteFaultKeepsOldEntry lands an ENOSPC on the Sync of an
// overwrite — the handle's segment already exists, so the append's
// Write takes call 1 — and requires the failed Put to leave the
// previous entry intact, no partial record behind, and the next Put to
// start a new segment.
func TestPutWriteFaultKeepsOldEntry(t *testing.T) {
	defer fault.Reset()
	s := openTemp(t)
	k := CountKey("vpr", 1, "w1")
	if err := s.Put(k, &Count{Insts: 5}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("store.write:err=ENOSPC:nth=2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, &Count{Insts: 6}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put with ENOSPC on Write: %v", err)
	}
	fault.Reset()
	var c Count
	if err := s.Get(k, &c); err != nil || c.Insts != 5 {
		t.Fatalf("after the failed overwrite Get = %+v, %v; want the old entry", c, err)
	}
	// A fresh handle scans the segment from disk: one record, no tail.
	fresh, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Get(k, &c); err != nil || c.Insts != 5 {
		t.Fatalf("fresh handle Get = %+v, %v; want the old entry", c, err)
	}
	if st, err := fresh.Stat(); err != nil || st.Entries != 1 || st.Superseded != 0 || st.Segments != 1 {
		t.Fatalf("failed Put left a record behind: %+v, %v", st, err)
	}
	if err := s.Put(k, &Count{Insts: 6}); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Stat(); err != nil || st.Segments != 2 {
		t.Fatalf("the Put after a failed append should start a new segment: %+v, %v", st, err)
	}
}

// TestFailedFirstAppendLeavesNoFile: a Put whose first append fails
// (the segment was created, call 1, and its Write takes call 2) removes
// the empty segment, so a disk that keeps failing does not collect a
// file per attempt.
func TestFailedFirstAppendLeavesNoFile(t *testing.T) {
	defer fault.Reset()
	s := openTemp(t)
	if err := fault.Enable("store.write:err=ENOSPC:nth=2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(CountKey("vpr", 1, "w1"), &Count{Insts: 6}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put with ENOSPC on its first Write: %v", err)
	}
	names, err := os.ReadDir(s.segDir())
	if err != nil || len(names) != 0 {
		t.Fatalf("failed first append left %v (%v)", names, err)
	}
}
