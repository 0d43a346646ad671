package store

// Put tests: the entry encoding is byte-identical to marshaling the
// whole envelope, only a handle's first Put creates a file, and a
// write that fails midway leaves the previous entry intact.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// TestEntryBytesMatchEnvelopeMarshal pins the envelope of Put's record
// byte for byte to what json.Marshal gives for the whole envelope — the
// encoding every earlier store held — for every entry kind, with strings that
// encoding/json escapes (plans, whose MarshalJSON output Put stores as
// is, included). It then round-trips each entry: what Get decodes
// re-encodes to the stored payload exactly.
func TestEntryBytesMatchEnvelopeMarshal(t *testing.T) {
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
		got := data[e.Offset+frameHeader : e.Offset+e.Size-1]
		payload, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		want, err := json.Marshal(envelope{
			envelopeHead: envelopeHead{Format: Format, Version: Version, Key: c.k, Checksum: hex.EncodeToString(sum[:])},
			Payload:      payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: entry bytes differ from the marshaled envelope:\ngot  %s\nwant %s", c.k, got, want)
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

// createCounter counts Create calls through to the real filesystem.
type createCounter struct {
	FS
	n atomic.Int64
}

func (c *createCounter) Create(name string) (File, error) {
	c.n.Add(1)
	return c.FS.Create(name)
}

// TestOnlyFirstPutCreatesAFile: a handle's first Put creates its
// segment and every later Put appends to it — no file per entry, and
// none for a Get that misses.
func TestOnlyFirstPutCreatesAFile(t *testing.T) {
	fsys := &createCounter{FS: FaultFS(OSFS())}
	s, err := OpenFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		k := CountKey(fmt.Sprintf("b%d", i), 1, "w1")
		if err := s.Put(k, &Count{Insts: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(k, &Count{Insts: uint64(i) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	var c Count
	if err := s.Get(CountKey("missing", 1, "w1"), &c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a missing key = %v", err)
	}
	if got := fsys.n.Load(); got != 1 {
		t.Errorf("8 Puts and a miss made %d Create calls, want 1", got)
	}
	if err := s.Get(CountKey("b2", 1, "w1"), &c); err != nil || c.Insts != 3 {
		t.Fatalf("Get = %+v, %v; want the last Put's value", c, err)
	}
	names, err := os.ReadDir(s.segDir())
	if err != nil || len(names) != 1 {
		t.Fatalf("segments/ holds %v (%v), want one segment", names, err)
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
