package store

// Put tests: the entry encoding is byte-identical to marshaling the
// whole envelope, fan-out directories are made only when missing, and
// a write that fails midway leaves the previous entry intact.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// TestEntryBytesMatchEnvelopeMarshal pins Put's output byte for byte to
// what json.Marshal gives for the whole envelope — the encoding every
// existing store holds — for every entry kind, with strings that
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
		got, err := os.ReadFile(s.path(c.k))
		if err != nil {
			t.Fatal(err)
		}
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

// mkdirCounter counts MkdirAll calls through to the real filesystem.
type mkdirCounter struct {
	FS
	n atomic.Int64
}

func (m *mkdirCounter) MkdirAll(dir string, perm os.FileMode) error {
	m.n.Add(1)
	return m.FS.MkdirAll(dir, perm)
}

// TestPutCreatesFanOutDirOnce: Put creates an entry's fan-out directory
// only when it is missing — the first write into it — not on every
// write.
func TestPutCreatesFanOutDirOnce(t *testing.T) {
	fsys := &mkdirCounter{FS: FaultFS(OSFS())}
	s, err := OpenFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	k := CountKey("gcc", 1, "w1")
	opened := fsys.n.Load()
	if err := s.Put(k, &Count{Insts: 1}); err != nil {
		t.Fatal(err)
	}
	if got := fsys.n.Load() - opened; got != 1 {
		t.Errorf("first Put into a new fan-out directory made %d MkdirAll calls, want 1", got)
	}
	before := fsys.n.Load()
	for i := 0; i < 3; i++ {
		if err := s.Put(k, &Count{Insts: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsys.n.Load() - before; got != 0 {
		t.Errorf("Puts into an existing fan-out directory made %d MkdirAll calls, want 0", got)
	}
	var c Count
	if err := s.Get(k, &c); err != nil || c.Insts != 2 {
		t.Fatalf("Get = %+v, %v; want the last Put's value", c, err)
	}
}

// TestPutWriteFaultKeepsOldEntry lands an ENOSPC on the temp-file Write
// of an overwrite — the fan-out directory already exists, so CreateTemp
// runs once and takes call 1 — and requires the failed Put to leave the
// previous entry intact and no temp file behind.
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
	names, err := os.ReadDir(filepath.Dir(s.path(k)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("failed Put left temp file %s", e.Name())
		}
	}
}
