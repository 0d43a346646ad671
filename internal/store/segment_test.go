package store

// Segment tests: records one handle appends are visible to another
// without reopening, a torn tail is a miss until GC retires it, a
// segment of the earlier record layout is corrupt until GC removes it,
// and the segment scanner survives arbitrary damage.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// TestSegmentVisibleAcrossHandles: handle B, opened before handle A
// wrote anything, finds A's records on its first miss — and A's later
// appends to the same segment on the next one — without reopening, and
// its misses create no file.
func TestSegmentVisibleAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := CountKey("mcf", 1, "w1"), CountKey("vpr", 1, "w1")
	var c Count
	if err := b.Get(k1, &c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get before any Put = %v, want ErrNotFound", err)
	}
	if err := a.Put(k1, &Count{Insts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Get(k1, &c); err != nil || c.Insts != 1 {
		t.Fatalf("B's Get of A's first record = %+v, %v", c, err)
	}
	if err := a.Put(k2, &Count{Insts: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Get(k2, &c); err != nil || c.Insts != 2 {
		t.Fatalf("B's Get of A's second record = %+v, %v", c, err)
	}
	names, err := os.ReadDir(filepath.Join(dir, "segments"))
	if err != nil || len(names) != 1 {
		t.Fatalf("segments/ holds %v (%v), want A's one segment", names, err)
	}
}

// TestTornTailIsMissUntilStale: a record cut off at the end of its
// segment (a crash mid-append, or an append still arriving) is a miss,
// not corruption — verify stays clean — and only GC, once the tail is
// older than tempMaxAge, removes it, keeping the intact records.
func TestTornTailIsMissUntilStale(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	intact, cut := CountKey("mcf", 1, "w1"), CountKey("vpr", 1, "w1")
	if err := a.Put(intact, &Count{Insts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(cut, &Count{Insts: 2}); err != nil {
		t.Fatal(err)
	}
	e := entryOf(t, a, cut)
	if err := os.Truncate(e.Path, e.Offset+e.Size/2); err != nil {
		t.Fatal(err)
	}

	// Both the writer and a new handle read the tail as a miss.
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"writer": a, "new handle": b} {
		var c Count
		if err := s.Get(cut, &c); Classify(err) != ClassNotFound {
			t.Errorf("%s: Get of the torn record = %v, want a miss", name, err)
		}
		if err := s.Get(intact, &c); err != nil || c.Insts != 1 {
			t.Errorf("%s: Get of the intact record = %+v, %v", name, c, err)
		}
	}
	entries, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Err != nil {
			t.Errorf("List reports the torn tail as corrupt: %v", e.Err)
		}
	}

	// A fresh tail may be an append in flight: GC leaves it alone.
	st, err := b.Stat()
	if err != nil || st.TornTails != 0 || st.Corrupt != 0 || st.Entries != 1 {
		t.Fatalf("Stat with a fresh torn tail = %+v, %v", st, err)
	}
	before, err := os.ReadFile(e.Path)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := b.GC(); err != nil || rep.RemovedTorn != 0 {
		t.Fatalf("GC of a fresh torn tail = %+v, %v", rep, err)
	}
	if after, err := os.ReadFile(e.Path); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("GC touched a segment with a fresh torn tail (%v)", err)
	}

	// Past the grace window it is debris.
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(e.Path, old, old); err != nil {
		t.Fatal(err)
	}
	if st, err := b.Stat(); err != nil || st.TornTails != 1 {
		t.Fatalf("Stat with a stale torn tail = %+v, %v", st, err)
	}
	rep, err := b.GC()
	if err != nil || rep.RemovedTorn != 1 || rep.RemainingIntact != 1 {
		t.Fatalf("GC of a stale torn tail = %+v, %v", rep, err)
	}
	if st, err := b.Stat(); err != nil || st.TornTails != 0 || st.Entries != 1 || st.Segments != 1 {
		t.Fatalf("Stat after GC = %+v, %v", st, err)
	}
	var c Count
	if err := a.Get(intact, &c); err != nil || c.Insts != 1 {
		t.Fatalf("intact record after GC = %+v, %v", c, err)
	}
	// The writer's segment is gone; its next Put starts a new one.
	if err := a.Put(cut, &Count{Insts: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Get(cut, &c); err != nil || c.Insts != 2 {
		t.Fatalf("rewritten record = %+v, %v", c, err)
	}
}

// cos1Record frames v under k in the earlier "cos1" record layout: a
// frame (magic, envelope length, head length, CRC-32C) around a JSON
// envelope of format marker, version, key, checksum and payload, whose
// head is the envelope's bytes before its payload field.
func cos1Record(t *testing.T, k Key, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	head, err := json.Marshal(struct {
		Format   string `json:"format"`
		Version  int    `json:"version"`
		Key      Key    `json:"key"`
		Checksum string `json:"checksum"`
	}{"contopt-result-store", 1, k, hex.EncodeToString(sum[:])})
	if err != nil {
		t.Fatal(err)
	}
	head = head[:len(head)-1]
	env := append(append(append(head, `,"payload":`...), payload...), '}')
	rec := append(append(make([]byte, 16), env...), '\n')
	copy(rec, "cos1")
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(env)))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(head)))
	binary.LittleEndian.PutUint32(rec[12:], frameCRC(rec, rec[16:16+len(head)]))
	return rec
}

// TestOldLayoutReadsAsCorrupt: a store holding a segment of the earlier
// "cos1" layout opens with this build; a key stored only there is a
// miss and never yields a value, Stat counts the segment as corrupt,
// and GC removes it and keeps the current entries. A record whose head
// names the next codec version reads as corrupt too.
func TestOldLayoutReadsAsCorrupt(t *testing.T) {
	s := openTemp(t)
	old, cur, future := CountKey("mcf", 1, "w1"), CountKey("vpr", 1, "w1"), CountKey("gcc", 1, "w1")
	if err := s.Put(cur, &Count{Insts: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(future, &Count{Insts: 3}); err != nil {
		t.Fatal(err)
	}
	oldSeg := filepath.Join(s.segDir(), "0000000000000000-cos1.seg")
	data := append(cos1Record(t, old, &Count{Insts: 1}), cos1Record(t, CountKey("art", 1, "w1"), &Count{Insts: 4})...)
	if err := os.WriteFile(oldSeg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s = rewriteRecord(t, s, future, func(h *recordHead, payload []byte) []byte {
		h.Version = Version + 1
		return payload
	})

	var c Count
	if err := s.Get(old, &c); Classify(err) != ClassNotFound || c.Insts != 0 {
		t.Fatalf("Get of a cos1 record = %+v, %v; want a miss", c, err)
	}
	if err := s.Get(future, &c); !IsCorrupt(err) || c.Insts != 0 {
		t.Fatalf("Get of a version %d record = %+v, %v; want a CorruptError", Version+1, c, err)
	}
	if err := s.Get(cur, &c); err != nil || c.Insts != 2 {
		t.Fatalf("Get of a current record = %+v, %v", c, err)
	}
	if st, err := s.Stat(); err != nil || st.Entries != 1 || st.Corrupt != 2 || st.Segments != 2 {
		t.Fatalf("Stat = %+v, %v; want 1 intact entry, the cos1 segment and the version %d record corrupt", st, err, Version+1)
	}

	rep, err := s.GC()
	if err != nil || rep.RemovedCorrupt != 2 || rep.RemainingIntact != 1 {
		t.Fatalf("GC = %+v, %v", rep, err)
	}
	if _, err := os.Stat(oldSeg); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GC left the cos1 segment: %v", err)
	}
	if st, err := s.Stat(); err != nil || st.Entries != 1 || st.Corrupt != 0 || st.Segments != 1 {
		t.Fatalf("Stat after GC = %+v, %v", st, err)
	}
	if err := s.Get(cur, &c); err != nil || c.Insts != 2 {
		t.Fatalf("Get of a current record after GC = %+v, %v", c, err)
	}
	if err := s.Get(old, &c); Classify(err) != ClassNotFound {
		t.Fatalf("Get of the cos1 record after GC = %v; want a miss", err)
	}
}

// fuzzSegment is a segment of four records, and each record's key,
// value and end offset.
type fuzzSegment struct {
	data []byte
	keys []Key
	vals []uint64
	ends []int64
}

func buildFuzzSegment(f *testing.F) fuzzSegment {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	var out fuzzSegment
	for i, cycles := range []uint64{7, 1234, 99, 5} {
		k := ExactKey("cfg", fmt.Sprintf("b%d", i), 1, "w1")
		// Payloads of different lengths, so records differ in size.
		res := &pipeline.Result{Cycles: cycles, Program: string(bytes.Repeat([]byte("p"), i*40))}
		if err := s.Put(k, res); err != nil {
			f.Fatal(err)
		}
		out.keys = append(out.keys, k)
		out.vals = append(out.vals, cycles)
	}
	for _, k := range out.keys {
		e := entryOf(f, s, k)
		out.ends = append(out.ends, e.Offset+e.Size)
		if out.data == nil {
			if out.data, err = os.ReadFile(e.Path); err != nil {
				f.Fatal(err)
			}
		}
	}
	return out
}

// FuzzSegmentScan damages a segment — truncating it, appending bytes
// or overwriting bytes at an arbitrary offset — and opens a store on
// it. The scanner must not panic; the index must hold only records
// whose frame and head are sound, and each must either pass checkRecord
// (frame, head, key, checksum) and read back the value stored, or be
// reported corrupt by Get — never served; and every
// record that ends before the damage must still read. The index is
// built from record heads, so a record damaged inside its payload is
// indexed and fails on Get, exactly as List reports it.
func FuzzSegmentScan(f *testing.F) {
	seg := buildFuzzSegment(f)
	f.Add(uint8(0), uint32(0), []byte{})
	f.Add(uint8(0), uint32(seg.ends[1]+20), []byte{})
	f.Add(uint8(1), uint32(0), []byte("cos2\xff\xff\xff\x00garbage"))
	f.Add(uint8(1), uint32(0), seg.data[:40])
	f.Add(uint8(2), uint32(seg.ends[0]+3), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(2), uint32(seg.ends[2]-5), []byte("}}"))
	f.Add(uint8(2), uint32(seg.ends[1]+40), []byte("bench"))
	f.Fuzz(func(t *testing.T, op uint8, at uint32, junk []byte) {
		data := append([]byte(nil), seg.data...)
		pos := int64(at) % int64(len(data)+1)
		switch op % 3 {
		case 0:
			data = data[:pos]
		case 1:
			pos = int64(len(data))
			data = append(data, junk...)
		case 2:
			if end := pos + int64(len(junk)); end > int64(len(data)) {
				data = append(data, make([]byte, end-int64(len(data)))...)
			}
			copy(data[pos:], junk)
		}
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "segments", "0000000000000001-fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}

		want := map[Key]uint64{}
		for i, k := range seg.keys {
			want[k] = seg.vals[i]
		}
		indexed := map[Key]loc{}
		for k, l := range s.index {
			indexed[k] = l
		}
		for k, l := range indexed {
			var got pipeline.Result
			err := s.Get(k, &got)
			fr, _, ferr := readFrame(bytes.NewReader(data), "fuzz", l.off, int64(len(data)), nil)
			if ferr == nil && (fr.headErr != nil || fr.n != l.n) {
				t.Fatalf("index holds %s at a record its frame does not describe", k)
			}
			if ferr == nil {
				_, ferr = checkRecord(data[l.off:l.off+l.n], "fuzz", &k)
			}
			switch {
			case ferr != nil && err == nil:
				t.Fatalf("Get served %s from a record that fails its checks: %v", k, ferr)
			case ferr != nil && !IsCorrupt(err):
				t.Fatalf("Get of damaged %s = %v, want a CorruptError", k, err)
			case ferr == nil && err != nil:
				t.Fatalf("Get of intact %s = %v", k, err)
			case ferr == nil && got.Cycles != want[k]:
				t.Fatalf("Get of %s = %d cycles, want %d", k, got.Cycles, want[k])
			}
		}
		for i, k := range seg.keys {
			if seg.ends[i] > pos {
				break
			}
			var got pipeline.Result
			if err := s.Get(k, &got); err != nil || got.Cycles != seg.vals[i] {
				t.Fatalf("record %d, intact before the damage at %d, reads %d, %v", i, pos, got.Cycles, err)
			}
		}
		// The whole-read paths survive the same damage, and GC keeps
		// every intact record.
		if _, err := s.List(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GC(); err != nil {
			t.Fatal(err)
		}
		for i, k := range seg.keys {
			if seg.ends[i] > pos {
				break
			}
			var got pipeline.Result
			if err := s.Get(k, &got); err != nil || got.Cycles != seg.vals[i] {
				t.Fatalf("record %d reads %d, %v after GC", i, got.Cycles, err)
			}
		}
	})
}

// TestGCLeavesCopiesABusySegmentMayLose: GC decides what to keep from
// the segments it holds alone. A segment whose writer holds its lock is
// mid-append, and a record read from it may yet be cut back by a failed
// Put; were GC to count that record as the key's latest, it would drop
// the only durable copy.
func TestGCLeavesCopiesABusySegmentMayLose(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := CountKey("mcf", 1, "w1")
	if err := a.Put(k, &Count{Insts: 7}); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put(k, &Count{Insts: 7}); err != nil {
		t.Fatal(err)
	}
	// B's segment is the newer one: hold its lock, as B does mid-append.
	bseg := filepath.Join(b.segDir(), b.own.name)
	held, err := openFile(bseg)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if err := held.lock(false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GC(); err != nil {
		t.Fatal(err)
	}
	// B's append fails after all and is cut back.
	if err := os.Truncate(bseg, 0); err != nil {
		t.Fatal(err)
	}
	held.Close()
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var c Count
	if err := fresh.Get(k, &c); err != nil || c.Insts != 7 {
		t.Fatalf("after GC beside a busy segment: %+v, %v", c, err)
	}
}
