package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// fill populates v (a pointer to a struct) recursively so that every
// field — including fields added after this test was written — holds a
// distinct non-zero value. Round-tripping a filled struct therefore
// proves the codec covers the whole type, not just the fields the test
// author knew about.
func fill(v reflect.Value, n *uint64) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fill(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), n)
		}
		v.Set(s)
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
		panic(fmt.Sprintf("fill: unhandled kind %s (extend the test)", v.Kind()))
	}
}

// requireAllNonZero fails the test for any zero field left after fill —
// a guard against fill silently skipping a kind.
func requireAllNonZero(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			t.Errorf("%s: nil pointer after fill", path)
			return
		}
		requireAllNonZero(t, v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireAllNonZero(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s: empty slice after fill", path)
		}
		for i := 0; i < v.Len(); i++ {
			requireAllNonZero(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	default:
		if v.IsZero() {
			t.Errorf("%s: zero value after fill", path)
		}
	}
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResultRoundTripEveryField(t *testing.T) {
	var res pipeline.Result
	var n uint64
	fill(reflect.ValueOf(&res), &n)
	requireAllNonZero(t, reflect.ValueOf(res), "Result")

	s := openTemp(t)
	k := ExactKey(res.ConfigKey, res.Program, res.Scale, "w1")
	if err := s.Put(k, &res); err != nil {
		t.Fatal(err)
	}
	var got pipeline.Result
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("round trip changed the result:\nput %+v\ngot %+v", res, got)
	}
}

func TestSampledRoundTripEveryField(t *testing.T) {
	var res sample.Result
	var n uint64
	fill(reflect.ValueOf(&res), &n)
	requireAllNonZero(t, reflect.ValueOf(res), "sample.Result")

	s := openTemp(t)
	k := SampledKey(res.ConfigKey, res.Program, res.Scale, res.Sampling.Key(), "w1")
	if err := s.Put(k, &res); err != nil {
		t.Fatal(err)
	}
	var got sample.Result
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Errorf("round trip changed the result:\nput %+v\ngot %+v", res, got)
	}
}

func TestCountRoundTrip(t *testing.T) {
	s := openTemp(t)
	k := CountKey("bzp", 3, "w1")
	if err := s.Put(k, &Count{Insts: 123456}); err != nil {
		t.Fatal(err)
	}
	var got Count
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if got.Insts != 123456 {
		t.Errorf("Insts = %d, want 123456", got.Insts)
	}
}

// testPlan builds a small but fully populated plan: two windows, live
// registers, and a sparse multi-page memory image.
func testPlan() *sample.Plan {
	p := &sample.Plan{Program: "b", TotalInsts: 5000, Period: 1000}
	for i := 0; i < 2; i++ {
		ck := &emu.Checkpoint{
			Program:   "b",
			PC:        uint64(64 + 8*i),
			InstCount: uint64(900 + 1000*i),
			Mem:       mem.New(),
		}
		ck.Regs[1] = uint64(41 + i)
		ck.Regs[30] = uint64(7 + i)
		ck.Mem.Store64(0x100, uint64(0xAB+i))
		ck.Mem.Store64(5*mem.PageSize+16, uint64(0xCD+i))
		p.Windows = append(p.Windows, sample.PlanWindow{
			Index: i, Start: uint64(100 + 1000*i), WarmFrom: uint64(50 + 1000*i), Ck: ck,
		})
	}
	return p
}

func TestPlanRoundTripThroughStore(t *testing.T) {
	s := openTemp(t)
	plan := testPlan()
	k := PlanKey("b", 1, "p1000.t2.w60.x30", "w1")
	if err := s.Put(k, plan); err != nil {
		t.Fatal(err)
	}
	var got sample.Plan
	if err := s.Get(k, &got); err != nil {
		t.Fatal(err)
	}
	if got.Program != plan.Program || got.TotalInsts != plan.TotalInsts ||
		got.Period != plan.Period || len(got.Windows) != len(plan.Windows) {
		t.Fatalf("plan header changed: put %+v, got %+v", plan, &got)
	}
	for i := range plan.Windows {
		a, b := plan.Windows[i], got.Windows[i]
		if a.Index != b.Index || a.Start != b.Start || a.WarmFrom != b.WarmFrom ||
			a.Ck.PC != b.Ck.PC || a.Ck.InstCount != b.Ck.InstCount || a.Ck.Regs != b.Ck.Regs {
			t.Errorf("window %d changed: put %+v, got %+v", i, a, b)
		}
		if !a.Ck.Mem.Equal(b.Ck.Mem) {
			t.Errorf("window %d memory image changed", i)
		}
	}
}

// TestPlanCodecSkewReadsAsMiss proves the layered versioning: an entry
// whose envelope is intact but whose plan payload carries a foreign
// codec version reads as corrupt — the engine's miss path — and a
// later Put of a current-codec plan heals the same slot.
func TestPlanCodecSkewReadsAsMiss(t *testing.T) {
	s := openTemp(t)
	k := PlanKey("b", 1, "regime", "w1")
	stale := map[string]any{"codec": sample.PlanCodecVersion - 1, "program": "b"}
	if err := s.Put(k, stale); err != nil {
		t.Fatal(err)
	}
	var got sample.Plan
	if err := s.Get(k, &got); !IsCorrupt(err) {
		t.Errorf("Get of a stale-codec plan = %v, want a CorruptError", err)
	}
	if err := s.Put(k, testPlan()); err != nil {
		t.Fatal(err)
	}
	if err := s.Get(k, &got); err != nil || len(got.Windows) != 2 {
		t.Errorf("after healing Put: %d windows, err %v", len(got.Windows), err)
	}
}

// TestPlanGCHonorsTempGrace is the in-flight-write guard: a concurrent
// shard's append still arriving in its own segment (a fresh torn tail)
// must survive GC, while a crash's torn tail past the grace window is
// collected — and the intact plan entry is never lost either way.
func TestPlanGCHonorsTempGrace(t *testing.T) {
	s := openTemp(t)
	k := PlanKey("b", 2, "regime", "w1")
	if err := s.Put(k, testPlan()); err != nil {
		t.Fatal(err)
	}
	fresh := tornSegment(t, s, "inflight", CountKey("inflight", 1, "w1"))
	orphan := tornSegment(t, s, "orphan", CountKey("orphan", 1, "w1"))
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}

	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.ByKind[KindPlan] != 1 || st.TornTails != 1 {
		t.Fatalf("Stat = %+v, want 1 plan entry and 1 abandoned torn tail", st)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedTorn != 1 || rep.RemovedCorrupt != 0 || rep.RemainingIntact != 1 {
		t.Errorf("GC = %+v", rep)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("GC removed a live (fresh) torn tail: %v", err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("GC left the orphaned torn tail: %v", err)
	}
	var got sample.Plan
	if err := s.Get(k, &got); err != nil {
		t.Errorf("plan entry unreadable after GC: %v", err)
	}
}

// tornSegment writes a segment of its own holding one record of k cut
// in half — what a writer mid-append, or a crash, leaves — and returns
// its path. tag names the segment.
func tornSegment(t *testing.T, s *Store, tag string, k Key) string {
	t.Helper()
	rec, err := encodeRecord(k, &Count{Insts: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.segDir(), "0000000000000000-"+tag+".seg")
	if err := os.WriteFile(path, rec[:len(rec)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGetMissing(t *testing.T) {
	s := openTemp(t)
	var out pipeline.Result
	err := s.Get(ExactKey("cfg", "bench", 1, "w1"), &out)
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty store = %v, want ErrNotFound", err)
	}
}

func TestKeyValidation(t *testing.T) {
	s := openTemp(t)
	bad := []Key{
		{},
		{Kind: "weird", Benchmark: "b", Scale: 1},
		{Kind: KindExact, Benchmark: "b", Scale: 1},                                              // no config key
		{Kind: KindExact, ConfigKey: "c", Benchmark: "b", Scale: 1, Sampling: "p"},               // regime on exact
		{Kind: KindSampled, ConfigKey: "c", Benchmark: "b", Scale: 1},                            // no regime
		{Kind: KindCount, ConfigKey: "c", Benchmark: "b", Scale: 1},                              // config on count
		{Kind: KindPlan, Benchmark: "b", Scale: 1, Workload: "w"},                                // no regime on plan
		{Kind: KindPlan, ConfigKey: "c", Benchmark: "b", Scale: 1, Sampling: "p", Workload: "w"}, // config on plan
		{Kind: KindExact, ConfigKey: "c", Benchmark: "b", Scale: 1},                              // no workload hash
		ExactKey("c", "", 1, "w"),
		ExactKey("c", "b", 0, "w"),
	}
	for _, k := range bad {
		if err := s.Put(k, &Count{}); err == nil {
			t.Errorf("Put(%+v) accepted an invalid key", k)
		}
	}
}

// entryOf returns k's entry as List finds it.
func entryOf(t testing.TB, s *Store, k Key) Entry {
	t.Helper()
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Key == k {
			return e
		}
	}
	t.Fatalf("no entry for %s", k)
	return Entry{}
}

// rewriteRecord replaces k's record in its segment with a well-framed
// record of the head and payload mutate makes of k's — the head's
// checksum is left as mutate sets it, never recomputed — and returns a
// fresh handle on the store (the old one indexed the old offsets).
func rewriteRecord(t *testing.T, s *Store, k Key, mutate func(h *recordHead, payload []byte) []byte) *Store {
	t.Helper()
	e := entryOf(t, s, k)
	data, err := os.ReadFile(e.Path)
	if err != nil {
		t.Fatal(err)
	}
	rec := data[e.Offset : e.Offset+e.Size]
	headEnd := frameHeader + int(binary.LittleEndian.Uint32(rec[4:]))
	var h recordHead
	if err := json.Unmarshal(rec[frameHeader:headEnd], &h); err != nil {
		t.Fatal(err)
	}
	payload := mutate(&h, append([]byte(nil), rec[headEnd:len(rec)-1]...))
	head, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append(append([]byte(nil), data[:e.Offset]...), frameRecord(head, payload)...), data[e.Offset+e.Size:]...)
	if err := os.WriteFile(e.Path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// corruptPayload flips a byte inside k's payload in place: the record's
// frame and head stay sound, its checksum no longer matches.
func corruptPayload(t *testing.T, s *Store, k Key) {
	t.Helper()
	e := entryOf(t, s, k)
	f, err := os.OpenFile(e.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	at := e.Offset + e.Size - 3 // inside the payload, before its closing brace
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptEntryDetected(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(h *recordHead, payload []byte) []byte
	}{
		{"truncated", func(h *recordHead, payload []byte) []byte { return payload[:len(payload)/2] }},
		{"not-json", func(h *recordHead, payload []byte) []byte {
			// A payload that is not JSON under a matching checksum: the
			// decode must catch it.
			payload = []byte("hello\x00world}")
			sum := sha256.Sum256(payload)
			h.SHA256 = hex.EncodeToString(sum[:])
			return payload
		}},
		{"flipped-payload", func(h *recordHead, payload []byte) []byte {
			// Corrupt the payload without breaking JSON syntax: the
			// stored checksum must catch it.
			mut := bytes.Replace(payload, []byte(`"Cycles"`), []byte(`"cYcles"`), 1)
			if bytes.Equal(mut, payload) {
				mut = bytes.Replace(payload, []byte("111"), []byte("112"), 1)
			}
			return mut
		}},
		{"future-version", func(h *recordHead, payload []byte) []byte {
			h.Version = Version + 1
			return payload
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTemp(t)
			k := ExactKey("cfg", "bench", 1, "w1")
			if err := s.Put(k, &pipeline.Result{Cycles: 111}); err != nil {
				t.Fatal(err)
			}
			s = rewriteRecord(t, s, k, tc.mutate)
			var out pipeline.Result
			err := s.Get(k, &out)
			if err == nil {
				t.Fatal("Get returned a corrupt entry without error")
			}
			if !IsCorrupt(err) {
				t.Errorf("Get = %v, want a CorruptError", err)
			}
			// A rewrite heals the entry.
			if err := s.Put(k, &pipeline.Result{Cycles: 222}); err != nil {
				t.Fatal(err)
			}
			if err := s.Get(k, &out); err != nil || out.Cycles != 222 {
				t.Errorf("after healing Put: result %+v, err %v", out, err)
			}
		})
	}
}

func TestKeyMismatchDetected(t *testing.T) {
	s := openTemp(t)
	ka := ExactKey("cfg", "alpha", 1, "w1")
	kb := ExactKey("cfg", "bravo", 1, "w1")
	if err := s.Put(ka, &pipeline.Result{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(kb, &pipeline.Result{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a hand-moved record: after s indexed both, swap the two
	// same-length records, so alpha's place holds bravo's record.
	ea, eb := entryOf(t, s, ka), entryOf(t, s, kb)
	data, err := os.ReadFile(ea.Path)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Size != eb.Size || ea.Path != eb.Path {
		t.Fatalf("records differ in size or segment: %+v %+v", ea, eb)
	}
	swapped := append([]byte(nil), data...)
	copy(swapped[ea.Offset:], data[eb.Offset:eb.Offset+eb.Size])
	copy(swapped[eb.Offset:], data[ea.Offset:ea.Offset+ea.Size])
	if err := os.WriteFile(ea.Path, swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	var out pipeline.Result
	if err := s.Get(kb, &out); !IsCorrupt(err) {
		t.Errorf("Get of a mis-placed record = %v, want a CorruptError", err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	s := openTemp(t)
	shared := ExactKey("cfg", "shared", 1, "w1")
	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half hammer one key (deterministic results write identical
			// payloads), half write distinct keys.
			if i%2 == 0 {
				errs[i] = s.Put(shared, &pipeline.Result{Program: "shared", Cycles: 42})
			} else {
				errs[i] = s.Put(ExactKey("cfg", fmt.Sprintf("b%d", i), 1, "w1"), &pipeline.Result{Cycles: uint64(i)})
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	var out pipeline.Result
	if err := s.Get(shared, &out); err != nil || out.Cycles != 42 {
		t.Errorf("shared key after concurrent writes: %+v, err %v", out, err)
	}
	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + writers/2; st.Entries != want {
		t.Errorf("store holds %d entries, want %d", st.Entries, want)
	}
	if st.Corrupt != 0 || st.TornTails != 0 || st.Segments != 1 {
		t.Errorf("concurrent writes left debris or more than the handle's one segment: %+v", st)
	}
}

func TestListStatGC(t *testing.T) {
	s := openTemp(t)
	if err := s.Put(ExactKey("cfg", "good", 2, "w1"), &pipeline.Result{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(SampledKey("cfg", "good", 2, "p0.t16.w200.x0", "w1"), &sample.Result{EstCycles: 2}); err != nil {
		t.Fatal(err)
	}
	// One corrupt record between intact ones, and an abandoned torn tail.
	badKey := ExactKey("cfg", "bad", 2, "w1")
	if err := s.Put(badKey, &pipeline.Result{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(CountKey("good", 2, "w1"), &Count{Insts: 3}); err != nil {
		t.Fatal(err)
	}
	corruptPayload(t, s, badKey)
	orphan := tornSegment(t, s, "leftover", CountKey("leftover", 2, "w1"))
	// Backdate the orphan past tempMaxAge; a fresh torn tail belongs to
	// a (possibly concurrent) live writer and must be left alone.
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	live := tornSegment(t, s, "live", CountKey("live", 2, "w1"))

	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Corrupt != 1 || st.TornTails != 1 {
		t.Fatalf("Stat = %+v, want 3 intact / 1 corrupt / 1 torn tail", st)
	}
	if st.ByKind[KindExact] != 1 || st.ByKind[KindSampled] != 1 || st.ByKind[KindCount] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}

	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("List returned %d entries, want 4", len(entries))
	}
	if last := entries[len(entries)-1]; last.Err == nil {
		t.Errorf("List did not sort the corrupt entry last: %+v", last)
	}

	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedCorrupt != 1 || rep.RemovedTorn != 1 || rep.RemainingIntact != 3 {
		t.Errorf("GC = %+v", rep)
	}
	if rep.ReclaimedBytes == 0 {
		t.Error("GC reclaimed 0 bytes")
	}
	st, err = s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Corrupt != 0 || st.TornTails != 0 {
		t.Errorf("after GC: %+v", st)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("GC removed a live (fresh) torn tail: %v", err)
	}
	// The intact entries read back through the same handle, which must
	// follow them into the compacted segment.
	var r pipeline.Result
	if err := s.Get(ExactKey("cfg", "good", 2, "w1"), &r); err != nil || r.Cycles != 1 {
		t.Errorf("intact entry after GC: %+v, %v", r, err)
	}
	var c Count
	if err := s.Get(CountKey("good", 2, "w1"), &c); err != nil || c.Insts != 3 {
		t.Errorf("intact entry after GC: %+v, %v", c, err)
	}
}

func TestNamespacesDisjoint(t *testing.T) {
	s := openTemp(t)
	// Same coordinates under all four kinds plus two regimes: seven
	// distinct entries. A plan and a sampled estimate of the same
	// regime are different artifacts and must never share a slot.
	keys := []Key{
		ExactKey("cfg", "b", 1, "w1"),
		ExactKey("cfg", "b", 1, "w2"), // same benchmark, edited source
		SampledKey("cfg", "b", 1, "regimeA", "w1"),
		SampledKey("cfg", "b", 1, "regimeB", "w1"),
		CountKey("b", 1, "w1"),
		PlanKey("b", 1, "regimeA", "w1"),
		PlanKey("b", 1, "regimeB", "w1"),
	}
	for _, k := range keys {
		if err := s.Put(k, &Count{Insts: 9}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != len(keys) {
		t.Errorf("%d entries, want %d", st.Entries, len(keys))
	}
}
