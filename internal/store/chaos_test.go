package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{nil, ClassNone},
		{ErrNotFound, ClassNotFound},
		{fmt.Errorf("wrapped: %w", ErrNotFound), ClassNotFound},
		{os.ErrNotExist, ClassNotFound},
		{&CorruptError{Path: "p", Reason: "r"}, ClassCorrupt},
		{fmt.Errorf("wrapped: %w", &CorruptError{Path: "p", Reason: "r"}), ClassCorrupt},
		{syscall.EIO, ClassTransient},
		{syscall.ENOSPC, ClassTransient},
		{syscall.EMFILE, ClassTransient},
		{fmt.Errorf("store: reading k: %w", syscall.EIO), ClassTransient},
		{&fault.Error{Point: "store.read", Err: syscall.ENOSPC}, ClassTransient},
		{fault.ErrInjected, ClassTransient},
		{syscall.EACCES, ClassFatal},
		{syscall.EROFS, ClassFatal},
		{errors.New("mystery"), ClassFatal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestFaultPointsThroughSeam(t *testing.T) {
	defer fault.Reset()
	s := openTemp(t)
	key := CountKey("mcf", 1, "w1")
	if err := s.Put(key, &Count{Insts: 7}); err != nil {
		t.Fatal(err)
	}

	if err := fault.Enable("store.read:err=EIO:nth=1"); err != nil {
		t.Fatal(err)
	}
	var got Count
	err := s.Get(key, &got)
	if Classify(err) != ClassTransient {
		t.Fatalf("Get under EIO: err=%v class=%s, want transient", err, Classify(err))
	}
	// The fault fired once; the entry itself is intact.
	if err := s.Get(key, &got); err != nil || got.Insts != 7 {
		t.Fatalf("Get after fault cleared: %v, %+v", err, got)
	}

	fault.Reset()
	if err := fault.Enable("store.write:err=ENOSPC:nth=2"); err != nil {
		t.Fatal(err)
	}
	// The handle's segment exists, so the append's Write is call 1 and
	// nth=2 lands the ENOSPC on its Sync: the record is all written but
	// not durable, and the failed Put must take it back.
	err = s.Put(CountKey("vpr", 1, "w1"), &Count{Insts: 9})
	if !errors.Is(err, syscall.ENOSPC) || Classify(err) != ClassTransient {
		t.Fatalf("Put under ENOSPC: err=%v class=%s", err, Classify(err))
	}
	// The failed Put must not leave a readable entry behind.
	if err := s.Get(CountKey("vpr", 1, "w1"), &got); Classify(err) != ClassNotFound {
		t.Fatalf("entry visible after failed Put: %v", err)
	}
}

func TestProbe(t *testing.T) {
	defer fault.Reset()
	s := openTemp(t)
	if err := s.Probe(); err != nil {
		t.Fatalf("probe on healthy store: %v", err)
	}
	if err := fault.Enable("store.write:err=ENOSPC"); err != nil {
		t.Fatal(err)
	}
	if err := s.Probe(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("probe under ENOSPC: %v", err)
	}
	fault.Reset()
	if err := s.Probe(); err != nil {
		t.Fatalf("probe after faults cleared: %v", err)
	}
	// Probes must not leave files for Stat/GC to chew on.
	names, err := os.ReadDir(s.segDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("probe left residue: %v", names)
	}
}

func TestQuarantine(t *testing.T) {
	s := openTemp(t)
	good := CountKey("mcf", 1, "w1")
	bad := CountKey("vpr", 1, "w1")
	if err := s.Put(good, &Count{Insts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bad, &Count{Insts: 2}); err != nil {
		t.Fatal(err)
	}
	corruptPayload(t, s, bad)

	moved, err := s.Quarantine()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved %d entries, want 1", moved)
	}
	// The corrupt entry is out of the segments: reads miss, List is
	// clean, and the evidence sits under quarantine/.
	var got Count
	if err := s.Get(bad, &got); Classify(err) != ClassNotFound {
		t.Fatalf("quarantined entry still resolves: %v", err)
	}
	if err := s.Get(good, &got); err != nil || got.Insts != 1 {
		t.Fatalf("intact entry harmed: %v, %+v", err, got)
	}
	info, err := s.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.Corrupt != 0 || info.Entries != 1 {
		t.Fatalf("after quarantine: %+v", info)
	}
	qfiles, err := filepath.Glob(filepath.Join(s.Dir(), "quarantine", "*"))
	if err != nil || len(qfiles) != 1 {
		t.Fatalf("quarantine dir holds %v (err %v), want 1 file", qfiles, err)
	}

	// Idempotent: nothing left to move.
	if moved, err = s.Quarantine(); err != nil || moved != 0 {
		t.Fatalf("second quarantine: moved=%d err=%v", moved, err)
	}
}

func TestGCSparesUnreadableEntries(t *testing.T) {
	defer fault.Reset()
	s := openTemp(t)
	key := CountKey("mcf", 1, "w1")
	if err := s.Put(key, &Count{Insts: 7}); err != nil {
		t.Fatal(err)
	}
	// Every read fails with EIO: GC's integrity pass cannot read the
	// entry — which is pressure, not proof of corruption.
	if err := fault.Enable("store.read:err=EIO"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemovedCorrupt != 0 {
		t.Fatalf("gc deleted %d entries it merely failed to read", rep.RemovedCorrupt)
	}
	fault.Reset()
	var got Count
	if err := s.Get(key, &got); err != nil || got.Insts != 7 {
		t.Fatalf("entry lost to gc under transient faults: %v", err)
	}
}

// TestGCConcurrentWithTrafficUnderFaults drives writers, readers and a
// GC loop over one store while seeded transient faults hit the read and
// write paths. The invariants: a reader never observes a torn or wrong
// value (a record is checked whole or not served), a key that has been
// written stays readable forever (GC must not eat live entries, even
// when it cannot read them or compacts the segment a writer appends
// to), and a live writer's young torn tail survives GC.
func TestGCConcurrentWithTrafficUnderFaults(t *testing.T) {
	defer fault.Reset()
	s := openTemp(t)
	if err := fault.Enable("store.read:err=EIO:p=0.05:seed=11; store.write:err=ENOSPC:p=0.05:seed=13"); err != nil {
		t.Fatal(err)
	}

	// A young torn tail stands in for a live writer in another process;
	// the grace window must keep every GC pass off it.
	liveTorn := tornSegment(t, s, "live-writer", CountKey("elsewhere", 1, "w1"))
	liveBytes, err := os.ReadFile(liveTorn)
	if err != nil {
		t.Fatal(err)
	}

	const keys = 8
	keyOf := func(i int) Key { return CountKey(fmt.Sprintf("bench%d", i), 1, "w1") }
	wantOf := func(i int) uint64 { return uint64(100 + i) }

	var written [keys]atomic.Bool
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i + w) % keys
				if err := s.Put(keyOf(k), &Count{Insts: wantOf(k)}); err == nil {
					written[k].Store(true)
				} else if Classify(err) != ClassTransient {
					t.Errorf("writer: non-transient Put failure: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i + r) % keys
				known := written[k].Load()
				var got Count
				err := s.Get(keyOf(k), &got)
				switch Classify(err) {
				case ClassNone:
					if got.Insts != wantOf(k) {
						t.Errorf("reader: key %d holds %d, want %d (torn read?)", k, got.Insts, wantOf(k))
						return
					}
				case ClassTransient:
					// Injected pressure; retry next loop.
				case ClassNotFound:
					if known {
						t.Errorf("reader: key %d vanished after a successful Put", k)
						return
					}
				default:
					t.Errorf("reader: key %d: %v", k, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.GC(); err != nil && Classify(err) != ClassTransient {
				t.Errorf("gc: %v", err)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if data, err := os.ReadFile(liveTorn); err != nil || !bytes.Equal(data, liveBytes) {
		t.Fatalf("gc touched a young torn tail inside the grace window: %v", err)
	}
	fault.Reset()
	for k := 0; k < keys; k++ {
		if !written[k].Load() {
			continue
		}
		var got Count
		if err := s.Get(keyOf(k), &got); err != nil || got.Insts != wantOf(k) {
			t.Fatalf("after the dust settles, key %d: %v %+v", k, err, got)
		}
	}
}
