package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// Version is the codec version this build reads and writes. Entries
// with a different version are treated as corrupt (skipped and
// resimulated); bump it when the record head or payload schema changes
// incompatibly.
const Version = 1

// Entry kinds. Each kind is its own namespace: the kind is part of
// every Key, so an exact result, a sampled estimate, and an
// instruction count of the same benchmark can never collide.
const (
	KindExact   = "exact"
	KindSampled = "sampled"
	KindCount   = "count"
	// KindPlan entries hold sampled-run window plans (sample.Plan:
	// checkpoints + window schedule). Plans are config-independent —
	// one entry per (benchmark, scale, sampling regime, workload hash)
	// serves every machine configuration — and carry their own codec
	// version inside the payload, so a plan from an incompatible build
	// reads as corrupt (a miss) and is rebuilt, never misapplied.
	KindPlan = "plan"
)

// Key is the canonical identity of one stored result. It is also the
// experiment engine's in-memory memo key, which is what makes the
// store a drop-in durable layer below the in-memory cache.
type Key struct {
	// Kind is the entry's namespace: KindExact, KindSampled, KindCount
	// or KindPlan.
	Kind string `json:"kind"`
	// ConfigKey is pipeline.Config.Key() of the simulated machine —
	// empty for KindCount, whose value is machine-independent.
	ConfigKey string `json:"config_key,omitempty"`
	// Benchmark and Scale identify the workload (Scale is the effective
	// scale, never 0).
	Benchmark string `json:"benchmark"`
	Scale     int    `json:"scale"`
	// Workload is a content hash of the benchmark's generated source at
	// Scale. The name alone does not identify the work: kernels are
	// code, and editing one must invalidate its stored results rather
	// than silently serve stale ones to every later process. (Changes
	// to the simulator itself are not captured by any key field — after
	// a timing-model change, bump Version or drop the store directory.)
	Workload string `json:"workload"`
	// Sampling is sample.Config.Key() of the regime — KindSampled and
	// KindPlan only.
	Sampling string `json:"sampling,omitempty"`
}

// ExactKey builds the Key of a cycle-exact pipeline.Result.
func ExactKey(configKey, benchmark string, scale int, workload string) Key {
	return Key{Kind: KindExact, ConfigKey: configKey, Benchmark: benchmark, Scale: scale, Workload: workload}
}

// SampledKey builds the Key of a sample.Result estimate under the
// given sampling-regime key.
func SampledKey(configKey, benchmark string, scale int, sampling, workload string) Key {
	return Key{Kind: KindSampled, ConfigKey: configKey, Benchmark: benchmark, Scale: scale, Sampling: sampling, Workload: workload}
}

// CountKey builds the Key of a benchmark's dynamic instruction count.
func CountKey(benchmark string, scale int, workload string) Key {
	return Key{Kind: KindCount, Benchmark: benchmark, Scale: scale, Workload: workload}
}

// PlanKey builds the Key of a sampled-run window plan under the given
// sampling-regime key. Plans carry no config key: the window schedule
// and its checkpoints are machine-independent, which is exactly why one
// stored plan serves every configuration of a sweep — across processes.
func PlanKey(benchmark string, scale int, sampling, workload string) Key {
	return Key{Kind: KindPlan, Benchmark: benchmark, Scale: scale, Sampling: sampling, Workload: workload}
}

// Validate rejects keys that cannot address an entry.
func (k Key) Validate() error {
	switch k.Kind {
	case KindExact:
		if k.ConfigKey == "" {
			return fmt.Errorf("store: exact key needs a config key")
		}
		if k.Sampling != "" {
			return fmt.Errorf("store: exact key must not carry a sampling regime")
		}
	case KindSampled:
		if k.ConfigKey == "" || k.Sampling == "" {
			return fmt.Errorf("store: sampled key needs a config key and a sampling regime")
		}
	case KindCount:
		if k.ConfigKey != "" || k.Sampling != "" {
			return fmt.Errorf("store: count key must not carry a config key or sampling regime")
		}
	case KindPlan:
		if k.Sampling == "" {
			return fmt.Errorf("store: plan key needs a sampling regime")
		}
		if k.ConfigKey != "" {
			return fmt.Errorf("store: plan key must not carry a config key (plans are config-independent)")
		}
	default:
		return fmt.Errorf("store: unknown entry kind %q", k.Kind)
	}
	if k.Benchmark == "" {
		return fmt.Errorf("store: key needs a benchmark name")
	}
	if k.Scale <= 0 {
		return fmt.Errorf("store: key scale %d must be positive (resolve the effective scale first)", k.Scale)
	}
	if k.Workload == "" {
		return fmt.Errorf("store: key needs a workload content hash")
	}
	return nil
}

// String renders the key in its canonical human-readable form, also
// used for stable List ordering.
func (k Key) String() string {
	s := fmt.Sprintf("%s %s@%d", k.Kind, k.Benchmark, k.Scale)
	if k.ConfigKey != "" {
		s += " cfg=" + k.ConfigKey
	}
	if k.Workload != "" {
		s += " src=" + k.Workload
	}
	if k.Sampling != "" {
		s += " regime=" + k.Sampling
	}
	return s
}

// ErrNotFound reports that no entry exists for the requested key.
var ErrNotFound = errors.New("store: entry not found")

// CorruptError reports an entry that exists but cannot be trusted: a
// damaged frame or head, a wrong version, a key mismatch, or a checksum
// failure. Callers layering the store under a cache treat it as a miss;
// GC deletes such entries.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt entry %s: %s", e.Path, e.Reason)
}

// IsCorrupt reports whether err is (or wraps) a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Store is a content-addressed result store rooted at one directory.
// A Store is safe for concurrent use by multiple goroutines and
// multiple processes sharing the directory.
//
// Each handle appends to a segment of its own, created by its first
// Put, and finds records through an in-memory index of every segment's
// record heads (see segment.go).
type Store struct {
	dir string

	// wmu serializes this handle's appends; w is its segment, nil until
	// the first Put and after a failed append drops it.
	wmu sync.Mutex
	w   *writer

	// scanMu serializes index refreshes. mu guards index, segs and own.
	scanMu sync.Mutex
	mu     sync.Mutex
	index  map[Key]loc
	segs   map[string]*segment
	own    *segment
}

// Open opens (creating if necessary) the store rooted at dir and
// indexes the records already there.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	s := &Store{dir: dir, index: map[Key]loc{}, segs: map[string]*segment{}}
	if err := os.MkdirAll(s.segDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	// A segment that cannot be read now is scanned again on the first
	// miss, so a read failure here costs hits, not the open.
	_ = s.refresh(false)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// segDir is the directory holding the segments.
func (s *Store) segDir() string { return filepath.Join(s.dir, "segments") }

// Get reads the entry for k into out (a pointer to the payload type —
// *pipeline.Result for KindExact, *sample.Result for KindSampled,
// *Count for KindCount). It returns ErrNotFound when no entry exists
// and a *CorruptError when one exists but cannot be trusted; both are
// cache misses to a layering caller, never fatal. Any other error is
// real I/O trouble, reported with its cause intact so Classify can
// separate transient pressure from misconfiguration.
func (s *Store) Get(k Key, out any) error {
	if err := k.Validate(); err != nil {
		return err
	}
	rec, where, err := s.read(k)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotFound, k)
	}
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", k, err)
	}
	payload, err := checkRecord(rec, where, &k)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return &CorruptError{Path: where, Reason: "payload: " + err.Error()}
	}
	return nil
}

// read returns k's whole record and where it lies. A key the index
// lacks may have been appended by another handle or process since the
// last scan, so a miss rescans before reporting fs.ErrNotExist; a
// record whose segment was compacted away or cut back (errStale) is
// looked up again after a rescan of every segment.
func (s *Store) read(k Key) ([]byte, string, error) {
	for round := 0; round < maxRounds; round++ {
		l, ok := s.lookup(k)
		if !ok {
			var err error
			if l, ok, err = s.lookupFresh(k); !ok {
				if err != nil {
					return nil, "", err
				}
				return nil, "", fs.ErrNotExist
			}
		}
		data, where, err := s.readRecord(l)
		if !errors.Is(err, errStale) {
			return data, where, err
		}
		if err := s.refresh(true); err != nil {
			return nil, "", err
		}
	}
	return nil, "", errChurn
}

// lookupFresh refreshes the index and looks k up before letting go of
// scanMu: a refresh that resets the index empties it until its rescan
// is done.
func (s *Store) lookupFresh(k Key) (loc, bool, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	err := s.refreshLocked(false)
	l, ok := s.lookup(k)
	return l, ok, err
}

func (s *Store) lookup(k Key) (loc, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[k]
	return l, ok
}

// Put persists v (the payload struct for k's kind) under k: one record
// appended to the handle's segment and fsynced before Put returns, so a
// result is durable before anyone waiting on it wakes. Putting an
// existing key appends a newer record that supersedes the old one — the
// simulator is deterministic, so rewrites are idempotent and also heal
// corruption; GC reclaims superseded records.
func (s *Store) Put(k Key, v any) error {
	if err := k.Validate(); err != nil {
		return err
	}
	rec, err := encodeRecord(k, v)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", k, err)
	}
	if err := s.append(k, rec); err != nil {
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	return nil
}

// encodeRecord renders v under k as one framed segment record (see
// segment.go). A json.Marshaler's payload is its MarshalJSON output as
// is: json.Marshal would validate and compact it a second time, a full
// scan that is costly for large plans.
func encodeRecord(k Key, v any) ([]byte, error) {
	var payload []byte
	var err error
	if m, ok := v.(json.Marshaler); ok {
		payload, err = m.MarshalJSON()
	} else {
		payload, err = json.Marshal(v)
	}
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	head, err := json.Marshal(recordHead{Version: Version, Key: k, SHA256: hex.EncodeToString(sum[:])})
	if err != nil {
		return nil, err
	}
	if len(head) > maxHead || len(payload) > maxPayload {
		return nil, fmt.Errorf("record of %d+%d bytes exceeds the record limits", len(head), len(payload))
	}
	return frameRecord(head, payload), nil
}

// Count is the KindCount payload: a benchmark's dynamic instruction
// count at one scale, as established by the architectural emulator.
type Count struct {
	Insts uint64 `json:"insts"`
}
