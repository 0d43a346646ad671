package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Format is the on-disk envelope marker; a file that does not carry it
// is not a store entry.
const Format = "contopt-result-store"

// Version is the codec version this build reads and writes. Entries
// with a different version are treated as corrupt (skipped and
// resimulated); bump it when the envelope or payload schema changes
// incompatibly.
const Version = 1

// Entry kinds. Each kind is its own namespace: the kind participates
// in the entry address, so an exact result, a sampled estimate, and an
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

// addr derives the entry's content address: a hash of the canonical
// key string, NUL-separated so no field concatenation can alias.
func (k Key) addr() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("v1\x00%s\x00%s\x00%s\x00%d\x00%s\x00%s",
		k.Kind, k.ConfigKey, k.Benchmark, k.Scale, k.Workload, k.Sampling)))
	return hex.EncodeToString(sum[:16])
}

// ErrNotFound reports that no entry exists for the requested key.
var ErrNotFound = errors.New("store: entry not found")

// CorruptError reports an entry that exists but cannot be trusted:
// unreadable, wrong format or version, key mismatch, or checksum
// failure. Callers layering the store under a cache treat it as a
// miss; GC deletes such entries.
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

// envelope is the on-disk form of one entry: self-describing (format,
// version, the full key in clear) and self-checking (payload checksum).
type envelope struct {
	envelopeHead
	Payload json.RawMessage `json:"payload"`
}

// envelopeHead is every envelope field before the payload; Put
// marshals it alone and appends the payload (see encodeEntry).
type envelopeHead struct {
	Format   string `json:"format"`
	Version  int    `json:"version"`
	Key      Key    `json:"key"`
	Checksum string `json:"checksum"`
}

// Store is a content-addressed result store rooted at one directory.
// A Store is safe for concurrent use by multiple goroutines and
// multiple processes sharing the directory.
type Store struct {
	dir string
	fs  FS
}

// Open opens (creating if necessary) the store rooted at dir, on the
// real filesystem with fault points armed-but-idle (see FaultFS).
func Open(dir string) (*Store, error) {
	return OpenFS(dir, FaultFS(OSFS()))
}

// OpenFS opens the store rooted at dir on an explicit filesystem —
// the seam tests use to substitute or instrument I/O.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "entries"), 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns the entry file for k, sharded by the first address byte
// so large stores do not degenerate into one huge directory.
func (s *Store) path(k Key) string {
	a := k.addr()
	return filepath.Join(s.dir, "entries", a[:2], a+".json")
}

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
	path := s.path(k)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNotFound, k)
		}
		return fmt.Errorf("store: reading %s: %w", k, err)
	}
	env, err := decodeEnvelope(path, data, &k)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return &CorruptError{Path: path, Reason: "payload: " + err.Error()}
	}
	return nil
}

// decodeEnvelope parses and integrity-checks one entry file. want,
// when non-nil, additionally pins the stored key (an address collision
// or a hand-moved file fails here).
func decodeEnvelope(path string, data []byte, want *Key) (*envelope, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, &CorruptError{Path: path, Reason: "envelope: " + err.Error()}
	}
	if env.Format != Format {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("format %q, want %q", env.Format, Format)}
	}
	if env.Version != Version {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("codec version %d, this build reads %d", env.Version, Version)}
	}
	if want != nil && env.Key != *want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("key mismatch: entry holds %s", env.Key)}
	}
	if err := env.Key.Validate(); err != nil {
		return nil, &CorruptError{Path: path, Reason: err.Error()}
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.Checksum {
		return nil, &CorruptError{Path: path, Reason: "payload checksum mismatch"}
	}
	return &env, nil
}

// Put persists v (the payload struct for k's kind) under k, atomically:
// the entry is written to a temporary file and renamed into place, so
// readers and a crash mid-write only ever observe complete entries.
// Putting an existing key overwrites it — the simulator is
// deterministic, so rewrites are idempotent and also heal corruption.
func (s *Store) Put(k Key, v any) error {
	if err := k.Validate(); err != nil {
		return err
	}
	data, err := encodeEntry(k, v)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", k, err)
	}

	path := s.path(k)
	dir := filepath.Dir(path)
	tmp, err := s.fs.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		// The first entry of its fan-out directory: create the
		// directory and try once more.
		if err := s.fs.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("store: writing %s: %w", k, err)
		}
		tmp, err = s.fs.CreateTemp(dir, ".tmp-*")
	}
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	defer s.fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: writing %s: %w", k, err)
	}
	return nil
}

// encodeEntry renders the entry file for v under k: exactly the bytes
// json.Marshal gives for the whole envelope. The head is marshaled on
// its own and v's JSON appended as the payload. Marshaling the
// envelope with the payload as a json.RawMessage would validate and
// compact it a second time, although json.Marshal already made it
// compact — a second full scan, costly for large plans.
func encodeEntry(k Key, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	head, err := json.Marshal(envelopeHead{
		Format:   Format,
		Version:  Version,
		Key:      k,
		Checksum: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return nil, err
	}
	const field = `,"payload":`
	data := make([]byte, 0, len(head)+len(field)+len(payload))
	data = append(data, head[:len(head)-1]...) // drop the closing brace
	data = append(data, field...)
	data = append(data, payload...)
	return append(data, '}'), nil
}

// Count is the KindCount payload: a benchmark's dynamic instruction
// count at one scale, as established by the architectural emulator.
type Count struct {
	Insts uint64 `json:"insts"`
}

// Entry describes one stored entry as List found it.
type Entry struct {
	// Key identifies the entry (zero-valued when the entry is corrupt
	// beyond recovering its key).
	Key Key
	// Path, Size and ModTime describe the entry file.
	Path    string
	Size    int64
	ModTime time.Time
	// Err is non-nil when the entry failed its integrity check; the
	// entry is then a GC candidate, not a usable result.
	Err error
}

// List walks the store and integrity-checks every entry, returning
// them in stable key order (corrupt entries last, by path). Abandoned
// temporary files are not listed; GC removes them.
func (s *Store) List() ([]Entry, error) {
	var out []Entry
	err := s.walk(func(path string, info fs.FileInfo) {
		e := Entry{Path: path, Size: info.Size(), ModTime: info.ModTime()}
		data, err := s.fs.ReadFile(path)
		if err != nil {
			e.Err = err
		} else if env, derr := decodeEnvelope(path, data, nil); derr != nil {
			e.Err = derr
		} else {
			e.Key = env.Key
		}
		out = append(out, e)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].Err == nil) != (out[j].Err == nil) {
			return out[i].Err == nil
		}
		if a, b := out[i].Key.String(), out[j].Key.String(); a != b {
			return a < b
		}
		return out[i].Path < out[j].Path
	})
	return out, nil
}

// walk visits every entry file (not temp files) under entries/.
func (s *Store) walk(fn func(path string, info fs.FileInfo)) error {
	root := filepath.Join(s.dir, "entries")
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		fn(path, info)
		return nil
	})
}

// Info is an aggregate snapshot of the store, as reported by Stat.
type Info struct {
	// Entries counts intact entries; ByKind breaks them down.
	Entries int
	ByKind  map[string]int
	// Corrupt counts entries that failed their integrity check and
	// TempFiles abandoned temporary files; GC removes both.
	Corrupt   int
	TempFiles int
	// Bytes is the total size of all entry files, intact or not.
	Bytes int64
}

// Stat summarizes the store without returning per-entry detail.
func (s *Store) Stat() (Info, error) {
	info := Info{ByKind: map[string]int{}}
	entries, err := s.List()
	if err != nil {
		return info, err
	}
	for _, e := range entries {
		info.Bytes += e.Size
		if e.Err != nil {
			info.Corrupt++
			continue
		}
		info.Entries++
		info.ByKind[e.Key.Kind]++
	}
	info.TempFiles = len(s.tempFiles())
	return info, nil
}

// tempMaxAge separates abandoned temp files from live ones: a healthy
// Put holds its temp file for milliseconds, so anything older than
// this was orphaned by a crash. Stat and GC ignore younger temp files
// — removing one under a concurrent writer in another process would
// fail that writer's rename and silently cost it durability.
const tempMaxAge = time.Hour

// tempFiles returns abandoned temporary files: .tmp-* files older than
// tempMaxAge (a crash between CreateTemp and Rename leaves one behind;
// younger ones may belong to a live writer and are left alone).
func (s *Store) tempFiles() []string {
	var out []string
	cutoff := time.Now().Add(-tempMaxAge)
	filepath.WalkDir(filepath.Join(s.dir, "entries"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		if info, err := d.Info(); err == nil && info.ModTime().Before(cutoff) {
			out = append(out, path)
		}
		return nil
	})
	return out
}

// GCReport says what GC removed.
type GCReport struct {
	RemovedCorrupt  int
	RemovedTemp     int
	ReclaimedBytes  int64
	RemainingIntact int
}

// GC deletes corrupt entries and abandoned temporary files, returning
// what it reclaimed. Intact entries are never touched — the store has
// no expiry; delete the directory to drop it wholesale.
func (s *Store) GC() (GCReport, error) {
	var rep GCReport
	entries, err := s.List()
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		if e.Err == nil {
			rep.RemainingIntact++
			continue
		}
		// Delete only entries proven corrupt by their content. A read
		// that failed with transient pressure (EIO under load) or a
		// permission problem is not evidence the entry is bad — deleting
		// on it would let a flaky disk eat intact results.
		if Classify(e.Err) != ClassCorrupt {
			continue
		}
		if err := s.fs.Remove(e.Path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return rep, fmt.Errorf("store: gc: %w", err)
		}
		rep.RemovedCorrupt++
		rep.ReclaimedBytes += e.Size
	}
	for _, path := range s.tempFiles() {
		info, err := s.fs.Stat(path)
		if err == nil {
			rep.ReclaimedBytes += info.Size()
		}
		if err := s.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return rep, fmt.Errorf("store: gc: %w", err)
		}
		rep.RemovedTemp++
	}
	return rep, nil
}

// Probe checks whether the store's directory is writable again: one
// temp-file create/write/remove round trip through the same fault-
// instrumented seam as real writes. The engine's degraded mode calls
// this periodically to decide when to re-attach — a probe that fails
// under ENOSPC keeps the store detached instead of flapping.
func (s *Store) Probe() error {
	dir := filepath.Join(s.dir, "entries")
	tmp, err := s.fs.CreateTemp(dir, ".tmp-probe-*")
	if err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	name := tmp.Name()
	_, werr := tmp.Write([]byte(Format))
	cerr := tmp.Close()
	s.fs.Remove(name)
	if werr != nil {
		return fmt.Errorf("store: probe: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("store: probe: %w", cerr)
	}
	return nil
}

// Quarantine moves every corrupt entry into quarantine/ under the
// store root — outside the entries tree, so nothing re-reads, re-lists
// or GCs the evidence — and returns how many it moved. Intact entries
// are never touched.
func (s *Store) Quarantine() (int, error) {
	entries, err := s.List()
	if err != nil {
		return 0, err
	}
	moved := 0
	qdir := filepath.Join(s.dir, "quarantine")
	for _, e := range entries {
		// Move only proven-corrupt entries, same standard as GC.
		if Classify(e.Err) != ClassCorrupt {
			continue
		}
		if moved == 0 {
			if err := s.fs.MkdirAll(qdir, 0o755); err != nil {
				return moved, fmt.Errorf("store: quarantine: %w", err)
			}
		}
		dst := filepath.Join(qdir, filepath.Base(e.Path))
		if err := s.fs.Rename(e.Path, dst); err != nil {
			return moved, fmt.Errorf("store: quarantine: %w", err)
		}
		moved++
	}
	return moved, nil
}
