package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Entry describes one stored entry as List found it.
type Entry struct {
	// Key identifies the entry (zero-valued when the entry is corrupt
	// beyond recovering its key).
	Key Key
	// Path is the segment holding the record, Offset and Size the
	// record's place in it, ModTime the segment's.
	Path    string
	Offset  int64
	Size    int64
	ModTime time.Time
	// Err is non-nil when the entry failed its integrity check; the
	// entry is then a GC candidate, not a usable result.
	Err error
}

// tempMaxAge separates abandoned torn tails from live appends: a healthy
// Put completes its append in milliseconds, so a segment that has ended
// inside a record for longer than this was cut off by a crash. Stat and
// GC leave younger torn tails alone — the record may still be arriving.
const tempMaxAge = time.Hour

// segFile is one segment as a whole read found it.
type segFile struct {
	name string
	path string
	info os.FileInfo
	f    *file // open and locked while GC holds it; nil otherwise
	data []byte
	recs []record
	torn bool  // the segment ends inside a record
	err  error // the segment could not be read
}

// record is one record of a segFile, integrity-checked.
type record struct {
	off, n int64
	key    Key
	hasKey bool
	err    error // nil when intact
}

// stale reports whether a segment's torn tail (or emptiness) has
// outlived any append that could still be in flight.
func (f *segFile) stale(now time.Time) bool {
	return f.info.ModTime().Before(now.Add(-tempMaxAge))
}

// parse splits f.data into records and checks each in full, as Get
// does (see checkRecord).
func (f *segFile) parse() {
	size := int64(len(f.data))
	r := bytes.NewReader(f.data)
	var buf []byte
	for off := int64(0); off < size; {
		fr, b, err := readFrame(r, f.path, off, size, buf)
		buf = b
		if errors.Is(err, errTorn) {
			f.torn = true
			return
		}
		if err != nil { // a damaged frame: the rest is one corrupt region
			f.recs = append(f.recs, record{off: off, n: size - off, err: err})
			return
		}
		rec := record{off: off, n: fr.n, err: fr.headErr}
		if fr.headErr == nil {
			rec.key, rec.hasKey = fr.head.Key, true
			_, rec.err = checkRecord(f.data[off:off+fr.n], fmt.Sprintf("%s@%d", f.path, off), nil)
		}
		f.recs = append(f.recs, rec)
		off += fr.n
	}
}

// survey is a whole read of every segment: each record checked, and for
// each key the record that answers for it chosen.
type survey struct {
	segs []*segFile
	// chosen maps each key to its latest intact record, or, when none
	// is intact, to its latest record (which List reports corrupt).
	chosen map[Key]*record
}

// survey reads every segment. With lock set it takes each segment's
// lock first and leaves the locked ones open for GC; segments it cannot
// lock are read all the same. The directory is listed directly, outside
// the fault points: injected read failures land on the segments' data,
// which is what List, Stat and GC must survive.
func (s *Store) survey(lock bool) (*survey, error) {
	ents, err := os.ReadDir(s.segDir())
	if err != nil {
		return nil, fmt.Errorf("store: listing segments: %w", err)
	}
	sv := &survey{chosen: map[Key]*record{}}
	for _, e := range ents { // ReadDir sorts by name: oldest segment first
		if !isSegment(e.Name()) {
			continue
		}
		sf := &segFile{name: e.Name(), path: filepath.Join(s.segDir(), e.Name())}
		f, err := openFile(sf.path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // compacted away since the directory read
		}
		if err == nil {
			err = sf.load(f, lock)
		}
		sf.err = err
		sv.segs = append(sv.segs, sf)
		for i := range sf.recs {
			r := &sf.recs[i]
			if !r.hasKey {
				continue
			}
			if prev, ok := sv.chosen[r.key]; !ok || r.err == nil || prev.err != nil {
				sv.chosen[r.key] = r
			}
		}
	}
	return sv, nil
}

// load reads and parses an open segment, keeping f open when it took
// the segment's lock.
func (sf *segFile) load(f *file, lock bool) error {
	if lock {
		switch err := f.lock(false); {
		case err == nil:
			sf.f = f
		case !errors.Is(err, errBusy):
			f.Close()
			return err
		}
	}
	if sf.f == nil {
		defer f.Close()
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	sf.info = info
	sf.data = make([]byte, info.Size())
	if n, err := f.ReadAt(sf.data, 0); err != nil && n < len(sf.data) {
		return err
	}
	sf.parse()
	return nil
}

// release closes every segment the survey holds open.
func (sv *survey) release() {
	for _, sf := range sv.segs {
		if sf.f != nil {
			sf.f.Close()
			sf.f = nil
		}
	}
}

// List reads every segment and integrity-checks every record, returning
// one entry per key — its latest intact record, or its latest record
// when none is intact — plus each corrupt record whose key is lost, in
// stable key order (corrupt entries last, by path and offset). A
// segment that cannot be read is listed as one entry carrying the read
// error. Superseded records and torn tails are not listed; Stat counts
// them and GC removes them.
func (s *Store) List() ([]Entry, error) {
	sv, err := s.survey(false)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, sf := range sv.segs {
		if sf.err != nil {
			e := Entry{Path: sf.path, Err: sf.err}
			if sf.info != nil {
				e.Size, e.ModTime = sf.info.Size(), sf.info.ModTime()
			}
			out = append(out, e)
			continue
		}
		for i := range sf.recs {
			r := &sf.recs[i]
			if r.hasKey && sv.chosen[r.key] != r {
				continue // superseded
			}
			out = append(out, Entry{Key: r.key, Path: sf.path, Offset: r.off, Size: r.n, ModTime: sf.info.ModTime(), Err: r.err})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].Err == nil) != (out[j].Err == nil) {
			return out[i].Err == nil
		}
		if a, b := out[i].Key.String(), out[j].Key.String(); a != b {
			return a < b
		}
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Offset < out[j].Offset
	})
	return out, nil
}

// Info is an aggregate snapshot of the store, as reported by Stat.
type Info struct {
	// Entries counts intact entries; ByKind breaks them down.
	Entries int
	ByKind  map[string]int
	// Corrupt counts entries that failed their integrity check.
	Corrupt int
	// Superseded counts records a later record of the same key
	// replaced, TornTails segments that have ended inside a record for
	// longer than a live append takes, and Legacy the files of the
	// pre-segment entries/ layout, which this build does not read. GC
	// removes all three.
	Superseded int
	TornTails  int
	Legacy     int
	// Segments counts segment files and Bytes their total size.
	Segments int
	Bytes    int64
}

// Stat summarizes the store without returning per-entry detail.
func (s *Store) Stat() (Info, error) {
	info := Info{ByKind: map[string]int{}}
	sv, err := s.survey(false)
	if err != nil {
		return info, err
	}
	now := time.Now()
	for _, sf := range sv.segs {
		info.Segments++
		if sf.err != nil {
			continue // unreadable now, which proves nothing about its content
		}
		info.Bytes += sf.info.Size()
		if sf.torn && sf.stale(now) {
			info.TornTails++
		}
		for i := range sf.recs {
			r := &sf.recs[i]
			switch {
			case r.hasKey && sv.chosen[r.key] != r:
				info.Superseded++
			case r.err != nil:
				info.Corrupt++
			default:
				info.Entries++
				info.ByKind[r.key.Kind]++
			}
		}
	}
	info.Legacy, _ = s.legacyFiles()
	return info, nil
}

// legacyFiles counts the files of the pre-segment layout (one file per
// entry under entries/) and their bytes.
func (s *Store) legacyFiles() (n int, size int64) {
	filepath.WalkDir(filepath.Join(s.dir, "entries"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
			if info, err := d.Info(); err == nil {
				size += info.Size()
			}
		}
		return nil
	})
	return n, size
}

// GCReport says what GC removed.
type GCReport struct {
	RemovedCorrupt    int
	RemovedSuperseded int
	RemovedTorn       int
	RemovedLegacy     int
	ReclaimedBytes    int64
	RemainingIntact   int
}

// GC compacts the store: the latest intact record of every key in the
// segments it can lock is copied into one fresh segment, and those
// segments are removed — dropping corrupt and superseded records and
// torn tails older than tempMaxAge. It also removes the pre-segment
// entries/ tree. Intact entries are never lost — the store has no
// expiry; delete the directory to drop it wholesale.
//
// GC leaves alone a segment another handle is appending to (its lock
// is held), one with a torn tail younger than tempMaxAge (an append
// may be in flight), one it could not read (pressure is not proof of
// corruption), and one younger than tempMaxAge that is still empty.
func (s *Store) GC() (GCReport, error) {
	rep, err := s.compact(false)
	if err != nil {
		return rep, err
	}
	if n, size := s.legacyFiles(); n > 0 {
		if err := removeAll(filepath.Join(s.dir, "entries")); err != nil {
			return rep, fmt.Errorf("store: gc: %w", err)
		}
		rep.RemovedLegacy, rep.ReclaimedBytes = n, rep.ReclaimedBytes+size
	}
	return rep, nil
}

// Quarantine moves every corrupt entry into quarantine/ under the store
// root — the record's bytes saved to a file of its own, outside the
// segments, so nothing re-reads, re-lists or GCs the evidence; the
// segments holding them are then compacted as GC does — and returns how
// many it moved. Intact entries are never lost.
func (s *Store) Quarantine() (int, error) {
	rep, err := s.compact(true)
	return rep.RemovedCorrupt, err
}

// compact is GC's segment pass; with quarantine set it saves each
// corrupt record under quarantine/ first and compacts only when there
// is a corrupt record to remove.
func (s *Store) compact(quarantine bool) (GCReport, error) {
	var rep GCReport
	sv, err := s.survey(true)
	if err != nil {
		return rep, err
	}
	defer sv.release()
	for _, r := range sv.chosen {
		if r.err == nil {
			rep.RemainingIntact++
		}
	}

	// The segments to rewrite, and what makes rewriting worth it. Only
	// records of segments GC holds decide what is kept: a segment it
	// could not lock may be mid-append, and a record read from it may
	// yet be cut back by a failed Put.
	now := time.Now()
	var victims []*segFile
	keep := map[Key]*record{}
	for _, sf := range sv.segs {
		if sf.f == nil || sf.err != nil || (sf.torn || len(sf.data) == 0) && !sf.stale(now) {
			continue
		}
		victims = append(victims, sf)
		for i := range sf.recs {
			if r := &sf.recs[i]; r.err == nil {
				keep[r.key] = r
			}
		}
	}
	empty := 0
	for _, sf := range victims {
		switch {
		case sf.torn:
			rep.RemovedTorn++
		case len(sf.data) == 0:
			empty++
		}
		for i := range sf.recs {
			switch r := &sf.recs[i]; {
			case r.err == nil && keep[r.key] != r, r.err != nil && r.hasKey && sv.chosen[r.key] != r:
				rep.RemovedSuperseded++
			case r.err != nil:
				// Only content proves corruption; every parse failure is
				// a *CorruptError, so this holds for each one.
				rep.RemovedCorrupt++
			}
		}
	}
	dirty := rep.RemovedCorrupt > 0
	if !quarantine {
		dirty = dirty || len(victims) > 1 || rep.RemovedSuperseded+rep.RemovedTorn+empty > 0
	}
	if !dirty {
		return GCReport{RemainingIntact: rep.RemainingIntact}, nil
	}
	if quarantine {
		if err := s.saveCorrupt(sv, victims); err != nil {
			return GCReport{RemainingIntact: rep.RemainingIntact}, err
		}
	}

	// Copy the keepers into a fresh segment, make it durable, and only
	// then remove the victims: a crash in between leaves duplicates,
	// which the next GC drops, never a loss.
	var kept []byte
	for _, sf := range victims {
		rep.ReclaimedBytes += int64(len(sf.data))
		for i := range sf.recs {
			r := &sf.recs[i]
			if r.err == nil && keep[r.key] == r {
				kept = append(kept, sf.data[r.off:r.off+r.n]...)
			}
		}
	}
	if len(kept) > 0 {
		if err := s.writeSegment(kept); err != nil {
			return GCReport{RemainingIntact: rep.RemainingIntact}, fmt.Errorf("store: gc: %w", err)
		}
		rep.ReclaimedBytes -= int64(len(kept))
	}
	for _, sf := range victims {
		if err := removeFile(sf.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return rep, fmt.Errorf("store: gc: %w", err)
		}
	}
	sv.release()
	// Point this handle's index at the new segment now rather than on
	// its next miss.
	_ = s.refresh(true)
	return rep, nil
}

// writeSegment writes data, whole records, to a new segment, syncs it
// and then the segments directory.
func (s *Store) writeSegment(data []byte) error {
	if err := writeNew(filepath.Join(s.segDir(), segmentName()), data); err != nil {
		return err
	}
	return syncDir(s.segDir())
}

// writeNew writes data to a new file at path and syncs it, removing the
// file again when that fails. It locks the file before writing, so no
// GC compacts a new segment away meanwhile.
func writeNew(path string, data []byte) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	err = f.lock(true)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = removeFile(path) // best effort: GC drops a partial segment left behind
	}
	return err
}

// saveCorrupt copies each corrupt entry of segs — a corrupt record no
// later record of its key supersedes — to its own file under
// quarantine/.
func (s *Store) saveCorrupt(sv *survey, segs []*segFile) error {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	for _, sf := range segs {
		for i := range sf.recs {
			r := &sf.recs[i]
			if r.err == nil || r.hasKey && sv.chosen[r.key] != r {
				continue
			}
			name := fmt.Sprintf("%s-%d.rec", strings.TrimSuffix(sf.name, ".seg"), r.off)
			err := writeNew(filepath.Join(qdir, name), sf.data[r.off:r.off+r.n])
			if err != nil && !errors.Is(err, fs.ErrExist) { // ErrExist: saved by an earlier run
				return fmt.Errorf("store: quarantine: %w", err)
			}
		}
	}
	return nil
}

// Probe checks whether the store's directory is writable again: one
// file create/write/remove round trip through the same fault points as
// real writes. The engine's degraded mode calls this periodically to
// decide when to re-attach — a probe that fails under ENOSPC keeps the
// store detached instead of flapping.
func (s *Store) Probe() error {
	name := filepath.Join(s.segDir(), fmt.Sprintf(".probe-%08x", rand.Uint32()))
	f, err := createFile(name)
	if err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	_, err = f.Write([]byte(frameMagic))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	_ = removeFile(name) // best effort: a leftover probe is not a segment
	if err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	return nil
}
