package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// A segment is an append-only file of records, one per Put:
//
//	magic      4 bytes   "cos2"
//	headLen    uint32 LE length of the head
//	payloadLen uint32 LE length of the payload
//	crc        uint32 LE CRC-32C of the 12 bytes above and of the head
//	head       the JSON of the record's recordHead
//	payload    the value's JSON, as is
//	'\n'
//
// The lengths let a scanner step from record to record reading heads
// only; the CRC covers the head, which holds the key and the payload's
// SHA-256, so a scanner never indexes a record under a damaged key and
// trusts a length only once it has checked it. A segment of the earlier
// "cos1" layout fails the magic check and reads as corrupt.
const (
	frameMagic  = "cos2"
	frameHeader = 16
	// headGuess is how much of a head a scan reads with its frame
	// header; a longer head costs a second read.
	headGuess = 512
	// maxHead bounds a plausible head, so a damaged length is not read.
	maxHead = 64 << 10
	// maxPayload keeps payloadLen within uint32.
	maxPayload = 1<<32 - 1
)

// recordHead is a record's head: the codec version, the full key in
// clear (so the store can be inspected, verified and migrated without
// external metadata) and the payload's SHA-256.
type recordHead struct {
	Version int    `json:"version"`
	Key     Key    `json:"key"`
	SHA256  string `json:"sha256"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the CRC of a frame's first 12 bytes and its head.
func frameCRC(hdr, head []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:12], castagnoli), castagnoli, head)
}

// frameRecord frames a head and a payload as one record.
func frameRecord(head, payload []byte) []byte {
	rec := make([]byte, frameHeader, frameHeader+len(head)+len(payload)+1)
	rec = append(append(append(rec, head...), payload...), '\n')
	copy(rec, frameMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(head)))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[12:], frameCRC(rec, head))
	return rec
}

// errTorn reports a record the segment ends inside of: a writer's
// append still in flight, or one a crash cut off. It is a miss, never
// corruption; GC drops such a tail once it is older than tempMaxAge.
var errTorn = errors.New("store: unterminated record")

// errStale reports an indexed record that is no longer where the index
// says: GC compacted its segment away, or the segment was cut back.
var errStale = errors.New("store: stale index entry")

// frame is one record as a scan found it.
type frame struct {
	n    int64 // the record's whole length
	head recordHead
	// headErr is set when the frame is sound but its head does not name
	// a valid key: the record is corrupt, and the next one still found.
	headErr error
}

// readFrame reads the frame at off of a segment holding size bytes,
// whose path names it in errors. It returns errTorn when the segment
// ends inside the record, and a *CorruptError when the frame itself is
// damaged — nothing after off can then be located. buf is scratch
// space, grown as needed and returned.
func readFrame(r io.ReaderAt, path string, off, size int64, buf []byte) (frame, []byte, error) {
	var fr frame
	corrupt := func(reason string) error {
		return &CorruptError{Path: fmt.Sprintf("%s@%d", path, off), Reason: reason}
	}
	rest := size - off
	if rest < frameHeader {
		return fr, buf, errTorn
	}
	want := min(int64(frameHeader+headGuess), rest)
	buf = grow(buf, int(want))
	if _, err := r.ReadAt(buf[:want], off); err != nil {
		return fr, buf, err
	}
	if string(buf[:4]) != frameMagic {
		return fr, buf, corrupt("no record frame")
	}
	headLen := int64(binary.LittleEndian.Uint32(buf[4:]))
	payloadLen := int64(binary.LittleEndian.Uint32(buf[8:]))
	if headLen > maxHead {
		return fr, buf, corrupt("record frame lengths out of range")
	}
	if frameHeader+headLen > rest {
		return fr, buf, errTorn
	}
	if frameHeader+headLen > want {
		buf = grow(buf, int(frameHeader+headLen))
		if _, err := r.ReadAt(buf, off); err != nil {
			return fr, buf, err
		}
	}
	head := buf[frameHeader : frameHeader+headLen]
	if frameCRC(buf, head) != binary.LittleEndian.Uint32(buf[12:]) {
		return fr, buf, corrupt("record frame checksum mismatch")
	}
	fr.n = frameHeader + headLen + payloadLen + 1
	if fr.n > rest {
		return fr, buf, errTorn
	}
	var err error
	if fr.head, err = decodeHead(head); err != nil {
		fr.headErr = corrupt(err.Error())
	}
	return fr, buf, nil
}

// decodeHead parses a record's head; an error says why it is corrupt.
func decodeHead(head []byte) (recordHead, error) {
	var h recordHead
	if err := json.Unmarshal(head, &h); err != nil {
		return h, fmt.Errorf("record head: %w", err)
	}
	return h, h.Key.Validate()
}

// checkRecord checks one whole record read back from where — its frame,
// head, codec version and payload checksum — and returns its payload.
// want, when non-nil, also pins the stored key: a record moved in place
// under another key fails here.
func checkRecord(rec []byte, where string, want *Key) ([]byte, error) {
	bad := func(reason string) ([]byte, error) {
		return nil, &CorruptError{Path: where, Reason: reason}
	}
	if len(rec) <= frameHeader || string(rec[:4]) != frameMagic {
		return bad("no record frame")
	}
	headEnd := frameHeader + int64(binary.LittleEndian.Uint32(rec[4:]))
	end := headEnd + int64(binary.LittleEndian.Uint32(rec[8:]))
	if end+1 != int64(len(rec)) || rec[end] != '\n' {
		return bad("record frame damaged")
	}
	if frameCRC(rec, rec[frameHeader:headEnd]) != binary.LittleEndian.Uint32(rec[12:]) {
		return bad("record frame checksum mismatch")
	}
	h, err := decodeHead(rec[frameHeader:headEnd])
	if err != nil {
		return bad(err.Error())
	}
	if h.Version != Version {
		return bad(fmt.Sprintf("codec version %d, this build reads %d", h.Version, Version))
	}
	if want != nil && h.Key != *want {
		return bad(fmt.Sprintf("key mismatch: entry holds %s", h.Key))
	}
	payload := rec[headEnd:end]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return bad("payload checksum mismatch")
	}
	return payload, nil
}

// grow returns a buffer of length n, reusing buf when it is large
// enough; its contents are not kept.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// segment is what a handle's index knows of one segment file.
type segment struct {
	name string
	// scanned: the records in [0, scanned) are indexed. seen: the file's
	// size when it was last scanned; an unchanged size needs no rescan.
	scanned, seen int64
}

// loc is where the index found a key's latest record.
type loc struct {
	seg    string // the segment's file name
	off, n int64
}

// isSegment reports whether a file name under segments/ is a segment.
func isSegment(name string) bool {
	return strings.HasSuffix(name, ".seg") && !strings.HasPrefix(name, ".")
}

// segmentName returns a new segment's file name: creation time first,
// so names sort oldest first, and a random tag against collisions,
// which O_EXCL turns into a retry rather than a shared file.
func segmentName() string {
	return fmt.Sprintf("%016x-%08x.seg", time.Now().UnixNano(), rand.Uint32())
}

// maxRounds bounds how often a read or refresh starts over because GC
// moved records under it; running out is reported as errChurn.
const maxRounds = 8

// errChurn reports segments that kept moving under a read — a GC running
// back to back with it. It is transient: a retry finds them settled.
var errChurn = fmt.Errorf("store: segments kept moving under the read: %w", syscall.EAGAIN)

// refresh brings the index up to date with the segments on disk, at the
// cost of one directory read and one stat per segment: records appended
// since the last scan are indexed. The handle's own segment is skipped
// unless all is set, as long as the index covers it: its writer indexes
// each record it appends.
//
// When a segment has vanished (GC compacted it away) or shrunk (a failed
// append was cut back), the index is rebuilt from every segment: the
// entries it loses may have overridden older copies elsewhere, which
// only a full scan finds again. GC writes a compacted segment before it
// removes the ones it replaces, so a pass that saw no segment vanish
// between its directory read and its scans saw every record; a pass
// that did starts over.
func (s *Store) refresh(all bool) error {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	return s.refreshLocked(all)
}

// refreshLocked is refresh for a caller holding scanMu — one that must
// look a key up before another refresh can reset the index.
func (s *Store) refreshLocked(all bool) error {
	for round := 0; round < maxRounds; round++ {
		settled, err := s.refreshOnce(all)
		if err != nil || settled {
			return err
		}
		all = true
	}
	return errChurn
}

// errShrunk reports a segment shorter than what the index holds of it.
var errShrunk = errors.New("store: segment shrank")

// refreshOnce is one refresh pass. It reports settled false after
// resetting the index, or when a listed segment vanished before it was
// scanned; the next pass then scans everything. Callers hold scanMu.
func (s *Store) refreshOnce(all bool) (settled bool, err error) {
	ents, err := readDir(s.segDir())
	if err != nil {
		return false, err
	}
	present := make(map[string]bool, len(ents))
	for _, e := range ents {
		if isSegment(e.Name()) {
			present[e.Name()] = true
		}
	}
	s.mu.Lock()
	for name := range s.segs {
		if !present[name] {
			s.reset(present)
			all = true
			break
		}
	}
	s.mu.Unlock()

	settled = true
	var firstErr error
	for _, e := range ents {
		name := e.Name()
		if !present[name] {
			continue
		}
		s.mu.Lock()
		seg := s.segs[name]
		if seg == nil {
			seg = &segment{name: name}
			s.segs[name] = seg
		}
		// The handle indexes its own appends as it writes them, so its
		// segment needs no scan while the index covers all of it.
		covered := seg == s.own && seg.seen > 0 && seg.scanned == seg.seen
		s.mu.Unlock()
		if covered && !all {
			continue
		}
		switch err := s.scan(seg); {
		case errors.Is(err, errShrunk):
			s.mu.Lock()
			s.reset(present)
			s.mu.Unlock()
			return false, nil
		case errors.Is(err, fs.ErrNotExist):
			settled = false
		case err != nil && firstErr == nil:
			firstErr = err
		}
	}
	return settled, firstErr
}

// reset empties the index and forgets what it scanned of each segment,
// dropping segments no longer present. Callers hold mu.
func (s *Store) reset(present map[string]bool) {
	s.index = make(map[Key]loc, len(s.index))
	for name, seg := range s.segs {
		if present[name] {
			seg.scanned, seg.seen = 0, 0
		} else {
			delete(s.segs, name)
		}
	}
}

// scan indexes seg's records past what is already indexed, reading
// heads only. It stops at a torn tail (an append in flight is picked up
// by a later scan) and at a damaged frame, and reports a segment removed
// since the directory read as fs.ErrNotExist and one cut back below what
// is indexed as errShrunk.
func (s *Store) scan(seg *segment) error {
	path := filepath.Join(s.segDir(), seg.name)
	info, err := statFile(path)
	if err != nil {
		return err
	}
	size := info.Size()
	s.mu.Lock()
	off, seen := seg.scanned, seg.seen
	s.mu.Unlock()
	if size == seen {
		return nil
	}
	if size < off {
		return errShrunk
	}

	f, err := openFile(path)
	if err != nil {
		return err
	}
	defer f.Close()
	found := map[Key]loc{} // each key's last record in the segment
	var buf []byte
	var fr frame
	for off < size {
		fr, buf, err = readFrame(f, path, off, size, buf)
		if err != nil {
			break
		}
		if fr.headErr == nil {
			found[fr.head.Key] = loc{seg.name, off, fr.n}
		}
		off += fr.n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, l := range found {
		// A later record of the same segment, which its writer indexed
		// meanwhile, stays: within a segment the last record wins.
		if cur, ok := s.index[k]; !ok || cur.seg != l.seg || cur.off < l.off {
			s.index[k] = l
		}
	}
	seg.scanned = off
	if err == nil || errors.Is(err, errTorn) || IsCorrupt(err) {
		seg.seen = size
		return nil
	}
	return err // a failed read: the next refresh retries from off
}

// readRecord reads the record at l and returns it and where it lies, or
// errStale when the segment no longer holds it.
func (s *Store) readRecord(l loc) ([]byte, string, error) {
	path := filepath.Join(s.segDir(), l.seg)
	f, err := openFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, "", errStale
	}
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	rec := make([]byte, l.n)
	switch _, err := f.ReadAt(rec, l.off); {
	case errors.Is(err, io.EOF): // a short read: the segment was cut back
		return nil, "", errStale
	case err != nil:
		return nil, "", err
	}
	return rec, fmt.Sprintf("%s@%d", path, l.off), nil
}

// writer is a handle's own segment, the one file it appends to.
type writer struct {
	f    *file
	seg  *segment
	size int64 // the segment's length after this handle's last append
}

// append writes rec, k's framed record, to the end of the handle's
// segment and fsyncs it, creating the segment on first use. It holds
// the segment's lock across the append, which keeps GC from compacting
// the segment away mid-write; a segment GC removed in between, or one
// changed behind the writer's back, is left for a new one. A failed
// append cuts the segment back and drops it, so no partial record is
// ever followed by later ones.
func (s *Store) append(k Key, rec []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for attempt := 0; ; attempt++ {
		if s.w == nil {
			if err := s.newWriter(); err != nil {
				return err
			}
		}
		w := s.w
		if err := w.f.lock(true); err != nil {
			s.dropWriter()
			return err
		}
		info, err := w.f.Stat()
		if err != nil {
			s.dropWriter()
			return err
		}
		if unlinked(info) || info.Size() != w.size {
			s.dropWriter()
			if attempt < 2 {
				continue
			}
			return fmt.Errorf("segment %s keeps changing under its writer", w.seg.name)
		}
		if _, err := w.f.Write(rec); err != nil {
			return s.failAppend(err)
		}
		if err := w.f.Sync(); err != nil {
			return s.failAppend(err)
		}
		off := w.size
		w.size += int64(len(rec))
		// Index before unlocking: once GC can take the lock, the record
		// may move, and the refresh after GC must find this entry in
		// place to replace it.
		s.mu.Lock()
		s.index[k] = loc{w.seg.name, off, int64(len(rec))}
		if w.seg.scanned == off {
			w.seg.scanned, w.seg.seen = w.size, w.size
		}
		s.mu.Unlock()
		if err := w.f.unlock(); err != nil {
			s.dropWriter() // the record is durable; closing releases the lock
		}
		return nil
	}
}

// failAppend undoes a failed append as far as it can and drops the
// segment — removing it when it holds nothing, so a disk that keeps
// failing does not collect an empty file per attempt. Callers hold wmu
// and the segment's lock.
func (s *Store) failAppend(err error) error {
	// Best effort: if the cut fails, the segment ends in a torn tail,
	// which readers skip and GC drops once stale; if the removal fails,
	// GC drops the empty segment once stale.
	if s.w.size == 0 {
		_ = removeFile(s.w.f.Name())
	} else {
		_ = s.w.f.Truncate(s.w.size)
	}
	s.dropWriter()
	return err
}

// newWriter creates the handle's segment and syncs the segments
// directory; a failed sync removes the empty segment. Callers hold wmu.
func (s *Store) newWriter() error {
	for attempt := 0; ; attempt++ {
		name := segmentName()
		f, err := createFile(filepath.Join(s.segDir(), name))
		if errors.Is(err, fs.ErrExist) && attempt < 3 {
			continue
		}
		if err != nil {
			return err
		}
		if err := syncDir(s.segDir()); err != nil {
			f.Close()
			_ = removeFile(f.Name()) // best effort, as in failAppend
			return err
		}
		seg := &segment{name: name}
		s.mu.Lock()
		s.segs[name] = seg
		s.own = seg
		s.mu.Unlock()
		s.w = &writer{f: f, seg: seg}
		return nil
	}
}

// dropWriter closes the handle's segment (releasing its lock); the
// next Put starts a new one. The dropped segment stays indexed and is
// scanned like any other. Callers hold wmu.
func (s *Store) dropWriter() {
	_ = s.w.f.Close() // nothing written is lost: appends were synced or cut back
	s.mu.Lock()
	if s.own == s.w.seg {
		s.own = nil
	}
	s.mu.Unlock()
	s.w = nil
}

// unlinked reports whether info describes a file removed from its
// directory while open.
func unlinked(info os.FileInfo) bool {
	st, ok := info.Sys().(*syscall.Stat_t)
	return ok && st.Nlink == 0
}
