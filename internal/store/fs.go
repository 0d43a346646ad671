package store

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"

	"repro/internal/fault"
)

// File is an open segment (or quarantine) file: appends and their
// durability step for the segment's writer, positioned reads for
// scanners and Get, and the advisory lock that keeps GC off a segment
// while a writer appends to it.
type File interface {
	io.Writer
	io.ReaderAt
	Name() string
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
	// Lock takes the file's exclusive advisory lock: it waits for the
	// lock when wait is set, and otherwise fails with errBusy when
	// another open file holds it. Closing the file releases it.
	Lock(wait bool) error
	Unlock() error
	Close() error
}

// errBusy reports a lock another open file holds.
var errBusy = errors.New("store: segment busy")

// FS is the store's filesystem seam. Every byte of an entry the store
// reads or writes goes through one of these calls, which is what lets
// the fault registry fail them deterministically and lets tests
// substitute a filesystem wholesale. The default (what Open uses) is the real OS
// filesystem wrapped in fault points.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadDir(dir string) ([]os.DirEntry, error)
	// Create makes a new file for appending and fails if name exists.
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	Remove(name string) error
	RemoveAll(name string) error
	Stat(name string) (os.FileInfo, error)
}

// OSFS returns the real OS filesystem, with no fault points.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }
func (osFS) Remove(name string) error                    { return os.Remove(name) }
func (osFS) RemoveAll(name string) error                 { return os.RemoveAll(name) }
func (osFS) Stat(name string) (os.FileInfo, error)       { return os.Stat(name) }

func (osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// osFile adds flock(2) locking to *os.File. A flock belongs to the open
// file, not the process, so two handles in one process exclude each
// other just as two processes do.
type osFile struct{ *os.File }

func (f osFile) Lock(wait bool) error {
	how := syscall.LOCK_EX
	if !wait {
		how |= syscall.LOCK_NB
	}
	err := f.flock(how)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return errBusy
	}
	return err
}

func (f osFile) Unlock() error { return f.flock(syscall.LOCK_UN) }

func (f osFile) flock(how int) error {
	conn, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := conn.Control(func(fd uintptr) {
		for {
			ferr = syscall.Flock(int(fd), how)
			if ferr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	if ferr != nil {
		return &os.PathError{Op: "flock", Path: f.Name(), Err: ferr}
	}
	return nil
}

// FaultFS wraps fsys with the store's named fault points, keyed by
// path so key= clauses can target one segment:
//
//	store.read    ReadAt on a segment (Get, index scans, List), and
//	              ReadDir of the segments (a Get that misses the index)
//	store.write   Create, and Write/Sync on the created file
//	store.remove  Remove and RemoveAll
//	store.stat    Stat
//
// With no clauses armed each point is one atomic load; Open installs
// this wrapper by default so a production process can be failure-
// rehearsed via CONTOPT_FAULTS alone.
func FaultFS(fsys FS) FS { return faultFS{inner: fsys} }

type faultFS struct{ inner FS }

func (f faultFS) MkdirAll(dir string, perm os.FileMode) error {
	return f.inner.MkdirAll(dir, perm)
}

func (f faultFS) ReadDir(dir string) ([]os.DirEntry, error) {
	if err := fault.Inject("store.read", dir); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f faultFS) Create(name string) (File, error) {
	if err := fault.Inject("store.write", name); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return faultFile{file}, nil
}

func (f faultFS) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return faultFile{file}, nil
}

func (f faultFS) Remove(name string) error {
	if err := fault.Inject("store.remove", name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f faultFS) RemoveAll(name string) error {
	if err := fault.Inject("store.remove", name); err != nil {
		return err
	}
	return f.inner.RemoveAll(name)
}

func (f faultFS) Stat(name string) (os.FileInfo, error) {
	if err := fault.Inject("store.stat", name); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

// faultFile interposes store.write on the data and durability steps of
// an append, so a clause with nth= can land ENOSPC mid-Put rather than
// only at segment creation, and store.read on every positioned read.
type faultFile struct{ File }

func (f faultFile) Write(p []byte) (int, error) {
	if err := fault.Inject("store.write", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f faultFile) Sync() error {
	if err := fault.Inject("store.write", f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := fault.Inject("store.read", f.Name()); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

// ErrorClass partitions store errors by the response they warrant.
// The store itself never retries or degrades — it reports honestly and
// leaves policy to the caller (the engine's resilience layer).
type ErrorClass int

const (
	// ClassNone: no error.
	ClassNone ErrorClass = iota
	// ClassNotFound: no entry for the key — a plain miss, never retried.
	ClassNotFound
	// ClassCorrupt: an entry exists but cannot be trusted. A miss to
	// readers (the simulator rewrites it); retrying cannot help.
	ClassCorrupt
	// ClassTransient: an I/O error that retrying or waiting may clear —
	// pressure-shaped errnos like EIO, ENOSPC, EMFILE, EAGAIN. Worth a
	// bounded retry; worth degrading to memory-only after the budget.
	ClassTransient
	// ClassFatal: everything else — misconfiguration (EACCES, EROFS),
	// bad keys, encoding bugs. Retrying is noise; degrade immediately.
	ClassFatal
)

// String names the class for logs and diagnostics.
func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassNotFound:
		return "not-found"
	case ClassCorrupt:
		return "corrupt"
	case ClassTransient:
		return "transient"
	default:
		return "fatal"
	}
}

// transientErrnos are the pressure-shaped errnos: conditions that
// arrive under load and clear on their own (or, for ENOSPC, once an
// operator intervenes — the degrade-then-probe path exists for it).
var transientErrnos = map[syscall.Errno]bool{
	syscall.EIO:       true,
	syscall.ENOSPC:    true,
	syscall.EDQUOT:    true,
	syscall.EMFILE:    true,
	syscall.ENFILE:    true,
	syscall.EAGAIN:    true,
	syscall.EINTR:     true,
	syscall.EBUSY:     true,
	syscall.ENOMEM:    true,
	syscall.ETIMEDOUT: true,
}

// Classify assigns err its ErrorClass, seeing through wrapping (fault
// injection, fmt.Errorf %w chains) down to the underlying errno.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassNone
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, fs.ErrNotExist) {
		return ClassNotFound
	}
	if IsCorrupt(err) {
		return ClassCorrupt
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		if transientErrnos[errno] {
			return ClassTransient
		}
		return ClassFatal
	}
	if errors.Is(err, fault.ErrInjected) {
		return ClassTransient
	}
	return ClassFatal
}
