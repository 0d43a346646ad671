package store

import (
	"errors"
	"io/fs"
	"os"
	"syscall"

	"repro/internal/fault"
)

// The store's file I/O goes through the helpers and the file type
// below, which carry its fault points, keyed by path:
//
//	store.read    ReadAt on a segment (Get, index scans, List), and
//	              readDir of the segments (a Get that misses the index)
//	store.write   createFile, and Write/Sync on the created file
//	store.remove  removeFile and removeAll
//	store.stat    statFile
//
// With no clauses armed each point is one atomic load, so a production
// process can be failure-rehearsed via CONTOPT_FAULTS alone.

func readDir(dir string) ([]os.DirEntry, error) {
	if err := fault.Inject("store.read", dir); err != nil {
		return nil, err
	}
	return os.ReadDir(dir)
}

// createFile makes a new file for appending and fails if name exists.
func createFile(name string) (*file, error) {
	if err := fault.Inject("store.write", name); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &file{f}, nil
}

// openFile opens an existing file for reading.
func openFile(name string) (*file, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{f}, nil
}

func removeFile(name string) error {
	if err := fault.Inject("store.remove", name); err != nil {
		return err
	}
	return os.Remove(name)
}

func removeAll(name string) error {
	if err := fault.Inject("store.remove", name); err != nil {
		return err
	}
	return os.RemoveAll(name)
}

func statFile(name string) (os.FileInfo, error) {
	if err := fault.Inject("store.stat", name); err != nil {
		return nil, err
	}
	return os.Stat(name)
}

// syncDir makes a new segment's directory entry durable. It carries no
// fault point: the createFile before it takes store.write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// file is an open segment (or quarantine) file. Write and Sync take
// store.write, so an nth= clause can land ENOSPC mid-Put, and ReadAt
// takes store.read.
type file struct{ *os.File }

func (f *file) Write(p []byte) (int, error) {
	if err := fault.Inject("store.write", f.Name()); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *file) Sync() error {
	if err := fault.Inject("store.write", f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := fault.Inject("store.read", f.Name()); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

// errBusy reports a lock another open file holds.
var errBusy = errors.New("store: segment busy")

// lock takes the file's exclusive flock(2): it waits for the lock when
// wait is set, and otherwise fails with errBusy when another open file
// holds it. Closing the file releases it. A flock belongs to the open
// file, not the process, so two handles in one process exclude each
// other just as two processes do.
func (f *file) lock(wait bool) error {
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

func (f *file) unlock() error { return f.flock(syscall.LOCK_UN) }

func (f *file) flock(how int) error {
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
