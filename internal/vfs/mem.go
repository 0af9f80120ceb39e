package vfs

import (
	"io"
	gofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// MemFS is an in-memory filesystem that models crash durability. Every
// file carries two byte images:
//
//   - data: the volatile view — what the process reads back, including
//     every write since the last fsync;
//   - durable: the stable view — the content as of the last successful
//     Sync on a handle (or the file's initial image).
//
// Directory entries are modeled the same way: a created or renamed-in
// name is volatile until SyncDir on its parent pins it. Snapshot()
// returns both views, so a torture harness can materialize "the disk
// after a power cut here" (the durable view), "the lucky crash where
// the page cache made it out" (the volatile view), and torn mixtures in
// between, and reopen each as a fresh filesystem via NewMemFSFromFiles.
//
// The crash model is deliberately conservative in one direction and
// simple in the other: unsynced bytes and unsynced directory entries
// are LOST at a crash, while removals and renames-away take effect
// immediately (a removed file never resurrects). Real filesystems can
// additionally resurrect removed entries whose directory was not
// fsynced; the archive orders its removals before a SyncDir anyway, so
// the simplification only ever under-reports surviving state — the
// safe direction for prefix-recovery checking.
//
// All methods are safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

type memFile struct {
	data        []byte
	durable     []byte
	hasDurable  bool // durable image exists (at least one Sync, or preloaded)
	linkDurable bool // the directory entry itself survives a crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// NewMemFSFromFiles builds a filesystem from an on-disk image — the
// shape Snapshot produces. Every entry is fully durable: the image
// represents state already survived to stable storage.
func NewMemFSFromFiles(dirs []string, files map[string][]byte) *MemFS {
	m := NewMemFS()
	for _, d := range dirs {
		m.dirs[d] = true
	}
	for name, data := range files {
		c := append([]byte(nil), data...)
		m.files[name] = &memFile{data: c, durable: append([]byte(nil), c...), hasDurable: true, linkDurable: true}
		m.dirs[filepath.Dir(name)] = true
	}
	return m
}

// Snapshot is a point-in-time capture of both durability views.
type Snapshot struct {
	// Dirs lists every directory.
	Dirs []string
	// Durable maps name -> content that survives a crash at this
	// instant: only durably-linked entries, each with its last-synced
	// bytes.
	Durable map[string][]byte
	// Volatile maps name -> current content for every entry, synced or
	// not — the upper bound of what a crash might preserve.
	Volatile map[string][]byte
}

// Snapshot captures both views. The returned maps own their bytes.
func (m *MemFS) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Durable:  make(map[string][]byte),
		Volatile: make(map[string][]byte, len(m.files)),
	}
	dirs := make([]string, 0, len(m.dirs))
	for d := range m.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	s.Dirs = dirs
	for name, f := range m.files {
		s.Volatile[name] = append([]byte(nil), f.data...)
		if f.linkDurable {
			var img []byte
			if f.hasDurable {
				img = append([]byte(nil), f.durable...)
			}
			if img == nil {
				img = []byte{}
			}
			s.Durable[name] = img
		}
	}
	return s
}

func (m *MemFS) OpenFile(name string, flag int, perm gofs.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, exists := m.files[name]
	switch {
	case exists && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &gofs.PathError{Op: "open", Path: name, Err: gofs.ErrExist}
	case !exists && flag&os.O_CREATE == 0:
		return nil, &gofs.PathError{Op: "open", Path: name, Err: gofs.ErrNotExist}
	case !exists:
		f = &memFile{}
		m.files[name] = f
	}
	if flag&os.O_TRUNC != 0 {
		f.data = nil
	}
	writable := flag&(os.O_WRONLY|os.O_RDWR) != 0
	return &memHandle{fs: m, name: name, f: f, writable: writable}, nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, &gofs.PathError{Op: "readdir", Path: dir, Err: gofs.ErrNotExist}
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &gofs.PathError{Op: "read", Path: name, Err: gofs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) WriteFile(name string, data []byte, perm gofs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	}
	// Volatile replacement: the durable image (if any) keeps the old
	// content until someone fsyncs, exactly like an O_TRUNC rewrite.
	f.data = append([]byte(nil), data...)
	return nil
}

func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, &gofs.PathError{Op: "stat", Path: name, Err: gofs.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &gofs.PathError{Op: "rename", Path: oldpath, Err: gofs.ErrNotExist}
	}
	delete(m.files, oldpath)
	// The entry under its new name is volatile until the parent
	// directory is synced — a crash loses the rename (and, per the
	// model's simplification, the old name too).
	f.linkDurable = false
	m.files[newpath] = f
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &gofs.PathError{Op: "remove", Path: name, Err: gofs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) MkdirAll(dir string, perm gofs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := dir; ; d = filepath.Dir(d) {
		m.dirs[d] = true
		if parent := filepath.Dir(d); parent == d {
			break
		}
	}
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return &gofs.PathError{Op: "syncdir", Path: dir, Err: gofs.ErrNotExist}
	}
	for name, f := range m.files {
		if filepath.Dir(name) == dir {
			f.linkDurable = true
		}
	}
	return nil
}

// memHandle is one open MemFS file. The write cursor follows *os.File
// semantics: writes land at pos and extend the file as needed, Seek
// repositions, ReadAt ignores the cursor.
type memHandle struct {
	fs       *MemFS
	name     string
	f        *memFile
	pos      int64
	writable bool
	closed   bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, gofs.ErrClosed
	}
	if !h.writable {
		return 0, &gofs.PathError{Op: "write", Path: h.name, Err: gofs.ErrPermission}
	}
	end := h.pos + int64(len(p))
	if size := int64(len(h.f.data)); size < end {
		// Grow geometrically, as append does: an appending writer must
		// not copy the whole file on every write.
		if int64(cap(h.f.data)) < end {
			grown := make([]byte, size, max(end, 2*int64(cap(h.f.data))))
			copy(grown, h.f.data)
			h.f.data = grown
		}
		h.f.data = h.f.data[:end]
		// Spare capacity may hold bytes a Truncate cut off; a write past
		// the end leaves a zero-filled gap, as on a real file.
		if h.pos > size {
			clear(h.f.data[size:h.pos])
		}
	}
	copy(h.f.data[h.pos:end], p)
	h.pos = end
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, gofs.ErrClosed
	}
	if off < 0 {
		return 0, gofs.ErrInvalid
	}
	if off > int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF // ReadAt contract: a short read reports EOF
	}
	return n, nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, gofs.ErrClosed
	}
	switch whence {
	case 0:
		h.pos = offset
	case 1:
		h.pos += offset
	case 2:
		h.pos = int64(len(h.f.data)) + offset
	default:
		return 0, gofs.ErrInvalid
	}
	if h.pos < 0 {
		h.pos = 0
		return 0, gofs.ErrInvalid
	}
	return h.pos, nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return gofs.ErrClosed
	}
	switch {
	case size < 0:
		return gofs.ErrInvalid
	case size <= int64(len(h.f.data)):
		h.f.data = h.f.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, h.f.data)
		h.f.data = grown
	}
	return nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return gofs.ErrClosed
	}
	h.f.durable = append(h.f.durable[:0], h.f.data...)
	h.f.hasDurable = true
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return gofs.ErrClosed
	}
	h.closed = true
	return nil
}
