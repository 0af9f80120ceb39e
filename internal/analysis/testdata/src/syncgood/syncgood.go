// Package syncgood exercises the synccheck analyzer's accepted
// patterns: checked syncs, package-wide field flushing, and escaping
// handles. No diagnostics are expected in this package.
package syncgood

import "os"

// store batches appends on a long-lived handle and syncs per
// checkpoint — the archive's cadence. The checked Sync in flush
// satisfies every write through the same field, package-wide.
type store struct {
	active *os.File
}

func (s *store) append(buf []byte) error {
	_, err := s.active.Write(buf)
	return err
}

func (s *store) flush() error {
	return s.active.Sync()
}

// writeAndSync checks the local file's Sync error in-function.
func writeAndSync(path string, buf []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// truncateAndClose releases via a checked Close, which implies a flush
// on every mainstream filesystem.
func truncateAndClose(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openSegment writes a header and hands the file to the caller, who
// owns the flush: escaping handles are not flagged.
func openSegment(path string, header []byte) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// registerSegment stores the written handle in a struct; the store's
// flush discipline takes over from there.
func registerSegment(s *store, f *os.File, header []byte) error {
	if _, err := f.Write(header); err != nil {
		return err
	}
	s.active = f
	return nil
}

// waived documents an intentional fire-and-forget write.
func waived(f *os.File) {
	//lint:allow synccheck best-effort trace output, loss is acceptable
	f.WriteString("trace\n")
}

// vfsFile mirrors the shape of internal/vfs.File; the analyzer holds
// it to the *os.File discipline by structure.
type vfsFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(n int64) error
}

// faultStore batches appends on a long-lived vfs handle and syncs per
// checkpoint; the checked Sync satisfies the writes package-wide.
type faultStore struct {
	seg vfsFile
}

func (s *faultStore) append(buf []byte) error {
	_, err := s.seg.Write(buf)
	return err
}

func (s *faultStore) flush() error {
	return s.seg.Sync()
}

// truncateVfsAndClose releases a vfs handle via a checked Close.
func truncateVfsAndClose(f vfsFile, n int64) error {
	if err := f.Truncate(n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wal mimics the archive's group-commit surface.
type wal struct{}

func (*wal) AppendCheckpointDeferred(block uint64) error { return nil }
func (*wal) Sync() error                                 { return nil }
func (*wal) Close() error                                { return nil }

// journal batches deferred checkpoints through a field and promotes
// them with one checked Sync per batch — the group-commit cadence. The
// checked Sync in commit satisfies the deferred appends package-wide.
type journal struct {
	arc *wal
}

func (j *journal) stage(block uint64) error {
	return j.arc.AppendCheckpointDeferred(block)
}

func (j *journal) commit() error {
	return j.arc.Sync()
}

// deferredThenSynced defers on a local wal and checks the Sync error in
// the same function.
func deferredThenSynced(block uint64) error {
	w := &wal{}
	if err := w.AppendCheckpointDeferred(block); err != nil {
		return err
	}
	return w.Sync()
}
