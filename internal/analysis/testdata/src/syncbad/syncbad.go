// Package syncbad exercises the synccheck analyzer's failure cases:
// file writes that reach no checked Sync or Close.
package syncbad

import "os"

// store keeps a long-lived segment handle, like the archive does.
type store struct {
	active *os.File
	backup *os.File
}

// appendUnsynced writes through a field that no function in this
// package ever syncs with a consumed error.
func (s *store) appendUnsynced(buf []byte) error {
	_, err := s.active.Write(buf) // want "field active is written without any checked Sync or Close"
	return err
}

// flushIgnored discards the Sync error, so the field stays unsynced.
func (s *store) flushIgnored() {
	s.active.Sync()
}

// closeBlank discards the Close error explicitly; still not a check.
func (s *store) closeBlank() {
	_ = s.active.Close()
}

// truncateBackup shrinks the other handle, which nothing in this
// package ever flushes.
func (s *store) truncateBackup(n int64) error {
	return s.backup.Truncate(n) // want "field backup is written without any checked Sync or Close"
}

// writeTemp writes a local file and leaks it without any flush.
func writeTemp(path string, buf []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(buf) // want "f is written without a checked Sync or Close in this function"
	return err
}

// writeDeferClose writes a local file whose only release is a deferred
// Close with the error thrown away — a torn write would go unnoticed.
func writeDeferClose(path string, buf []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(string(buf)) // want "f is written without a checked Sync or Close in this function"
	return err
}

// vfsFile mirrors the shape of internal/vfs.File: the analyzer matches
// it structurally (Write + Sync in the method set), so the same
// discipline applies through the fault-injectable handle abstraction.
type vfsFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(n int64) error
}

// faultStore keeps a long-lived vfs handle, like the ported archive.
type faultStore struct {
	seg vfsFile
}

// appendVfsUnsynced writes through a vfs field that no function in this
// package ever syncs with a consumed error.
func (s *faultStore) appendVfsUnsynced(buf []byte) error {
	_, err := s.seg.Write(buf) // want "field seg is written without any checked Sync or Close"
	return err
}

// vfsFlushIgnored discards the Sync error, so the field stays unsynced.
func (s *faultStore) vfsFlushIgnored() {
	s.seg.Sync()
}

// writeVfsUnsynced writes a vfs handle and returns without any flush.
func writeVfsUnsynced(f vfsFile, buf []byte) error {
	_, err := f.Write(buf) // want "f is written without a checked Sync or Close in this function"
	return err
}

// wal mimics the archive's group-commit surface: checkpoints may be
// appended deferred (framed but not durable until a Sync).
type wal struct{}

func (*wal) AppendCheckpointDeferred(block uint64) error { return nil }
func (*wal) Sync() error                                 { return nil }
func (*wal) Close() error                                { return nil }

// journal keeps a long-lived wal handle, like the follower keeps its
// archive.
type journal struct {
	arc *wal
}

// checkpointNeverSynced defers a checkpoint through a field that no
// function in this package ever syncs with a consumed error — the
// checkpoint would stay unobservable forever.
func (j *journal) checkpointNeverSynced(block uint64) error {
	return j.arc.AppendCheckpointDeferred(block) // want "field arc takes deferred checkpoints without any checked Sync in this package"
}

// syncDiscarded drops the Sync error, so the field stays unpromoted.
func (j *journal) syncDiscarded() {
	j.arc.Sync()
}

// localDeferredNoSync defers on a local wal and never syncs it.
func localDeferredNoSync(block uint64) error {
	w := &wal{}
	return w.AppendCheckpointDeferred(block) // want "w takes a deferred checkpoint without a checked Sync in this function"
}

// syncingWAL adds a combined append-and-sync checkpoint method. It does
// not promote a deferred checkpoint: only a checked Sync or Close does.
type syncingWAL struct{ wal }

func (*syncingWAL) AppendCheckpoint(block uint64) error { return nil }

// deferredThenSyncingAppend follows a deferred checkpoint with the
// combined append, not a Sync.
func deferredThenSyncingAppend(block uint64) error {
	w := &syncingWAL{}
	if err := w.AppendCheckpointDeferred(block); err != nil { // want "w takes a deferred checkpoint without a checked Sync in this function"
		return err
	}
	return w.AppendCheckpoint(block + 1)
}
