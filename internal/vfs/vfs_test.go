package vfs

import (
	"bytes"
	"errors"
	"io"
	gofs "io/fs"
	"os"
	"syscall"
	"testing"
)

// TestMemFSDurability pins the crash model: bytes written but not
// synced live only in the volatile view, a Sync pins them durably, and
// a directory entry survives a crash only after SyncDir on its parent.
func TestMemFSDurability(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	f, err := m.OpenFile("d/a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	s := m.Snapshot()
	if got := s.Volatile["d/a"]; !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("volatile = %q, want hello", got)
	}
	if _, ok := s.Durable["d/a"]; ok {
		t.Fatalf("unsynced entry must not be durable")
	}

	// File content synced, but the directory entry still volatile: the
	// name itself is lost at a crash.
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s = m.Snapshot()
	if _, ok := s.Durable["d/a"]; ok {
		t.Fatalf("entry durable before SyncDir")
	}

	if err := m.SyncDir("d"); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	s = m.Snapshot()
	if got := s.Durable["d/a"]; !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("durable = %q, want hello", got)
	}

	// Bytes appended after the sync stay volatile until the next Sync.
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s = m.Snapshot()
	if got := s.Durable["d/a"]; !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("durable after unsynced append = %q, want hello", got)
	}
	if got := s.Volatile["d/a"]; !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("volatile = %q, want hello world", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := m.Snapshot().Durable["d/a"]; !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("durable after sync = %q", got)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); !errors.Is(err, gofs.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestMemFSRename pins the rename model: the new name is volatile until
// SyncDir, and the durable content tracks the file, not the name.
func TestMemFSRename(t *testing.T) {
	m := NewMemFSFromFiles([]string{"d"}, map[string][]byte{"d/tmp": []byte("x")})
	if err := m.Rename("d/tmp", "d/final"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	s := m.Snapshot()
	if _, ok := s.Volatile["d/tmp"]; ok {
		t.Fatalf("old name survived rename")
	}
	if _, ok := s.Durable["d/final"]; ok {
		t.Fatalf("renamed-in entry durable before SyncDir")
	}
	if err := m.SyncDir("d"); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if got := m.Snapshot().Durable["d/final"]; !bytes.Equal(got, []byte("x")) {
		t.Fatalf("durable = %q, want x", got)
	}
}

// TestMemFSWriteFileKeepsOldDurable: an unsynced whole-file rewrite
// must not clobber the previous durable image.
func TestMemFSWriteFileKeepsOldDurable(t *testing.T) {
	m := NewMemFSFromFiles([]string{"d"}, map[string][]byte{"d/a": []byte("old")})
	if err := m.WriteFile("d/a", []byte("new"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	s := m.Snapshot()
	if got := s.Durable["d/a"]; !bytes.Equal(got, []byte("old")) {
		t.Fatalf("durable = %q, want old", got)
	}
	if got := s.Volatile["d/a"]; !bytes.Equal(got, []byte("new")) {
		t.Fatalf("volatile = %q, want new", got)
	}
}

// TestMemFSFileSemantics pins the handle contract the archive relies
// on: positional writes, ReadAt with io.EOF short reads, Seek whence
// forms, and Truncate in both directions.
func TestMemFSFileSemantics(t *testing.T) {
	m := NewMemFS()
	f, err := m.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if pos, err := f.Seek(2, io.SeekStart); err != nil || pos != 2 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	if _, err := f.Write([]byte("XY")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	buf := make([]byte, 6)
	if n, err := f.ReadAt(buf, 0); err != nil || n != 6 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, []byte("abXYef")) {
		t.Fatalf("content = %q", buf)
	}
	if n, err := f.ReadAt(buf, 4); n != 2 || err != io.EOF {
		t.Fatalf("short ReadAt = %d, %v; want 2, EOF", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("past-end ReadAt err = %v, want EOF", err)
	}
	if pos, err := f.Seek(-2, io.SeekEnd); err != nil || pos != 4 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	if err := f.Truncate(3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if sz, err := m.Size("a"); err != nil || sz != 3 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatalf("grow Truncate: %v", err)
	}
	got, err := m.ReadFile("a")
	if err != nil || !bytes.Equal(got, []byte("abX\x00\x00")) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}

	// A write straddling the end, one past it, and one past it after a
	// Truncate kept the cut-off bytes in spare capacity: the file reads
	// back what was written and zeros in every gap, never stale bytes.
	for _, w := range []struct {
		truncate, at int64
		data, want   string
	}{
		{2, 1, "QRS", "aQRS"},
		{4, 6, "Z", "aQRS\x00\x00Z"},
		{1, 3, "W", "a\x00\x00W"},
	} {
		if err := f.Truncate(w.truncate); err != nil {
			t.Fatalf("Truncate(%d): %v", w.truncate, err)
		}
		if _, err := f.Seek(w.at, io.SeekStart); err != nil {
			t.Fatalf("Seek(%d): %v", w.at, err)
		}
		if _, err := f.Write([]byte(w.data)); err != nil {
			t.Fatalf("Write(%q): %v", w.data, err)
		}
		if got, err := m.ReadFile("a"); err != nil || string(got) != w.want {
			t.Fatalf("after writing %q at %d: ReadFile = %q, %v; want %q", w.data, w.at, got, err, w.want)
		}
	}
}

// TestMemFSReopenFromSnapshot: NewMemFSFromFiles(durable view) is the
// crash-then-reboot disk; everything on it is fully durable.
func TestMemFSReopenFromSnapshot(t *testing.T) {
	m := NewMemFSFromFiles([]string{"d"}, map[string][]byte{"d/a": []byte("keep")})
	f, err := m.OpenFile("d/b", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("lost")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s := m.Snapshot()
	re := NewMemFSFromFiles(s.Dirs, s.Durable)
	if _, err := re.ReadFile("d/b"); !errors.Is(err, gofs.ErrNotExist) {
		t.Fatalf("unsynced file survived crash: %v", err)
	}
	got, err := re.ReadFile("d/a")
	if err != nil || !bytes.Equal(got, []byte("keep")) {
		t.Fatalf("durable file = %q, %v", got, err)
	}
	names, err := re.ReadDir("d")
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("ReadDir = %v, %v", names, err)
	}
}

// TestFaultFSInjection exercises each scheduled fault kind and checks
// classification plus stats accounting.
func TestFaultFSInjection(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultPlan{WriteErrEvery: 2, SyncErrEvery: 2})
	if err := ffs.MkdirAll("d", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	f, err := ffs.OpenFile("d/a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("full"))
	if err == nil {
		t.Fatalf("write 2 should fail")
	}
	if !IsTransient(err) {
		t.Fatalf("injected write error not transient: %v", err)
	}
	if !errors.Is(err, syscall.EINTR) {
		t.Fatalf("injected write error not EINTR: %v", err)
	}
	if n != 2 {
		t.Fatalf("torn write applied %d bytes, want 2", n)
	}
	// The torn half really landed.
	got, _ := mem.ReadFile("d/a")
	if !bytes.Equal(got, []byte("okfu")) {
		t.Fatalf("file after torn write = %q", got)
	}

	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	err = f.Sync()
	if err == nil || !IsTransient(err) {
		t.Fatalf("sync 2 = %v, want transient", err)
	}
	// The failed fsync must NOT have pinned anything new: the durable
	// image still holds only what sync 1 saw.
	if got := mem.Snapshot().Durable; got != nil {
		if img, ok := got["d/a"]; ok && !bytes.Equal(img, []byte("okfu")) {
			t.Fatalf("failed fsync leaked bytes: durable = %q", img)
		}
	}
	if err := f.Sync(); err != nil { // 3rd sync: schedule skips it
		t.Fatalf("sync 3: %v", err)
	}
	st := ffs.Stats()
	if st.InjectedWriteErrs != 1 || st.InjectedSyncErrs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if open, names := ffs.OpenHandles(); open != 0 {
		t.Fatalf("leaked handles: %v", names)
	}
}

// TestFaultFSBudget drains the ENOSPC byte budget and refills it.
func TestFaultFSBudget(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), FaultPlan{WriteBudget: 4})
	f, err := ffs.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("1234")); err != nil {
		t.Fatalf("in-budget write: %v", err)
	}
	n, err := f.Write([]byte("56"))
	if err == nil || !errors.Is(err, syscall.ENOSPC) || !IsTransient(err) {
		t.Fatalf("over-budget write = %d, %v", n, err)
	}
	ffs.AddWriteBudget(64)
	if _, err := f.Write([]byte("56")); err != nil {
		t.Fatalf("post-refill write: %v", err)
	}
	if got := ffs.Stats().InjectedENOSPC; got != 1 {
		t.Fatalf("InjectedENOSPC = %d", got)
	}
}

// TestFaultFSShortWrite: the short-write schedule reports n < len(p)
// with io.ErrShortWrite, which IsTransient accepts.
func TestFaultFSShortWrite(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), FaultPlan{ShortWriteEvery: 1})
	f, err := ffs.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	n, err := f.Write([]byte("abcd"))
	if n != 2 || !errors.Is(err, io.ErrShortWrite) || !IsTransient(err) {
		t.Fatalf("short write = %d, %v", n, err)
	}
}

// TestFaultFSDisarm: after Disarm, the same schedule injects nothing.
func TestFaultFSDisarm(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), FaultPlan{WriteErrEvery: 1, SyncErrEvery: 1})
	ffs.Disarm()
	f, err := ffs.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("disarmed write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("disarmed sync: %v", err)
	}
}

// TestFaultFSDoubleClose: a second Close is reported and counted, and
// only the first reaches the inner handle.
func TestFaultFSDoubleClose(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), FaultPlan{})
	f, err := ffs.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close 1: %v", err)
	}
	if err := f.Close(); !errors.Is(err, gofs.ErrClosed) {
		t.Fatalf("Close 2 = %v, want ErrClosed", err)
	}
	st := ffs.Stats()
	if st.Closes != 1 || st.DoubleCloses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFaultFSOnOp: the crash hook fires once per applied mutating op.
func TestFaultFSOnOp(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), FaultPlan{})
	var ops []string
	ffs.OnOp(func(op string) { ops = append(ops, op) })
	f, err := ffs.OpenFile("a", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := []string{"open a", "write a", "sync a"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops[%d] = %q, want %q", i, ops[i], want[i])
		}
	}
}

// TestIsTransient pins the classification table.
func TestIsTransient(t *testing.T) {
	for _, err := range []error{
		ErrTransient,
		io.ErrShortWrite,
		syscall.ENOSPC,
		syscall.EINTR,
		syscall.EAGAIN,
		syscall.ETIMEDOUT,
	} {
		if !IsTransient(err) {
			t.Errorf("IsTransient(%v) = false", err)
		}
	}
	for _, err := range []error{
		nil,
		errors.New("corrupt frame"),
		gofs.ErrClosed,
		syscall.EIO,
	} {
		if IsTransient(err) {
			t.Errorf("IsTransient(%v) = true", err)
		}
	}
}

// TestOSFSPassthrough smoke-tests the real-filesystem implementation
// against a temp dir: the archive's default path.
func TestOSFSPassthrough(t *testing.T) {
	dir := t.TempDir()
	if err := OS.MkdirAll(dir+"/sub", 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	f, err := OS.OpenFile(dir+"/sub/a.log", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := OS.SyncDir(dir + "/sub"); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	got, err := OS.ReadFile(dir + "/sub/a.log")
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if sz, err := OS.Size(dir + "/sub/a.log"); err != nil || sz != 4 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	names, err := OS.ReadDir(dir + "/sub")
	if err != nil || len(names) != 1 || names[0] != "a.log" {
		t.Fatalf("ReadDir = %v, %v", names, err)
	}
	if err := OS.Rename(dir+"/sub/a.log", dir+"/sub/b.log"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if err := OS.Remove(dir + "/sub/b.log"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := OS.Size(dir + "/sub/b.log"); !errors.Is(err, gofs.ErrNotExist) {
		t.Fatalf("Size after remove = %v", err)
	}
}
