package main

import (
	"bufio"
	"encoding/json"
	gofs "io/fs"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"leishen/internal/evm"
	"leishen/internal/follower"
	"leishen/internal/vfs"
)

// Outside-in probes. Every span and count here is taken in the
// benchmark's own code, around calls into the program's public
// functions; nothing inside the program is instrumented.

// span is one timed call at a layer boundary. Spans of one block or one
// request share a parent; a parent's self time is its duration minus
// the part its children cover.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the traced run ends. A nil tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; end closes and records it.
func (t *tracer) begin(name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.next.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its direct children cover. Every child here runs on its parent's
// goroutine, so the parent does no work of its own while a child runs.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsCounts are the timing filesystem's tallies.
type fsCounts struct {
	writes, writeBytes atomic.Int64
	syncs              atomic.Int64
	readAts, readBytes atomic.Int64
	mu                 sync.Mutex
	syncNs             []float64
}

func (c *fsCounts) observeSync(d time.Duration) {
	c.syncs.Add(1)
	c.mu.Lock()
	c.syncNs = append(c.syncNs, float64(d))
	c.mu.Unlock()
}

// timingFS wraps the filesystem handed to archive.OpenFS and counts
// every write, sync and read-at call, their bytes, and sync latency.
type timingFS struct {
	vfs.FS
	c *fsCounts
}

func (t timingFS) OpenFile(name string, flag int, perm gofs.FileMode) (vfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: f, c: t.c}, nil
}

func (t timingFS) WriteFile(name string, data []byte, perm gofs.FileMode) error {
	t.c.writes.Add(1)
	t.c.writeBytes.Add(int64(len(data)))
	return t.FS.WriteFile(name, data, perm)
}

func (t timingFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.FS.SyncDir(dir)
	t.c.observeSync(time.Since(start))
	return err
}

type timingFile struct {
	vfs.File
	c *fsCounts
}

func (f timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f timingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.readAts.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.observeSync(time.Since(start))
	return err
}

// countingSource counts the follower's calls into its BlockSource.
type countingSource struct {
	follower.BlockSource
	calls *atomic.Int64
}

func (c countingSource) HeadBlock() (uint64, error) {
	c.calls.Add(1)
	return c.BlockSource.HeadBlock()
}

func (c countingSource) BlockByNumber(n uint64) (*evm.Block, bool, error) {
	c.calls.Add(1)
	return c.BlockSource.BlockByNumber(n)
}

// heapAllocs reads the process-wide count of heap objects allocated so
// far. ReadMemStats flushes every per-processor cache first, so the
// count is exact at the moment of the call.
func heapAllocs() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.Mallocs
}
