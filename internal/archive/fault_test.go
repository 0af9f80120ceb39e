// Fault-injection tests: the archive on a FaultFS-wrapped MemFS. These
// pin two robustness contracts:
//
//   - handle hygiene: every vfs.File the archive opens is closed
//     exactly once, across rotation, cached readers, rollback and Close;
//   - transient-fault retryability: injected torn writes, short writes,
//     ENOSPC and fsync failures leave the archive in a state where
//     retrying the failed operation converges to the exact bytes an
//     unfaulted run produces.
package archive

import (
	"bytes"
	"strings"
	"testing"

	"leishen/internal/vfs"
)

// runWorkload appends n sample records with a checkpoint per block,
// calling retry around every fallible operation. Checkpoints go through
// the archive's one checkpoint protocol, deferred append + Sync, which
// the follower uses: each step is idempotent under retry (a failed
// append leaves nothing buffered, a failed sync promotes nothing). retry is the test's policy knob: the unfaulted baseline
// passes a run-once.
func runWorkload(t *testing.T, a *Archive, n int, retry func(op func() error) error) {
	t.Helper()
	lastBlock := uint64(0)
	for i := 0; i < n; i++ {
		rec := sampleRecord(i)
		if rec.Block != lastBlock && lastBlock != 0 {
			cp := sampleCheckpoint(lastBlock)
			if err := retry(func() error { return a.AppendCheckpointDeferred(cp) }); err != nil {
				t.Fatalf("checkpoint %d: %v", lastBlock, err)
			}
			if err := retry(a.Sync); err != nil {
				t.Fatalf("sync at block %d: %v", lastBlock, err)
			}
		}
		lastBlock = rec.Block
		if err := retry(func() error { return a.AppendReport(rec) }); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := retry(a.Sync); err != nil {
		t.Fatalf("final sync: %v", err)
	}
}

func runOnce(op func() error) error { return op() }

// retryTransient retries op while its error classifies as transient,
// bounded so a mis-classified fatal error fails the test instead of
// spinning.
func retryTransient(t *testing.T) func(op func() error) error {
	return func(op func() error) error {
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			if err = op(); err == nil {
				return nil
			}
			if !vfs.IsTransient(err) {
				t.Fatalf("non-transient error under injected faults: %v", err)
			}
		}
		return err
	}
}

// archiveFiles extracts the archive's on-disk image (segment logs and
// sidecars) from a snapshot view.
func archiveFiles(view map[string][]byte) map[string][]byte {
	out := make(map[string][]byte)
	for name, data := range view {
		if strings.HasSuffix(name, segSuffix) || strings.HasSuffix(name, sidecarSuffix) {
			out[name] = data
		}
	}
	return out
}

// buildBaseline runs the workload with no faults and returns the final
// on-disk image after Close.
func buildBaseline(t *testing.T, n int, opts Options) map[string][]byte {
	t.Helper()
	mem := vfs.NewMemFS()
	a, err := OpenFS(mem, "arc", opts)
	if err != nil {
		t.Fatalf("baseline open: %v", err)
	}
	runWorkload(t, a, n, runOnce)
	if err := a.Close(); err != nil {
		t.Fatalf("baseline close: %v", err)
	}
	return archiveFiles(mem.Snapshot().Durable)
}

func requireSameImage(t *testing.T, want, got map[string][]byte, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: file set differs: want %d files, got %d", ctx, len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: missing %s", ctx, name)
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("%s: %s differs: want %d bytes, got %d", ctx, name, len(w), len(g))
		}
	}
}

// TestArchiveHandleBalance drives open/append/rotate/read/rollback/
// close on a handle-tracking FaultFS and requires every opened file to
// be closed exactly once.
func TestArchiveHandleBalance(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), vfs.FaultPlan{})
	opts := Options{SegmentBytes: 256} // force many rotations
	a, err := OpenFS(ffs, "arc", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	runWorkload(t, a, 40, runOnce)
	if a.Segments() < 3 {
		t.Fatalf("want >= 3 segments, got %d", a.Segments())
	}

	// Open cached read handles on several sealed segments.
	if _, _, err := a.Select(Query{Limit: 0}); err != nil {
		t.Fatalf("select: %v", err)
	}
	for i := 0; i < 40; i += 7 {
		if _, ok, err := a.Get(sampleRecord(i).TxHash); err != nil || !ok {
			t.Fatalf("get %d: %v %v", i, ok, err)
		}
	}

	// Rollback drops segments (and must drop their cached readers).
	if _, err := a.RollbackAbove(5); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if _, _, err := a.Select(Query{Limit: 0}); err != nil {
		t.Fatalf("select after rollback: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen/close once more: sidecar-assisted load must balance too.
	a2, err := OpenFS(ffs, "arc", opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := a2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}

	st := ffs.Stats()
	if open, names := ffs.OpenHandles(); open != 0 {
		t.Fatalf("leaked handles: %v (stats %+v)", names, st)
	}
	if st.DoubleCloses != 0 {
		t.Fatalf("double closes: %+v", st)
	}
	if st.Opens != st.Closes {
		t.Fatalf("opens %d != closes %d", st.Opens, st.Closes)
	}
}

// TestArchiveRetryTornWrites injects torn and short writes (including
// across rotations and sidecar writes) and checks that retrying each
// failed operation converges to the unfaulted run's exact bytes.
func TestArchiveRetryTornWrites(t *testing.T) {
	opts := Options{SegmentBytes: 512}
	want := buildBaseline(t, 60, opts)

	ffs := vfs.NewFaultFS(vfs.NewMemFS(), vfs.FaultPlan{})
	a, err := OpenFS(ffs, "arc", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Write faults only: sync faults during rotation would kill the
	// archive after the old segment is closed, which is the documented
	// fatal path — exercised by the follower tests, not retried here.
	ffs.SetPlan(vfs.FaultPlan{WriteErrEvery: 5, ShortWriteEvery: 7})
	runWorkload(t, a, 60, retryTransient(t))
	ffs.Disarm()
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := ffs.Stats()
	if st.InjectedWriteErrs == 0 || st.InjectedShortWrites == 0 {
		t.Fatalf("faults never fired: %+v", st)
	}

	got := archiveFiles(snapshotOf(ffs).Durable)
	requireSameImage(t, want, got, "torn-write retry")
}

// TestArchiveRetryENOSPC drains a byte budget mid-run; every ENOSPC is
// answered by freeing space and retrying, and the final image matches
// the unfaulted run.
func TestArchiveRetryENOSPC(t *testing.T) {
	opts := Options{SegmentBytes: 512}
	want := buildBaseline(t, 60, opts)

	ffs := vfs.NewFaultFS(vfs.NewMemFS(), vfs.FaultPlan{})
	a, err := OpenFS(ffs, "arc", opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ffs.SetPlan(vfs.FaultPlan{WriteBudget: 700})
	retry := func(op func() error) error {
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			if err = op(); err == nil {
				return nil
			}
			if !vfs.IsTransient(err) {
				t.Fatalf("non-transient error under ENOSPC: %v", err)
			}
			ffs.AddWriteBudget(700) // operator frees space
		}
		return err
	}
	runWorkload(t, a, 60, retry)
	ffs.Disarm()
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if st := ffs.Stats(); st.InjectedENOSPC == 0 {
		t.Fatalf("ENOSPC never fired: %+v", st)
	}
	requireSameImage(t, want, archiveFiles(snapshotOf(ffs).Durable), "enospc retry")
}

// TestArchiveSyncFaultDefersCheckpoint: a failed fsync must leave
// deferred checkpoints unpromoted — the group-commit contract the
// follower's acknowledgement tracking depends on — and a retried Sync
// promotes them.
func TestArchiveSyncFaultDefersCheckpoint(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), vfs.FaultPlan{})
	a, err := OpenFS(ffs, "arc", Options{}) // large segments: no rotation
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := a.AppendReport(sampleRecord(0)); err != nil {
		t.Fatalf("append: %v", err)
	}
	cp := sampleCheckpoint(1)
	if err := a.AppendCheckpointDeferred(cp); err != nil {
		t.Fatalf("deferred checkpoint: %v", err)
	}
	ffs.SetPlan(vfs.FaultPlan{SyncErrEvery: 1})
	err = a.Sync()
	if err == nil || !vfs.IsTransient(err) {
		t.Fatalf("faulted sync = %v, want transient", err)
	}
	if got, ok := a.Checkpoint(); ok {
		t.Fatalf("checkpoint %v promoted by a FAILED sync", got)
	}
	ffs.Disarm()
	if err := a.Sync(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	got, ok := a.Checkpoint()
	if !ok || got != cp {
		t.Fatalf("checkpoint after retried sync = %v %v, want %v", got, ok, cp)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// snapshotOf reaches through a FaultFS to its MemFS snapshot.
func snapshotOf(ffs *vfs.FaultFS) vfs.Snapshot {
	return ffs.Inner().(*vfs.MemFS).Snapshot()
}
