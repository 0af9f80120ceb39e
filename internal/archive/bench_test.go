package archive

import (
	"testing"

	"leishen/internal/types"
)

// benchArchive appends n sample records (no checkpoints — the read
// benches don't care) into a fresh archive and returns it still open.
func benchArchive(b *testing.B, n int, opts Options) *Archive {
	b.Helper()
	a, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.AppendReport(sampleRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := a.Sync(); err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkAppend measures the unsynced append path (framing + write);
// cmd/benchjson records the fsync-per-block figure end to end.
func BenchmarkAppend(b *testing.B) {
	a, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	rec := sampleRecord(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Block = uint64(i + 1)
		if err := a.AppendReport(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetHit measures Get served from the read-through record
// cache: one clone, no disk.
func BenchmarkGetHit(b *testing.B) {
	a := benchArchive(b, 4096, Options{SegmentBytes: 1 << 20})
	defer a.Close()
	hashes := make([]types.Hash, 256)
	for i := range hashes {
		hashes[i] = sampleRecord(i).TxHash
	}
	// Warm the cache so every timed Get hits.
	for _, h := range hashes {
		if _, ok, err := a.Get(h); !ok || err != nil {
			b.Fatalf("warm get: ok=%v err=%v", ok, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := a.Get(hashes[i%len(hashes)]); !ok || err != nil {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkGetMiss measures the uncached path — bloom probe, binary
// search, disk read, CRC verify, decode — by disabling the cache.
func BenchmarkGetMiss(b *testing.B) {
	a := benchArchive(b, 4096, Options{SegmentBytes: 1 << 20, CacheRecords: -1})
	defer a.Close()
	hashes := make([]types.Hash, 256)
	for i := range hashes {
		hashes[i] = sampleRecord(i).TxHash
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := a.Get(hashes[i%len(hashes)]); !ok || err != nil {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// reopenDir builds a closed archive directory for the reopen benches.
func reopenDir(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.AppendReport(sampleRecord(i)); err != nil {
			b.Fatal(err)
		}
		if (i+1)%512 == 0 {
			if err := syncedCheckpoint(a, sampleCheckpoint(sampleRecord(i).Block)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := a.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkReopenIndexed measures Open when every segment loads from
// its sidecar — the clean-restart path.
func BenchmarkReopenIndexed(b *testing.B) {
	dir := reopenDir(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if a.Count() != 100_000 {
			b.Fatal("bad count")
		}
		b.StopTimer()
		a.Close()
		b.StartTimer()
	}
}

// BenchmarkReopenReplay measures the same open forced down the full
// replay path — the pre-sidecar baseline and the crash fallback.
func BenchmarkReopenReplay(b *testing.B) {
	dir := reopenDir(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Open(dir, Options{NoSidecars: true})
		if err != nil {
			b.Fatal(err)
		}
		if a.Count() != 100_000 {
			b.Fatal("bad count")
		}
		b.StopTimer()
		a.Close()
		b.StartTimer()
	}
}
