package archive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"leishen/internal/types"
	"leishen/internal/vfs"
)

// indexSnapshot captures everything Open builds in memory, so tests can
// assert a sidecar-loaded archive is byte-identical to a replay-built
// one. Stats are deliberately excluded — the two paths differ there by
// construction.
type indexSnapshot struct {
	frames      []frameRef
	segs        []segment // sealed pointer normalized below
	perms       [][]uint32
	bloomBits   [][]uint64
	activeTx    map[types.Hash]int
	reports     int
	lastCP      int
	newestCP    int
	checkpoints []Checkpoint
}

func snapshot(a *Archive) indexSnapshot {
	s := indexSnapshot{
		frames:   append([]frameRef(nil), a.frames...),
		activeTx: make(map[types.Hash]int, len(a.activeTx)),
		reports:  a.reports,
		lastCP:   a.lastCP,
		newestCP: a.newestCP,
	}
	for i := 0; i <= a.lastCP && i < len(a.frames); i++ {
		if a.frames[i].kind == KindCheckpoint {
			s.checkpoints = append(s.checkpoints, Checkpoint{Block: a.frames[i].block, Digest: a.frames[i].digest})
		}
	}
	for h, i := range a.activeTx {
		s.activeTx[h] = i
	}
	for i := range a.segs {
		seg := a.segs[i]
		if seg.sealed != nil {
			// Sidecar loads defer the bloom build to the first lookup;
			// materialize it here so the comparison still proves the
			// sidecar-derived filter equals the replay-built one.
			if !seg.sealed.bloomBuilt {
				a.buildBloomLocked(i)
			}
			s.perms = append(s.perms, append([]uint32(nil), seg.sealed.perm...))
			s.bloomBits = append(s.bloomBits, append([]uint64(nil), seg.sealed.bloom.bits...))
			seg.sealed = nil // normalized: presence captured via perms/bloomBits
		} else {
			s.perms = append(s.perms, nil)
			s.bloomBits = append(s.bloomBits, nil)
		}
		s.segs = append(s.segs, seg)
	}
	return s
}

// openSnapshot opens dir with opts, snapshots the in-memory index, and
// closes again — on a copy when mutate would matter, per the caller.
func openSnapshot(t *testing.T, dir string, opts Options) indexSnapshot {
	t.Helper()
	a, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	a.mu.Lock()
	snap := snapshot(a)
	a.mu.Unlock()
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return snap
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func diffSnapshots(t *testing.T, label string, indexed, replayed indexSnapshot) {
	t.Helper()
	if !reflect.DeepEqual(indexed.frames, replayed.frames) {
		t.Errorf("%s: frameRefs diverge (sidecar %d frames, replay %d)", label, len(indexed.frames), len(replayed.frames))
	}
	if !reflect.DeepEqual(indexed.segs, replayed.segs) {
		t.Errorf("%s: segment metadata diverges:\n sidecar %+v\n replay  %+v", label, indexed.segs, replayed.segs)
	}
	if !reflect.DeepEqual(indexed.perms, replayed.perms) {
		t.Errorf("%s: sealed permutations diverge", label)
	}
	if !reflect.DeepEqual(indexed.bloomBits, replayed.bloomBits) {
		t.Errorf("%s: bloom filters diverge", label)
	}
	if !reflect.DeepEqual(indexed.activeTx, replayed.activeTx) {
		t.Errorf("%s: active tx index diverges (%d vs %d entries)", label, len(indexed.activeTx), len(replayed.activeTx))
	}
	if indexed.reports != replayed.reports {
		t.Errorf("%s: report counts diverge: %d vs %d", label, indexed.reports, replayed.reports)
	}
	if indexed.lastCP != replayed.lastCP || indexed.newestCP != replayed.newestCP {
		t.Errorf("%s: checkpoint cursors diverge: (%d,%d) vs (%d,%d)", label, indexed.lastCP, indexed.newestCP, replayed.lastCP, replayed.newestCP)
	}
	if !reflect.DeepEqual(indexed.checkpoints, replayed.checkpoints) {
		t.Errorf("%s: Checkpoints() diverges", label)
	}
}

// TestSidecarIndexMatchesReplay is the byte-identity proof: for every
// recovery scenario, an Open that loads sealed segments from sidecars
// must build exactly the index a full replay builds — same frameRefs,
// same tx index, same checkpoints, same fences, perms and bloom bits.
func TestSidecarIndexMatchesReplay(t *testing.T) {
	const n = 60
	opts := Options{SegmentBytes: 512}
	build := func(t *testing.T) string {
		dir := t.TempDir()
		a := buildArchive(t, dir, n, opts)
		if a.Segments() < 4 {
			t.Fatalf("want >= 4 segments, got %d", a.Segments())
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	compare := func(t *testing.T, dir string) {
		t.Helper()
		indexed := openSnapshot(t, copyDir(t, dir), opts)
		replayed := openSnapshot(t, copyDir(t, dir), Options{SegmentBytes: opts.SegmentBytes, NoSidecars: true})
		diffSnapshots(t, t.Name(), indexed, replayed)
	}

	t.Run("clean_close", func(t *testing.T) {
		dir := build(t)
		// Every segment — active tail included, thanks to Close — must
		// load from its sidecar.
		a, err := Open(copyDir(t, dir), opts)
		if err != nil {
			t.Fatal(err)
		}
		st := a.Stats()
		if st.OpenReplays != 0 || st.OpenSidecarLoads != st.Segments {
			t.Errorf("clean reopen replayed %d of %d segments (want 0)", st.OpenReplays, st.Segments)
		}
		a.Close()
		compare(t, dir)
	})

	t.Run("torn_tail", func(t *testing.T) {
		dir := build(t)
		// A crash mid-append leaves a partial frame and a stale sidecar
		// on the final segment; both open paths must truncate it away.
		nums, err := listSegments(vfs.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		last := filepath.Join(dir, fmt.Sprintf("seg-%08d.log", nums[len(nums)-1]))
		torn, err := appendRecord(nil, sampleRecord(n))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn[:len(torn)-3]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		compare(t, dir)
	})

	t.Run("stale_active_sidecar", func(t *testing.T) {
		dir := build(t)
		// Reopen, append more, crash without Close: the tail's sidecar
		// describes the shorter log and must be rejected as stale.
		a, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := n; i < n+6; i++ {
			if err := a.AppendReport(sampleRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Sync(); err != nil {
			t.Fatal(err)
		}
		crashed := copyDir(t, dir) // dir as a crash would leave it
		a.Close()
		ar, err := Open(copyDir(t, crashed), opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := ar.Stats(); st.OpenReplays != 1 {
			t.Errorf("stale tail: want exactly 1 replayed segment, got %d", st.OpenReplays)
		}
		ar.Close()
		indexed := openSnapshot(t, copyDir(t, crashed), opts)
		replayed := openSnapshot(t, copyDir(t, crashed), Options{SegmentBytes: opts.SegmentBytes, NoSidecars: true})
		diffSnapshots(t, t.Name(), indexed, replayed)
	})

	t.Run("corrupt_sidecar", func(t *testing.T) {
		dir := build(t)
		nums, err := listSegments(vfs.OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		idx := filepath.Join(dir, fmt.Sprintf("seg-%08d.idx", nums[0]))
		data, err := os.ReadFile(idx)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(idx, data, 0o644); err != nil {
			t.Fatal(err)
		}
		work := copyDir(t, dir)
		a, err := Open(work, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := a.Stats(); st.OpenReplays != 1 {
			t.Errorf("corrupt sidecar: want 1 replayed segment, got %d", st.OpenReplays)
		}
		a.Close()
		// The fallback replay must also have rewritten a valid sidecar.
		fixed, err := os.ReadFile(filepath.Join(work, fmt.Sprintf("seg-%08d.idx", nums[0])))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeSidecar(fixed); err != nil {
			t.Errorf("rewritten sidecar does not decode: %v", err)
		}
		compare(t, dir)
	})

	t.Run("rollback", func(t *testing.T) {
		dir := build(t)
		a, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.RollbackAbove(uint64(n / 4)); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		compare(t, dir)
	})
}

// TestSelectPrunedMatchesLinear holds the fence/bloom-pruned Select to
// a linear filter over the appended reports (modelSelect) on randomized
// reopened archives: every query — including full pagination walks via
// After — must return the model's records and more flag, and pruning
// must skip segments along the way.
func TestSelectPrunedMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4; trial++ {
		dir := t.TempDir()
		a, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		var recs []modelRec
		block := uint64(1)
		n := 40 + rng.Intn(80)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				block += uint64(rng.Intn(4))
			}
			var flags uint8
			switch rng.Intn(4) {
			case 0:
				flags = FlagFlashLoan
			case 1:
				flags = FlagFlashLoan | FlagAttack
			case 2:
				flags = FlagFlashLoan | FlagAttack | FlagSuppressed
			}
			r := modelRec{
				hash:   types.HashFromData([]byte("sel"), []byte{byte(trial), byte(i), byte(i >> 8)}),
				block:  block,
				flags:  flags,
				report: []byte(fmt.Sprintf(`{"i":%d}`, i)),
			}
			if err := a.AppendReport(&Record{Kind: KindReport, TxHash: r.hash, Block: r.block, Flags: r.flags, Report: r.report}); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
			if rng.Intn(8) == 0 {
				if err := a.AppendCheckpointDeferred(Checkpoint{Block: block, Digest: types.HashFromData([]byte{byte(i)})}); err != nil {
					t.Fatal(err)
				}
				if err := a.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}

		pruned, err := Open(dir, Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}

		queries := []Query{
			{},
			{Flags: FlagAttack},
			{Flags: FlagAttack | FlagSuppressed},
			{FromBlock: block / 2},
			{ToBlock: block / 2},
			{FromBlock: block + 10},
		}
		for q := 0; q < 12; q++ {
			queries = append(queries, Query{
				FromBlock: uint64(rng.Intn(int(block) + 2)),
				ToBlock:   uint64(rng.Intn(int(block) + 2)),
				Flags:     uint8(rng.Intn(2)) * FlagAttack,
				Limit:     rng.Intn(9),
			})
		}
		for qi, q := range queries {
			requireSelectMatchesModel(t, pruned, recs, q, fmt.Sprintf("trial %d query %d %+v", trial, qi, q))
		}

		// Pagination walk: page through everything with a small limit and
		// check every page is the model's.
		walk := Query{Flags: FlagFlashLoan, Limit: 3}
		for page := 0; page < 100; page++ {
			got := requireSelectMatchesModel(t, pruned, recs, walk, fmt.Sprintf("trial %d page %d", trial, page))
			if len(got) == 0 {
				break
			}
			walk.After = got[len(got)-1].hash
		}
		if st := pruned.Stats(); st.SelectSegmentsPruned == 0 {
			t.Errorf("trial %d: pruned path never skipped a segment across %d queries", trial, len(queries))
		}
		pruned.Close()
	}
}

// TestGetRecordCache pins the read-through cache's contract: hits are
// counted and served without disk reads, returned records never alias
// cache memory, rollback invalidates wholesale, and the cache respects
// its bound.
func TestGetRecordCache(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 30, Options{SegmentBytes: 512, CacheRecords: 4})
	defer a.Close()

	h := sampleRecord(3).TxHash
	rec1, ok, err := a.Get(h)
	if err != nil || !ok {
		t.Fatalf("get miss: ok=%v err=%v", ok, err)
	}
	rec2, ok, err := a.Get(h)
	if err != nil || !ok {
		t.Fatalf("get hit: ok=%v err=%v", ok, err)
	}
	st := a.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("want 1 hit / 1 miss, got %d / %d", st.CacheHits, st.CacheMisses)
	}

	// Mutating a returned record must not poison the cache.
	for i := range rec2.Report {
		rec2.Report[i] = 'X'
	}
	rec3, _, err := a.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec3.Report, rec1.Report) {
		t.Errorf("cache returned mutated bytes: %q", rec3.Report)
	}

	// The bound holds however many distinct hashes flow through.
	for i := 0; i < 20; i++ {
		if _, _, err := a.Get(sampleRecord(i).TxHash); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Stats(); st.CacheRecords > 4 {
		t.Errorf("cache holds %d records, bound is 4", st.CacheRecords)
	}

	// Rollback rewrites history: the cache must empty.
	if _, err := a.RollbackAbove(5); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.CacheRecords != 0 {
		t.Errorf("cache holds %d records after rollback, want 0", st.CacheRecords)
	}
}

// TestGetLatestDuplicateWins archives the same tx hash in two different
// segments and checks lookups — which now probe sealed segments newest
// first — still return the latest copy, matching the old single-map
// semantics.
func TestGetLatestDuplicateWins(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	h := types.HashFromData([]byte("dup"))
	for i := 0; i < 12; i++ {
		rec := sampleRecord(i)
		if i == 1 || i == 11 {
			rec.TxHash = h
			rec.Report = []byte(fmt.Sprintf(`{"copy":%d}`, i))
		}
		if err := a.AppendReport(rec); err != nil {
			t.Fatal(err)
		}
	}
	if a.Segments() < 2 {
		t.Fatalf("want rotation, got %d segments", a.Segments())
	}
	rec, ok, err := a.Get(h)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if string(rec.Report) != `{"copy":11}` {
		t.Errorf("want the latest duplicate, got %s", rec.Report)
	}
}

// TestDeferredCheckpointObservability pins the group-commit durability
// contract at the archive layer: a checkpoint appended deferred is
// invisible to Checkpoint/Checkpoints until a Sync promotes it.
func TestDeferredCheckpointObservability(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.AppendReport(sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
	cp := sampleCheckpoint(1)
	if err := a.AppendCheckpointDeferred(cp); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Checkpoint(); ok {
		t.Fatalf("deferred checkpoint observable before sync: %+v", got)
	}
	if cps := a.Checkpoints(); len(cps) != 0 {
		t.Fatalf("Checkpoints() returned %d before sync", len(cps))
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	got, ok := a.Checkpoint()
	if !ok || got != cp {
		t.Fatalf("after sync: got %+v ok=%v, want %+v", got, ok, cp)
	}
	if cps := a.Checkpoints(); len(cps) != 1 || cps[0] != cp {
		t.Fatalf("Checkpoints() after sync: %+v", cps)
	}
}

// FuzzSidecarDecode throws arbitrary bytes at the sidecar decoder — the
// code Open trusts to shortcut replay — and pins down the property that
// makes sidecars safe as a cache: every input either fails validation
// with errBadSidecar or decodes to an index whose re-encoding
// reproduces the input byte for byte. There is no third outcome in
// which corrupt bytes yield a plausible-but-wrong index.
func FuzzSidecarDecode(f *testing.F) {
	frames := []frameRef{
		{kind: KindReport, block: 3, flags: FlagFlashLoan, txHash: types.HashFromData([]byte("a")), size: 60},
		{kind: KindReport, block: 3, flags: FlagFlashLoan | FlagAttack, txHash: types.HashFromData([]byte("b")), size: 61},
		{kind: KindCheckpoint, block: 3, digest: types.HashFromData([]byte("blk")), size: checkpointFrame},
		{kind: KindReport, block: 5, flags: FlagFlashLoan, txHash: types.HashFromData([]byte("a")), size: 62},
	}
	var segSize int64
	for i := range frames {
		segSize += frames[i].size
	}
	valid := encodeSidecar(buildSidecar(frames, segSize, 0xdeadbeef, buildPerm(frames)))
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(valid[2:])
	mutated := append([]byte(nil), valid...)
	mutated[sidecarHeaderSize+3] ^= 0x80
	f.Add(mutated)
	empty := encodeSidecar(buildSidecar(nil, 0, 0, nil))
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("LSIX"))
	f.Add(bytes.Repeat([]byte{0x00}, sidecarHeaderSize+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := decodeSidecar(data)
		if err != nil {
			if !errors.Is(err, errBadSidecar) {
				t.Fatalf("decode error outside errBadSidecar: %v", err)
			}
			return
		}
		enc := encodeSidecar(sc)
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, enc)
		}
		// The decoder promised internal consistency: spot-check the two
		// invariants lookups rely on.
		var sum int64
		for i := range sc.entries {
			sum += sc.entries[i].size
		}
		if sum != sc.segSize {
			t.Fatalf("accepted sidecar whose sizes sum to %d, not %d", sum, sc.segSize)
		}
		for i := 1; i < len(sc.perm); i++ {
			a, b := sc.perm[i-1], sc.perm[i]
			if bytes.Compare(sc.entries[a].txHash[:], sc.entries[b].txHash[:]) > 0 {
				t.Fatal("accepted sidecar with unsorted perm")
			}
		}
	})
}
