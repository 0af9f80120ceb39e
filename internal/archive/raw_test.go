package archive

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"leishen/internal/types"
)

// TestSelectRawMatchesSelect pins the zero-decode path's contract on
// randomized reopened archives: for any query, SelectRaw and Select
// return exactly the model's page (modelSelect over the appended
// reports) — same order, same more flag, and Report bytes identical to
// the stored JSON — including a full pagination walk.
func TestSelectRawMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
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
				hash:   types.HashFromData([]byte("raw"), []byte{byte(trial), byte(i), byte(i >> 8)}),
				block:  block,
				flags:  flags,
				report: []byte(fmt.Sprintf(`{"i":%d,"trial":%d}`, i, trial)),
			}
			if err := a.AppendReport(&Record{Kind: KindReport, TxHash: r.hash, Block: r.block, Flags: r.flags, Report: r.report}); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
			// Interleaved checkpoints give the run coalescer gaps to skip.
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

		arc, err := Open(dir, Options{SegmentBytes: 256})
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
			{After: types.HashFromData([]byte("no-such-record"))},
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
			requireSelectMatchesModel(t, arc, recs, q, fmt.Sprintf("trial %d query %d", trial, qi))
		}

		// Pagination walk with a small limit: the cursor chain must visit
		// the model's pages.
		walk := Query{Flags: FlagFlashLoan, Limit: 3}
		for page := 0; page < 100; page++ {
			got := requireSelectMatchesModel(t, arc, recs, walk, fmt.Sprintf("trial %d page %d", trial, page))
			if len(got) == 0 {
				break
			}
			walk.After = got[len(got)-1].hash
		}
		arc.Close()
	}
}

// TestGetRawSharesCacheWithGet pins that the point lookups run on one
// shared raw-bytes cache: a Get primes GetRaw's hit and vice versa, and
// the raw hit serves the stored bytes without a disk read.
func TestGetRawSharesCacheWithGet(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 30, Options{SegmentBytes: 512, CacheRecords: 8})
	defer a.Close()

	// Miss via Get primes the cache; GetRaw must hit it.
	h := sampleRecord(3).TxHash
	rec, ok, err := a.Get(h)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	raw, ok, err := a.GetRaw(h)
	if err != nil || !ok {
		t.Fatalf("getraw: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(raw.Report, rec.Report) {
		t.Fatalf("raw report %q != decoded report %q", raw.Report, rec.Report)
	}
	if raw.TxHash != rec.TxHash || raw.Block != rec.Block || raw.Flags != rec.Flags {
		t.Fatalf("raw metadata %+v != decoded record %+v", raw, rec)
	}
	st := a.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("want 1 hit / 1 miss across Get+GetRaw, got %d / %d", st.CacheHits, st.CacheMisses)
	}

	// And the symmetric order: GetRaw primes, Get hits.
	h2 := sampleRecord(7).TxHash
	if _, ok, err := a.GetRaw(h2); err != nil || !ok {
		t.Fatalf("getraw miss: ok=%v err=%v", ok, err)
	}
	if _, ok, err := a.Get(h2); err != nil || !ok {
		t.Fatalf("get hit: ok=%v err=%v", ok, err)
	}
	if st := a.Stats(); st.CacheHits != 2 || st.CacheMisses != 2 {
		t.Errorf("want 2 hits / 2 misses, got %d / %d", st.CacheHits, st.CacheMisses)
	}

	// Absent hash: clean miss on both paths.
	if _, ok, _ := a.GetRaw(types.HashFromData([]byte("absent"))); ok {
		t.Error("GetRaw found a record for an absent hash")
	}
}

// TestRawReadRunCoalescing checks that a dense Select issues far fewer
// disk reads than frames fetched — the ReadFrames/ReadRuns ratio is the
// coalescer's whole point — and that a fresh archive reads sealed
// segments through cached handles without error after rollback.
func TestRawReadRunCoalescing(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 200, Options{SegmentBytes: 2048})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen so every record lives on disk, not in the write buffer.
	a, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	recs, _, err := a.SelectRaw(Query{Flags: FlagFlashLoan})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("select matched nothing")
	}
	st := a.Stats()
	if st.ReadFrames < uint64(len(recs)) {
		t.Fatalf("ReadFrames %d < %d records returned", st.ReadFrames, len(recs))
	}
	if st.ReadRuns == 0 || st.ReadRuns*4 > st.ReadFrames {
		t.Errorf("coalescing ineffective: %d runs for %d frames (want >= 4 frames per run on a dense scan)",
			st.ReadRuns, st.ReadFrames)
	}

	// Rollback truncates history and must drop the cached read handles
	// with it; the next reads reopen them against the rewritten files.
	if _, err := a.RollbackAbove(20); err != nil {
		t.Fatal(err)
	}
	again, _, err := a.SelectRaw(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range again {
		if r.Block > 20 {
			t.Fatalf("record from block %d survived RollbackAbove(20)", r.Block)
		}
	}
	if _, _, err := a.GetRaw(sampleRecord(3).TxHash); err != nil {
		t.Fatalf("GetRaw after rollback: %v", err)
	}
}

// TestSelectRawLimitAndCursor pins the pagination contract details the
// serving layer depends on: more is true only when an actual further
// match exists, an exhausted cursor yields an empty page, and an
// unknown cursor is an error on both paths.
func TestSelectRawLimitAndCursor(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 20, Options{SegmentBytes: 512})
	defer a.Close()

	all, more, err := a.SelectRaw(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Error("unlimited select reported more=true")
	}
	if len(all) != 20 {
		t.Fatalf("got %d records, want 20", len(all))
	}

	// Exact-limit page: everything returned, nothing more.
	page, more, err := a.SelectRaw(Query{Limit: 20})
	if err != nil || len(page) != 20 || more {
		t.Fatalf("limit=20: %d recs, more=%v, err=%v (want 20, false, nil)", len(page), more, err)
	}
	// After the final record: empty page, more=false — the serving
	// layer's "walked off the end" case.
	tail, more, err := a.SelectRaw(Query{After: all[len(all)-1].TxHash})
	if err != nil || len(tail) != 0 || more {
		t.Fatalf("after last: %d recs, more=%v, err=%v (want 0, false, nil)", len(tail), more, err)
	}
	// Unknown cursor errors identically on both paths.
	bogus := Query{After: types.HashFromData([]byte("never archived"))}
	if _, _, err := a.SelectRaw(bogus); err == nil {
		t.Error("SelectRaw accepted an unknown pagination cursor")
	}
	if _, _, err := a.Select(bogus); err == nil {
		t.Error("Select accepted an unknown pagination cursor")
	}
}
