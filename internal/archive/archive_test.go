package archive

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/types"
)

// sampleRecord builds a deterministic report record; the report body is
// small so torn-tail tests stay fast while still crossing many byte
// boundaries.
func sampleRecord(i int) *Record {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], uint64(i))
	flags := FlagFlashLoan
	if i%2 == 0 {
		flags |= FlagAttack
	}
	return &Record{
		Kind:   KindReport,
		TxHash: types.HashFromData([]byte("tx"), seed[:]),
		Block:  uint64(1 + i/2), // two records per block
		Flags:  flags,
		Report: []byte(fmt.Sprintf(`{"txHash":"0x%02x","isAttack":%v}`, i, i%2 == 0)),
	}
}

func sampleCheckpoint(block uint64) Checkpoint {
	var seed [8]byte
	binary.BigEndian.PutUint64(seed[:], block)
	return Checkpoint{Block: block, Digest: types.HashFromData([]byte("blk"), seed[:])}
}

// buildArchive appends n sample records (two per block, with a
// checkpoint after each block) and returns the still-open archive.
func buildArchive(t *testing.T, dir string, n int, opts Options) *Archive {
	t.Helper()
	a, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lastBlock := uint64(0)
	for i := 0; i < n; i++ {
		rec := sampleRecord(i)
		if rec.Block != lastBlock {
			if lastBlock != 0 {
				if err := a.AppendCheckpoint(sampleCheckpoint(lastBlock)); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
			lastBlock = rec.Block
		}
		if err := a.AppendReport(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if lastBlock != 0 {
		if err := a.AppendCheckpoint(sampleCheckpoint(lastBlock)); err != nil {
			t.Fatalf("final checkpoint: %v", err)
		}
	}
	return a
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	// Tiny segments so the corpus spans several files.
	a := buildArchive(t, dir, n, Options{SegmentBytes: 512})
	if a.Segments() < 3 {
		t.Fatalf("want rotation across >= 3 segments, got %d", a.Segments())
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	b, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b.Close()
	if got := b.Count(); got != n {
		t.Fatalf("reopened count = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		want := sampleRecord(i)
		got, ok, err := b.Get(want.TxHash)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if got.Block != want.Block || got.Flags != want.Flags || !bytes.Equal(got.Report, want.Report) {
			t.Fatalf("record %d mutated across reopen:\n got %+v\nwant %+v", i, got, want)
		}
	}
	cp, ok := b.Checkpoint()
	if !ok || cp != sampleCheckpoint(sampleRecord(n-1).Block) {
		t.Fatalf("checkpoint after reopen = %+v ok=%v", cp, ok)
	}
}

// TestTornTailEveryByte is the crash-safety property test: an archive
// whose active segment is cut at EVERY possible byte offset must reopen
// without error, recover exactly the records whose frames lie wholly
// before the cut — byte for byte — and truncate the rest away.
func TestTornTailEveryByte(t *testing.T) {
	master := t.TempDir()
	const n = 6
	a := buildArchive(t, master, n, Options{})
	if a.Segments() != 1 {
		t.Fatalf("want a single segment, got %d", a.Segments())
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segName := fmt.Sprintf("%s%08d%s", segPrefix, 1, segSuffix)
	data, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct the frame boundaries so each cut has an exact
	// expectation.
	type frame struct {
		rec Record
		end int64
	}
	var frames []frame
	var off int64
	for int(off) < len(data) {
		rec, sz, err := decodeRecord(data[off:])
		if err != nil {
			t.Fatalf("master segment invalid at %d: %v", off, err)
		}
		off += int64(sz)
		frames = append(frames, frame{rec: rec, end: off})
	}

	for cut := int64(0); cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}

		var wantReports int
		var wantCP *Checkpoint
		for _, f := range frames {
			if f.end > cut {
				break
			}
			switch f.rec.Kind {
			case KindReport:
				wantReports++
				got, ok, err := b.Get(f.rec.TxHash)
				if err != nil || !ok {
					t.Fatalf("cut %d: lost record %s: ok=%v err=%v", cut, f.rec.TxHash.Short(), ok, err)
				}
				if !bytes.Equal(got.Report, f.rec.Report) || got.Block != f.rec.Block || got.Flags != f.rec.Flags {
					t.Fatalf("cut %d: record %s not byte-identical", cut, f.rec.TxHash.Short())
				}
			case KindCheckpoint:
				cp := Checkpoint{Block: f.rec.Block, Digest: f.rec.Digest}
				wantCP = &cp
			}
		}
		if got := b.Count(); got != wantReports {
			t.Fatalf("cut %d: recovered %d reports, want %d", cut, got, wantReports)
		}
		cp, ok := b.Checkpoint()
		if (wantCP != nil) != ok || (wantCP != nil && cp != *wantCP) {
			t.Fatalf("cut %d: checkpoint %+v ok=%v, want %v", cut, cp, ok, wantCP)
		}
		// The torn tail must be gone from disk so a later append starts at
		// the recovered boundary.
		var wantSize int64
		for _, f := range frames {
			if f.end > cut {
				break
			}
			wantSize = f.end
		}
		if fi, err := os.Stat(filepath.Join(dir, segName)); err != nil {
			t.Fatal(err)
		} else if fi.Size() != wantSize {
			t.Fatalf("cut %d: segment is %d bytes after recovery, want %d", cut, fi.Size(), wantSize)
		}
		if err := b.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestAppendAfterRecovery checks the archive stays writable after a torn
// tail was truncated mid-frame.
func TestAppendAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 4, Options{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, 1, segSuffix))
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer b.Close()
	rec := sampleRecord(99)
	rec.Block = 100
	if err := b.AppendReport(rec); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get(rec.TxHash)
	if err != nil || !ok || !bytes.Equal(got.Report, rec.Report) {
		t.Fatalf("post-recovery append unreadable: ok=%v err=%v", ok, err)
	}
}

// TestCorruptionBeforeTailFails: damage anywhere other than the active
// tail is not a torn write and must refuse to open silently.
func TestCorruptionBeforeTailFails(t *testing.T) {
	dir := t.TempDir()
	a := buildArchive(t, dir, 30, Options{SegmentBytes: 512})
	if a.Segments() < 2 {
		t.Fatalf("want >= 2 segments, got %d", a.Segments())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the FIRST segment.
	segPath := filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, 1, segSuffix))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 512}); err == nil {
		t.Fatal("open accepted a corrupt non-final segment")
	}
}

func TestAppendOrderEnforced(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rec := sampleRecord(0)
	rec.Block = 5
	if err := a.AppendReport(rec); err != nil {
		t.Fatal(err)
	}
	back := sampleRecord(1)
	back.Block = 4
	if err := a.AppendReport(back); err == nil {
		t.Fatal("append accepted a block going backwards")
	}
	if err := a.AppendCheckpoint(Checkpoint{Block: 4}); err == nil {
		t.Fatal("checkpoint accepted a block going backwards")
	}
}

func TestSelect(t *testing.T) {
	dir := t.TempDir()
	const n = 20 // blocks 1..10, two records per block, attacks at even i
	a := buildArchive(t, dir, n, Options{})
	defer a.Close()

	all, more, err := a.Select(Query{})
	if err != nil || more || len(all) != n {
		t.Fatalf("select all = %d records, more=%v, err=%v", len(all), more, err)
	}
	for i, rec := range all {
		if want := sampleRecord(i); rec.TxHash != want.TxHash {
			t.Fatalf("select order broken at %d", i)
		}
	}

	attacks, _, err := a.Select(Query{Flags: FlagAttack})
	if err != nil || len(attacks) != n/2 {
		t.Fatalf("attack filter = %d, want %d (err=%v)", len(attacks), n/2, err)
	}

	ranged, _, err := a.Select(Query{FromBlock: 3, ToBlock: 4})
	if err != nil || len(ranged) != 4 {
		t.Fatalf("block range = %d records, want 4 (err=%v)", len(ranged), err)
	}
	for _, rec := range ranged {
		if rec.Block < 3 || rec.Block > 4 {
			t.Fatalf("record block %d escaped range [3,4]", rec.Block)
		}
	}

	// Pagination: walk the full set 7 at a time.
	var walked []Record
	var after types.Hash
	for {
		page, more, err := a.Select(Query{After: after, Limit: 7})
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page...)
		if !more {
			break
		}
		after = page[len(page)-1].TxHash
	}
	if len(walked) != n {
		t.Fatalf("pagination walked %d records, want %d", len(walked), n)
	}
	for i := range walked {
		if walked[i].TxHash != all[i].TxHash {
			t.Fatalf("pagination order broken at %d", i)
		}
	}
}

// TestRollbackAbove verifies reorg rollback leaves the on-disk log
// byte-identical to an archive that never saw the removed records.
func TestRollbackAbove(t *testing.T) {
	dirA := t.TempDir()
	const n = 30
	opts := Options{SegmentBytes: 512}
	a := buildArchive(t, dirA, n, opts)

	removed, err := a.RollbackAbove(7)
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if removed == 0 {
		t.Fatal("rollback removed nothing")
	}
	for i := 0; i < n; i++ {
		want := sampleRecord(i)
		_, ok, err := a.Get(want.TxHash)
		if err != nil {
			t.Fatal(err)
		}
		if keep := want.Block <= 7; ok != keep {
			t.Fatalf("record %d (block %d): present=%v want %v", i, want.Block, ok, keep)
		}
	}
	if cp, ok := a.Checkpoint(); !ok || cp.Block != 7 {
		t.Fatalf("checkpoint after rollback = %+v ok=%v, want block 7", cp, ok)
	}
	// Appends continue from the fork.
	rec := sampleRecord(98)
	rec.Block = 8
	if err := a.AppendReport(rec); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if _, err := a.RollbackAbove(7); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: an archive that only ever saw blocks <= 7.
	dirB := t.TempDir()
	b, err := Open(dirB, opts)
	if err != nil {
		t.Fatal(err)
	}
	lastBlock := uint64(0)
	for i := 0; i < n; i++ {
		rec := sampleRecord(i)
		if rec.Block > 7 {
			break
		}
		if rec.Block != lastBlock {
			if lastBlock != 0 {
				if err := b.AppendCheckpoint(sampleCheckpoint(lastBlock)); err != nil {
					t.Fatal(err)
				}
			}
			lastBlock = rec.Block
		}
		if err := b.AppendReport(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AppendCheckpoint(sampleCheckpoint(lastBlock)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	compareDirs(t, dirA, dirB)
}

// compareDirs asserts two archive directories hold identical files.
func compareDirs(t *testing.T, dirA, dirB string) {
	t.Helper()
	listA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	listB, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(listA) != len(listB) {
		t.Fatalf("directory shapes differ: %d vs %d files", len(listA), len(listB))
	}
	for i := range listA {
		if listA[i].Name() != listB[i].Name() {
			t.Fatalf("file %d: %s vs %s", i, listA[i].Name(), listB[i].Name())
		}
		a, err := os.ReadFile(filepath.Join(dirA, listA[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, listB[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between the archives (%d vs %d bytes)", listA[i].Name(), len(a), len(b))
		}
	}
}

// TestReportCodecRoundTrip stores a real wire-form report and reads it
// back through the core codec.
func TestReportCodecRoundTrip(t *testing.T) {
	want := core.ReportJSON{
		TxHash:        types.HashFromData([]byte("rt")).String(),
		Block:         42,
		Time:          time.Date(2020, 2, 15, 1, 38, 57, 0, time.UTC),
		IsFlashLoanTx: true,
		IsAttack:      true,
		BorrowerTags:  []string{"app:bZx"},
		Matches: []core.MatchJSON{{
			Pattern: "SBS", Target: "WBTC", Counterparty: "Compound",
			Rounds: 1, Trades: 3, VolatilityPct: 132.65,
		}},
	}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	h := types.HashFromData([]byte("rt"))
	if err := a.AppendReport(&Record{Kind: KindReport, TxHash: h, Block: 42, Flags: FlagFlashLoan | FlagAttack, Report: raw}); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := a.Get(h)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	got, err := core.DecodeReportJSON(rec.Report)
	if err != nil {
		t.Fatalf("decode stored report: %v", err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("report mutated through the archive:\n got %+v\nwant %+v", *got, want)
	}
}

// TestAppendRecordFrameLayout pins the frame bytes appendRecord writes
// in place against the documented layout, assembled independently:
// [len][CRC32C(payload)][payload], payload = kind + fixed fields (+ JSON).
func TestAppendRecordFrameLayout(t *testing.T) {
	frame := func(payload []byte) []byte {
		hdr := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		hdr = binary.BigEndian.AppendUint32(hdr, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		return append(hdr, payload...)
	}
	rep := sampleRecord(3)
	repPayload := append([]byte{byte(KindReport)}, rep.TxHash[:]...)
	repPayload = binary.BigEndian.AppendUint64(repPayload, rep.Block)
	repPayload = append(append(repPayload, rep.Flags), rep.Report...)
	cp := &Record{Kind: KindCheckpoint, Block: 42, Digest: types.HashFromData([]byte("blk"))}
	cpPayload := binary.BigEndian.AppendUint64([]byte{byte(KindCheckpoint)}, cp.Block)
	cpPayload = append(cpPayload, cp.Digest[:]...)

	got, err := appendRecord([]byte("head"), rep)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = appendRecord(got, cp); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte("head"), frame(repPayload)...), frame(cpPayload)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("frames diverge from the layout:\n got: %x\nwant: %x", got, want)
	}

	for name, bad := range map[string]*Record{
		"unknown kind": {Kind: 9},
		"oversized":    {Kind: KindReport, Report: make([]byte, maxPayloadSize)},
	} {
		if out, err := appendRecord([]byte("keep"), bad); err == nil || string(out) != "keep" {
			t.Errorf("%s: appendRecord = %q, %v; want an error and dst unextended", name, out, err)
		}
	}
}
