package archive

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"leishen/internal/types"
	"leishen/internal/vfs"
)

// modelRec is what the test appended: the oracle list queries are
// checked against, independent of the archive's gather and run reader.
type modelRec struct {
	hash   types.Hash
	block  uint64
	flags  uint8
	report []byte
}

// selectWorld is a randomized archive on a MemFS plus its model.
type selectWorld struct {
	arc  *Archive
	fs   *vfs.MemFS
	recs []modelRec
	last uint64 // newest block appended
}

// selectShape sizes a randomized archive.
type selectShape struct {
	n        int   // reports appended
	segBytes int64 // rotation threshold
	bigShare int   // one report in bigShare is 4–9 KiB (0: none)
}

// buildSelectWorld appends shape.n reports with random verdict flags
// and sizes, a few per block, with deferred checkpoints interleaved as
// gaps and random syncs, and leaves the archive open — so the newest
// frames may still sit in the write buffer.
func buildSelectWorld(tb testing.TB, rng *rand.Rand, shape selectShape) *selectWorld {
	tb.Helper()
	fs := vfs.NewMemFS()
	a, err := OpenFS(fs, "arc", Options{SegmentBytes: shape.segBytes, CacheRecords: -1})
	if err != nil {
		tb.Fatal(err)
	}
	w := &selectWorld{arc: a, fs: fs, last: 1}
	flagSets := []uint8{0, FlagFlashLoan, FlagFlashLoan | FlagAttack, FlagFlashLoan | FlagAttack | FlagSuppressed, FlagFlashLoan | FlagSuppressed}
	for i := 0; i < shape.n; i++ {
		if rng.Intn(3) == 0 {
			w.last += uint64(1 + rng.Intn(2))
		}
		pad := rng.Intn(120)
		if shape.bigShare > 0 && rng.Intn(shape.bigShare) == 0 {
			pad = 4<<10 + rng.Intn(5<<10)
		}
		r := modelRec{
			hash:   types.HashFromData([]byte("appendselect"), []byte(fmt.Sprint(i))),
			block:  w.last,
			flags:  flagSets[rng.Intn(len(flagSets))],
			report: []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, strings.Repeat("x", pad))),
		}
		if err := a.AppendReport(&Record{Kind: KindReport, TxHash: r.hash, Block: r.block, Flags: r.flags, Report: r.report}); err != nil {
			tb.Fatal(err)
		}
		w.recs = append(w.recs, r)
		if rng.Intn(6) == 0 {
			if err := a.AppendCheckpointDeferred(Checkpoint{Block: w.last, Digest: r.hash}); err != nil {
				tb.Fatal(err)
			}
		}
		if rng.Intn(40) == 0 {
			if err := a.Sync(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return w
}

// want answers q from the model: the matching reports, the more flag,
// and ok=false for an unknown cursor.
func (w *selectWorld) want(q Query) (page []modelRec, more, ok bool) {
	start := 0
	if !q.After.IsZero() {
		start = -1
		for i := range w.recs {
			if w.recs[i].hash == q.After {
				start = i + 1
			}
		}
		if start < 0 {
			return nil, false, false
		}
	}
	for _, r := range w.recs[start:] {
		if r.block < q.FromBlock || (q.ToBlock != 0 && r.block > q.ToBlock) || r.flags&q.Flags != q.Flags {
			continue
		}
		if q.Limit > 0 && len(page) == q.Limit {
			return page, true, true
		}
		page = append(page, r)
	}
	return page, false, true
}

// check runs q through AppendSelect into a dst that arrives non-empty
// with random spare capacity, and compares the result with the model
// and with a per-frame reference: GetRaw of each matching hash (the
// cache is off, so each one is its own frame read), joined by commas.
// SelectRaw and Select must return the same documents. It returns the
// page for cursor walks.
func (w *selectWorld) check(tb testing.TB, rng *rand.Rand, q Query, ctx string) SelectPage {
	tb.Helper()
	prefix := make([]byte, rng.Intn(40))
	rng.Read(prefix)
	dst := make([]byte, len(prefix), len(prefix)+rng.Intn(300))
	copy(dst, prefix)

	got, page, err := w.arc.AppendSelect(dst, q)
	recs, more, ok := w.want(q)
	if !ok {
		if !errors.Is(err, ErrUnknownCursor) {
			tb.Fatalf("%s: unknown cursor gave err %v, want ErrUnknownCursor", ctx, err)
		}
		if len(got) != len(prefix) || !bytes.Equal(got, prefix) {
			tb.Fatalf("%s: dst extended or damaged on error", ctx)
		}
		return page
	}
	if err != nil {
		tb.Fatalf("%s: %v", ctx, err)
	}
	var model, ref []byte
	for i, r := range recs {
		raw, found, err := w.arc.GetRaw(r.hash)
		if err != nil || !found {
			tb.Fatalf("%s: GetRaw %s: found=%v err=%v", ctx, r.hash, found, err)
		}
		if i > 0 {
			model = append(model, ',')
			ref = append(ref, ',')
		}
		model = append(model, r.report...)
		ref = append(ref, raw.Report...)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		tb.Fatalf("%s: the prefix dst arrived with was overwritten", ctx)
	}
	if body := got[len(prefix):]; !bytes.Equal(body, model) || !bytes.Equal(body, ref) {
		tb.Fatalf("%s: body differs:\ngot   %.200q\nmodel %.200q\nref   %.200q", ctx, body, model, ref)
	}
	if page.Count != len(recs) || page.More != more {
		tb.Fatalf("%s: page %+v, want count %d more %v", ctx, page, len(recs), more)
	}
	if len(recs) > 0 && page.Last != recs[len(recs)-1].hash {
		tb.Fatalf("%s: page.Last %s, want %s", ctx, page.Last, recs[len(recs)-1].hash)
	}

	raws, rawMore, err := w.arc.SelectRaw(q)
	if err != nil || rawMore != more || len(raws) != len(recs) {
		tb.Fatalf("%s: SelectRaw %d recs more=%v err=%v, want %d more=%v", ctx, len(raws), rawMore, err, len(recs), more)
	}
	decs, decMore, err := w.arc.Select(q)
	if err != nil || decMore != more || len(decs) != len(recs) {
		tb.Fatalf("%s: Select %d recs more=%v err=%v, want %d more=%v", ctx, len(decs), decMore, err, len(recs), more)
	}
	for i, r := range recs {
		if raws[i].TxHash != r.hash || raws[i].Block != r.block || raws[i].Flags != r.flags || !bytes.Equal(raws[i].Report, r.report) {
			tb.Fatalf("%s: SelectRaw record %d = %+v, want %s", ctx, i, raws[i], r.hash)
		}
		if decs[i].TxHash != r.hash || !bytes.Equal(decs[i].Report, r.report) {
			tb.Fatalf("%s: Select record %d = %s, want %s", ctx, i, decs[i].TxHash, r.hash)
		}
	}
	return page
}

// randomQuery draws a block range, verdict filter and limit; now and
// then a cursor (a stored hash, or one never stored).
func (w *selectWorld) randomQuery(rng *rand.Rand) Query {
	filters := []uint8{0, FlagFlashLoan, FlagAttack, FlagSuppressed, FlagAttack | FlagSuppressed}
	q := Query{Flags: filters[rng.Intn(len(filters))], Limit: rng.Intn(12)}
	if rng.Intn(2) == 0 {
		q.FromBlock = uint64(rng.Intn(int(w.last) + 2))
	}
	if rng.Intn(2) == 0 {
		q.ToBlock = uint64(rng.Intn(int(w.last) + 2))
	}
	switch rng.Intn(6) {
	case 0:
		q.After = w.recs[rng.Intn(len(w.recs))].hash
	case 1:
		q.After = types.HashFromData([]byte("never stored"), []byte{byte(rng.Intn(256))})
	}
	return q
}

// walk pages through q with a cursor until the archive says no more.
func (w *selectWorld) walk(tb testing.TB, rng *rand.Rand, q Query, ctx string) {
	tb.Helper()
	for page := 0; page < 10_000; page++ {
		p := w.check(tb, rng, q, fmt.Sprintf("%s page %d", ctx, page))
		if !p.More {
			return
		}
		q.After = p.Last
	}
	tb.Fatalf("%s: cursor walk did not terminate", ctx)
}

// TestAppendSelectMatchesPerFrame is the differential test of the
// in-place compaction: on randomized archives — many small segments,
// checkpoints interleaved as gaps, frames still in the write buffer,
// reports large enough to split runs at the gap and span caps — every
// verdict filter, random ranges, limits and cursors, and full after=
// walks, AppendSelect's body must equal the model's reports and the
// per-frame GetRaw reference, joined with commas.
func TestAppendSelectMatchesPerFrame(t *testing.T) {
	shapes := []selectShape{
		{n: 150, segBytes: 700},
		{n: 300, segBytes: 64 << 10, bigShare: 8},
		{n: 700, segBytes: 6 << 20, bigShare: 3},
	}
	for si, shape := range shapes {
		rng := rand.New(rand.NewSource(int64(40 + si)))
		w := buildSelectWorld(t, rng, shape)
		w.requireCoverage(t, si)
		for _, flags := range []uint8{0, FlagFlashLoan, FlagAttack, FlagSuppressed, FlagAttack | FlagSuppressed} {
			w.check(t, rng, Query{Flags: flags}, fmt.Sprintf("shape %d flags %d", si, flags))
			w.walk(t, rng, Query{Flags: flags, Limit: 1 + rng.Intn(40)}, fmt.Sprintf("shape %d walk flags %d", si, flags))
		}
		for qi := 0; qi < 60; qi++ {
			q := w.randomQuery(rng)
			w.check(t, rng, q, fmt.Sprintf("shape %d query %d %+v", si, qi, q))
		}
		if err := w.arc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// requireCoverage asserts the shape exercises what it is meant to: the
// first many segments, every one frames in the write buffer, the later
// ones runs cut at the 4 KiB gap (attack-filtered matches separated by
// other reports) and, the largest, at the 1 MiB span.
func (w *selectWorld) requireCoverage(t *testing.T, shape int) {
	t.Helper()
	a := w.arc
	a.mu.Lock()
	defer a.mu.Unlock()
	var buffered, bigGap, bigSpan bool
	for s := range a.segs {
		firstReport, prevAttackEnd := int64(-1), int64(-1)
		for i := a.segs[s].firstFrame; i < a.segEndLocked(s); i++ {
			f := &a.frames[i]
			buffered = buffered || a.frameBufferedLocked(f)
			if f.kind != KindReport {
				continue
			}
			if firstReport < 0 {
				firstReport = f.off
			}
			bigSpan = bigSpan || f.off+f.size-firstReport > maxReadRunBytes
			if f.flags&FlagAttack == 0 {
				continue
			}
			bigGap = bigGap || (prevAttackEnd >= 0 && f.off-prevAttackEnd > maxReadGapBytes)
			prevAttackEnd = f.off + f.size
		}
	}
	if shape == 0 && len(a.segs) < 10 {
		t.Fatalf("shape 0 has %d segments, want many", len(a.segs))
	}
	if !buffered {
		t.Fatalf("shape %d: no frame left in the write buffer", shape)
	}
	if shape > 0 && !bigGap {
		t.Fatalf("shape %d: no attack-filter gap over %d bytes", shape, maxReadGapBytes)
	}
	if shape == 2 && !bigSpan {
		t.Fatalf("shape %d: no segment spans over %d bytes of reports", shape, maxReadRunBytes)
	}
}

// FuzzAppendSelect drives the differential check with fuzzed archive
// shapes and queries: any divergence from the model or the per-frame
// reference, or a damaged dst prefix, fails.
func FuzzAppendSelect(f *testing.F) {
	f.Add(int64(1), uint16(60), uint16(700), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(200), uint16(4096), uint8(8), uint8(3), uint8(20), uint8(2), uint8(5))
	f.Add(int64(3), uint16(120), uint16(60000), uint8(2), uint8(5), uint8(0), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, segBytes uint16, bigShare, from, span, flags, limit uint8) {
		rng := rand.New(rand.NewSource(seed))
		w := buildSelectWorld(t, rng, selectShape{n: 1 + int(n%400), segBytes: int64(segBytes), bigShare: int(bigShare % 16)})
		defer w.arc.Close()
		q := Query{FromBlock: uint64(from), Flags: flags & (FlagFlashLoan | FlagAttack | FlagSuppressed), Limit: int(limit % 16)}
		if span > 0 {
			q.ToBlock = uint64(from) + uint64(span)
		}
		w.check(t, rng, q, fmt.Sprintf("query %+v", q))
		if q.Limit > 0 {
			w.walk(t, rng, q, fmt.Sprintf("walk %+v", q))
		}
	})
}

// TestAppendSelectCorruptFrame flips one byte of a synced report frame
// through a second handle: the list read must fail with an error that
// is not ErrUnknownCursor and leave dst unextended.
func TestAppendSelectCorruptFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := buildSelectWorld(t, rng, selectShape{n: 40, segBytes: 1 << 20})
	defer w.arc.Close()
	if err := w.arc.Sync(); err != nil {
		t.Fatal(err)
	}
	w.arc.mu.Lock()
	target := w.arc.frames[len(w.arc.frames)/2]
	for i := len(w.arc.frames) / 2; target.kind != KindReport; i++ {
		target = w.arc.frames[i]
	}
	path := w.arc.segmentPath(w.arc.segs[target.seg].number)
	w.arc.mu.Unlock()

	f, err := w.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	at := target.off + target.size - 2
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.Seek(at, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	dst := append(make([]byte, 0, 64), "head"...)
	got, page, err := w.arc.AppendSelect(dst, Query{})
	if err == nil {
		t.Fatal("AppendSelect served a frame that fails its checksum")
	}
	if errors.Is(err, ErrUnknownCursor) || !errors.Is(err, errBadFrame) {
		t.Fatalf("corrupt frame error %v: want a bad-frame error, not ErrUnknownCursor", err)
	}
	if string(got) != "head" || page != (SelectPage{}) {
		t.Fatalf("on error got dst %q page %+v, want dst unextended and a zero page", got, page)
	}
	if _, _, err := w.arc.SelectRaw(Query{}); err == nil {
		t.Fatal("SelectRaw served a frame that fails its checksum")
	}
}

// TestAppendSelectAllocs pins the list read's steady state: with the
// gather scratch warmed and dst presized, a page — disk runs and
// write-buffer frames alike — allocates nothing on the archive side.
func TestAppendSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	rng := rand.New(rand.NewSource(9))
	w := buildSelectWorld(t, rng, selectShape{n: 400, segBytes: 16 << 10})
	defer w.arc.Close()
	for _, q := range []Query{{Limit: 100}, {Flags: FlagAttack, Limit: 1000}, {FromBlock: w.last - 5}} {
		dst := make([]byte, 0, 1<<20)
		var err error
		run := func() {
			if _, _, err = w.arc.AppendSelect(dst[:0], q); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the gather scratch and the segment read handles
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("query %+v: %.1f allocations per AppendSelect, want 0", q, allocs)
		}
	}
}
