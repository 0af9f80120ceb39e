// The zero-decode read path: queries that return the stored report JSON
// bytes exactly as framed on disk, without rebuilding Record structs.
//
// The archive already stores each report as canonical JSON (the bytes
// the follower marshalled once at ingest), so a serving layer that only
// wants to forward those bytes should never pay decode-then-re-encode
// tax. Every list query runs on one run reader (appendRunsLocked):
// consecutive matching frames of one segment are fetched with a single
// ReadAt through a cached per-segment file handle, straight into the
// caller's buffer, and compacted there to comma-joined report bytes.
// AppendSelect hands that body to the caller; SelectRaw cuts it into
// RawRecords, and Select into Records. GetRaw reads one frame, through
// the record cache.
//
// Get and Select remain the decoded API; both are thin wrappers over
// the raw path, so the two are byte-identical by construction — a
// property the tests still pin on randomized archives, against a
// per-frame reference, rather than trusting the construction.
package archive

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"

	"leishen/internal/types"
	"leishen/internal/vfs"
)

// RawRecord is the zero-decode view of one archived report: the frame
// metadata plus the stored report JSON, returned without rebuilding a
// Record. Report may alias the archive's internal record cache — treat
// it as read-only.
type RawRecord struct {
	TxHash types.Hash
	Block  uint64
	Flags  uint8
	// Report is the stored report document, byte-identical to the JSON
	// that was appended (canonical encoding, no re-marshalling).
	Report []byte
}

// decodeRawRecord validates one report frame at the head of b exactly
// like decodeRecord — length cap, CRC32C, structural bounds — but
// returns the report bytes as a subslice of b instead of copying them.
// Only KindReport frames have a raw form; anything else is an error.
func decodeRawRecord(b []byte) (RawRecord, int, error) {
	rec, n, err := decodeRecordAliased(b)
	if err != nil {
		return RawRecord{}, 0, err
	}
	if rec.Kind != KindReport {
		return RawRecord{}, 0, fmt.Errorf("%w: raw decode of non-report kind %d", errBadFrame, rec.Kind)
	}
	return RawRecord{TxHash: rec.TxHash, Block: rec.Block, Flags: rec.Flags, Report: rec.Report}, n, nil
}

// readRunCoalescing bounds the raw read path's frame coalescing: runs
// of matching frames whose gaps (non-matching frames between them, e.g.
// interleaved checkpoints) stay under maxReadGapBytes are fetched with
// one ReadAt, up to maxReadRunBytes per read. A sparse flag-filtered
// match set degrades gracefully to per-frame reads.
const (
	maxReadRunBytes = 1 << 20
	maxReadGapBytes = 4 << 10
)

// GetRaw reads the archived report for a transaction without decoding
// it, through the same record cache Get uses — a hit costs no disk read
// and no copy. The returned Report bytes may alias the cache: read-only.
func (a *Archive) GetRaw(h types.Hash) (RawRecord, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.getRawLocked(h)
}

// getRawLocked is the shared point-lookup core of Get and GetRaw:
// cache, then bloom-guarded index lookup, then a single frame read that
// populates the cache.
func (a *Archive) getRawLocked(h types.Hash) (RawRecord, bool, error) {
	if raw, ok := a.cache.get(h); ok {
		a.met.cacheHits.Inc()
		return raw, true, nil
	}
	i, ok := a.lookupTxLocked(h)
	if !ok {
		return RawRecord{}, false, nil
	}
	a.met.cacheMisses.Inc()
	raw, err := a.readRawFrameLocked(a.frames[i])
	if err != nil {
		return RawRecord{}, false, err
	}
	a.cache.put(h, raw)
	return raw, true, nil
}

// SelectRaw is Select without the decode: matching reports in append
// (block) order as RawRecords, plus the same more-matches pagination
// signal. It is a view over AppendSelect's run reader: every Report
// subslices one freshly read, compacted buffer.
func (a *Archive) SelectRaw(q Query) ([]RawRecord, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.selectRawLocked(&q)
}

// selectRawLocked reads q's page through appendSelectLocked and cuts
// the comma-joined body back into records. The metadata comes from the
// index entries the run reader checked each frame against, and each
// report's length from its frame size, so no byte is parsed twice.
func (a *Archive) selectRawLocked(q *Query) ([]RawRecord, bool, error) {
	body, page, err := a.appendSelectLocked(nil, q)
	if err != nil || page.Count == 0 {
		return nil, page.More, err
	}
	out := make([]RawRecord, 0, page.Count)
	off := 0
	for _, i := range a.matched[:page.Count] {
		ref := &a.frames[i]
		// A report frame is its report plus header, kind byte and report header.
		end := off + int(ref.size) - frameHeaderSize - 1 - reportHeaderSize
		out = append(out, RawRecord{TxHash: ref.txHash, Block: ref.block, Flags: ref.flags, Report: body[off:end:end]})
		off = end + 1 // the separating comma
	}
	return out, page.More, nil
}

// ErrUnknownCursor is returned (wrapped) by the list queries when
// Query.After names a transaction the archive does not hold — a client
// error, unlike a failed read or a checksum mismatch.
var ErrUnknownCursor = errors.New("archive: unknown pagination cursor")

// SelectPage describes the page AppendSelect appended.
type SelectPage struct {
	// Count is the number of reports appended.
	Count int
	// Last is the tx hash of the last report appended — the After
	// cursor for the next page when More is set.
	Last types.Hash
	// More is true only when a further match exists past the limit.
	More bool
}

// AppendSelect appends the report documents matching q to dst, in
// append (block) order and separated by commas — the inside of a JSON
// array — and describes the page. Pruning, cursor and limit semantics
// are Select's. On error dst is returned unextended.
//
// Each coalesced run of frames is read straight into dst's spare
// capacity and compacted there: every frame is checksum-verified where
// it landed, then its report bytes are moved down over the frame
// header. A serving layer that appends into a pooled buffer therefore
// gets the response body without any intermediate read buffer.
func (a *Archive) AppendSelect(dst []byte, q Query) ([]byte, SelectPage, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appendSelectLocked(dst, &q)
}

// appendSelectLocked gathers q's matching frame indexes into the
// archive's scratch, then reads them with the run reader. Gathering
// first is what lets consecutive matches become one disk read. On
// return a.matched[:page.Count] still holds the page's frame indexes.
func (a *Archive) appendSelectLocked(dst []byte, q *Query) ([]byte, SelectPage, error) {
	minIdx := 0
	if !q.After.IsZero() {
		i, ok := a.lookupTxLocked(q.After)
		if !ok {
			return dst, SelectPage{}, fmt.Errorf("%w %s", ErrUnknownCursor, q.After)
		}
		minIdx = i + 1
	}
	var page SelectPage
	a.matched, page.More = a.gatherPrunedLocked(a.matched[:0], q, minIdx)
	dst, err := a.appendRunsLocked(dst, a.matched)
	if err != nil {
		return dst, SelectPage{}, err
	}
	page.Count = len(a.matched)
	if page.Count > 0 {
		page.Last = a.frames[a.matched[page.Count-1]].txHash
	}
	return dst, page, nil
}

// gatherPrunedLocked walks the segments fence-first, appending the
// frame indexes a query matches to matched. The returned bool is the
// pagination more flag: true only when a further match exists past the
// limit.
func (a *Archive) gatherPrunedLocked(matched []int, q *Query, minIdx int) ([]int, bool) {
	for s := range a.segs {
		seg := &a.segs[s]
		end := a.segEndLocked(s)
		if end <= minIdx {
			continue
		}
		if seg.fence.reports > 0 && q.ToBlock != 0 && seg.fence.minBlock > q.ToBlock {
			// Blocks only grow with the segment number: everything from
			// here on is past the range.
			a.met.selectPruned.Add(uint64(len(a.segs) - s))
			break
		}
		if !seg.fence.overlaps(q) {
			a.met.selectPruned.Inc()
			continue
		}
		a.met.selectScanned.Inc()
		// Frames are block-ordered within the segment: binary-search the
		// range start instead of walking to it.
		segFrames := a.frames[seg.firstFrame:end]
		start := seg.firstFrame + sort.Search(len(segFrames), func(i int) bool {
			return segFrames[i].block >= q.FromBlock
		})
		if start < minIdx {
			start = minIdx
		}
		for i := start; i < end; i++ {
			f := &a.frames[i]
			if q.ToBlock != 0 && f.block > q.ToBlock {
				return matched, false
			}
			if f.kind != KindReport || f.flags&q.Flags != q.Flags {
				continue
			}
			if q.Limit > 0 && len(matched) == q.Limit {
				return matched, true
			}
			matched = append(matched, i)
		}
	}
	return matched, false
}

// appendRunsLocked is the archive's one list-read mechanism: it appends
// the reports of the frames at idxs (ascending), comma-separated, to
// dst. Frames still in the pending write buffer are validated and
// appended from there. Disk frames are grouped into runs — same
// segment, bounded gaps, bounded total span — and each run costs one
// ReadAt, straight into dst's spare capacity, where it is compacted in
// place: each frame is checked (reportFrame) before any of its bytes
// move, then a comma and its report are written at the cursor.
//
// The cursor never passes the start of the next unread frame: a frame
// is frameHeaderSize+1+reportHeaderSize bytes longer than its report,
// and only one separator byte is written per report, so compaction
// only ever moves bytes down (copy handles the overlap). On error dst
// is returned unextended.
func (a *Archive) appendRunsLocked(dst []byte, idxs []int) ([]byte, error) {
	start := len(dst)
	for i := 0; i < len(idxs); {
		first := &a.frames[idxs[i]]
		if a.frameBufferedLocked(first) {
			off := first.off - a.wbase
			report, err := reportFrame(a.wbuf[off:off+first.size], first)
			if err != nil {
				return dst[:start], err
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, report...)
			i++
			continue
		}
		j := i + 1
		for j < len(idxs) {
			prev, next := &a.frames[idxs[j-1]], &a.frames[idxs[j]]
			if next.seg != prev.seg || a.frameBufferedLocked(next) {
				break
			}
			if next.off-(prev.off+prev.size) > maxReadGapBytes {
				break
			}
			if next.off+next.size-first.off > maxReadRunBytes {
				break
			}
			j++
		}
		last := &a.frames[idxs[j-1]]
		f, err := a.readerLocked(first.seg)
		if err != nil {
			return dst[:start], err
		}
		runStart := len(dst)
		span := int(last.off + last.size - first.off)
		dst = slices.Grow(dst, span)
		run := dst[:runStart+span]
		if _, err := f.ReadAt(run[runStart:], first.off); err != nil {
			return dst[:start], fmt.Errorf("archive: read frame run: %w", err)
		}
		a.met.readRuns.Inc()
		a.met.readFrames.Add(uint64(j - i))
		w := runStart
		for k := i; k < j; k++ {
			ref := &a.frames[idxs[k]]
			at := runStart + int(ref.off-first.off)
			report, err := reportFrame(run[at:at+int(ref.size)], ref)
			if err != nil {
				return dst[:start], err
			}
			if k > 0 {
				run[w] = ','
				w++
			}
			w += copy(run[w:], report)
		}
		dst = run[:w]
		i = j
	}
	return dst, nil
}

// reportFrame validates one stored report frame where it lies — length
// cap, CRC32C, kind and payload structure as decodeRawRecord checks
// them, plus agreement with the frame's index entry — and returns its
// report bytes as a subslice of b.
func reportFrame(b []byte, ref *frameRef) ([]byte, error) {
	raw, n, err := decodeRawRecord(b)
	if err != nil {
		return nil, fmt.Errorf("archive: stored frame invalid: %w", err)
	}
	if n != len(b) || raw.TxHash != ref.txHash || raw.Block != ref.block || raw.Flags != ref.flags {
		return nil, fmt.Errorf("archive: stored frame invalid: %w: frame at offset %d disagrees with its index entry", errBadFrame, ref.off)
	}
	return raw.Report, nil
}

// readRawFrameLocked reads and raw-decodes one report frame into a
// fresh buffer.
func (a *Archive) readRawFrameLocked(ref frameRef) (RawRecord, error) {
	buf, err := a.frameBytesLocked(ref)
	if err != nil {
		return RawRecord{}, err
	}
	raw, _, err := decodeRawRecord(buf)
	if err != nil {
		return RawRecord{}, fmt.Errorf("archive: stored frame invalid: %w", err)
	}
	return raw, nil
}

// frameBufferedLocked reports whether ref's bytes are still in the
// pending write buffer rather than the segment file. Frames never
// straddle wbase: the buffer starts at a frame boundary and is always
// written out whole.
func (a *Archive) frameBufferedLocked(ref *frameRef) bool {
	return ref.seg == len(a.segs)-1 && ref.off >= a.wbase
}

// frameBytesLocked returns one frame's bytes in a fresh buffer — copied
// out of the pending write buffer when not yet flushed, read from disk
// through the segment's cached handle otherwise.
func (a *Archive) frameBytesLocked(ref frameRef) ([]byte, error) {
	if a.frameBufferedLocked(&ref) {
		i := ref.off - a.wbase
		return append([]byte(nil), a.wbuf[i:i+ref.size]...), nil
	}
	f, err := a.readerLocked(ref.seg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, ref.size)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("archive: read frame: %w", err)
	}
	a.met.readRuns.Inc()
	a.met.readFrames.Inc()
	return buf, nil
}

// readerLocked returns a cached read-only handle on segment seg's file,
// opening it on first use. Handles are keyed by segment number and
// survive rotation (the file does not change); Close and RollbackAbove
// drop them all.
func (a *Archive) readerLocked(seg int) (vfs.File, error) {
	num := a.segs[seg].number
	if f, ok := a.readers[num]; ok {
		return f, nil
	}
	f, err := a.fs.OpenFile(a.segmentPath(num), os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a.readers[num] = f
	return f, nil
}

// closeReadersLocked closes every cached read handle (in segment order,
// for deterministic error attribution) and returns the first failure.
func (a *Archive) closeReadersLocked() error {
	nums := make([]int, 0, len(a.readers))
	for num := range a.readers {
		nums = append(nums, num)
	}
	sort.Ints(nums)
	var first error
	for _, num := range nums {
		if err := a.readers[num].Close(); err != nil && first == nil {
			first = fmt.Errorf("archive: close reader: %w", err)
		}
		delete(a.readers, num)
	}
	return first
}
