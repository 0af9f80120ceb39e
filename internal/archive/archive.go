// Package archive is the durable verdict store underneath the detection
// pipeline: an embedded, append-only, crash-safe log of detection
// reports plus the follower's progress checkpoints.
//
// On disk the archive is a directory of numbered segment files
// (seg-00000001.log, seg-00000002.log, ...), each a concatenation of
// CRC32C-framed records (see record.go). Appends go to the highest
// numbered segment and rotate to a fresh one past a size threshold, so
// no file grows without bound and reorg rollback can drop whole
// segments. Durability is explicit: Append buffers nothing but only
// Sync guarantees the bytes — callers batch appends and sync once per
// block (or once per group-commit batch via AppendCheckpointDeferred),
// the classic write-ahead-log cadence.
//
// The open cost is proportional to what actually needs replaying, not
// to what is stored. Sealed segments carry a CRC-protected `.idx`
// sidecar (see segindex.go) written at rotation — and for the active
// tail at a clean Close — from which Open loads the index without
// touching the log bytes; only a segment whose sidecar is missing,
// corrupt or stale (the signature of a crash) is replayed, after which
// its sidecar is rewritten. Replay performs torn-tail recovery: a
// partial final record — the signature of a kill -9 mid append — is
// truncated away, after which every fully synced record is recovered
// byte for byte. Corruption anywhere other than the tail of the final
// segment is damage fsync promised could not happen, and Open reports
// it as an error instead of silently dropping data. (With sidecars the
// payload CRCs of sealed segments are re-verified lazily, on first
// read, rather than at open.)
//
// Each segment also carries a fence — min/max block and the union of
// its records' verdict flags — plus a tx-hash bloom filter, so Select
// skips whole segments outside a query's block range or flag mask and
// Get probes a bloom before binary-searching a segment's hash index.
package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"leishen/internal/metrics"
	"leishen/internal/types"
	"leishen/internal/vfs"
)

// DefaultSegmentBytes is the rotation threshold: an active segment at or
// past this size is sealed and a fresh one started.
const DefaultSegmentBytes = 8 << 20

// segPrefix and segSuffix shape the segment file names.
const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// Options configures an archive.
type Options struct {
	// SegmentBytes is the rotation threshold; <= 0 means
	// DefaultSegmentBytes.
	SegmentBytes int64
	// CacheRecords bounds the Get read-through record cache; 0 means
	// DefaultCacheRecords, < 0 disables the cache.
	CacheRecords int
	// NoSidecars disables segment-index sidecars: Open replays every
	// segment and neither rotation nor Close writes .idx files. A
	// benchmark and repair knob — the resulting in-memory index is
	// identical to a sidecar-assisted open's.
	NoSidecars bool
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return DefaultSegmentBytes
}

func (o Options) cacheRecords() int {
	switch {
	case o.CacheRecords < 0:
		return 0
	case o.CacheRecords == 0:
		return DefaultCacheRecords
	default:
		return o.CacheRecords
	}
}

// Checkpoint is the follower's durable progress mark: every block up to
// and including Block is fully archived, and Digest identifies that
// block so a restart can detect a reorg beneath the checkpoint.
type Checkpoint struct {
	Block  uint64     `json:"block"`
	Digest types.Hash `json:"digest"`
}

// frameRef locates one record inside the segment files.
type frameRef struct {
	kind   Kind
	block  uint64
	flags  uint8
	txHash types.Hash
	digest types.Hash // checkpoints only
	seg    int        // index into Archive.segs
	off    int64      // frame start within the segment
	size   int64      // framed size (header + payload)
}

// fence summarizes one segment's report records for query pruning: the
// block span they cover and the union of their verdict-flag bits. A
// query whose range misses the span, or whose flag mask asks for a bit
// no record in the segment carries, skips the segment entirely.
type fence struct {
	minBlock  uint64
	maxBlock  uint64
	flagUnion uint8
	reports   int
}

// observe folds one report record into the fence. Blocks arrive
// non-decreasing, so maxBlock is just the latest.
func (f *fence) observe(block uint64, flags uint8) {
	if f.reports == 0 {
		f.minBlock = block
	}
	f.maxBlock = block
	f.flagUnion |= flags
	f.reports++
}

// overlaps reports whether any record in the fence could match q.
func (f *fence) overlaps(q *Query) bool {
	if f.reports == 0 {
		return false
	}
	if f.maxBlock < q.FromBlock {
		return false
	}
	if q.ToBlock != 0 && f.minBlock > q.ToBlock {
		return false
	}
	return f.flagUnion&q.Flags == q.Flags
}

// sealedSeg is the query index of a sealed (immutable) segment: its
// report frames sorted by tx hash for binary-search lookup, guarded by
// a bloom filter so most negative probes cost a few bit tests.
type sealedSeg struct {
	perm []uint32 // report positions within the segment, (hash, pos)-sorted
	// bloom is built eagerly when a segment seals in memory, but lazily
	// (on the first point lookup probing the segment) after a sidecar
	// load — an open should not pay for lookups that never come.
	bloom      bloom
	bloomBuilt bool
}

// segment is one on-disk log file plus its in-memory query state.
type segment struct {
	number     int   // from the file name, ascending
	size       int64 // valid bytes (after any torn-tail truncation)
	firstFrame int   // index into Archive.frames of this segment's first record
	fence      fence
	sealed     *sealedSeg // nil while the segment is active
}

// Stats is a point-in-time snapshot of the archive's shape and the
// effectiveness of its index layers, for /healthz and diagnostics. It
// is rendered from the same atomic counters /metrics exposes (see
// RegisterMetrics), so the two views can never disagree.
type Stats struct {
	// Records and Segments describe the store itself.
	Records  int `json:"records"`
	Segments int `json:"segments"`
	// SealedSegments counts segments carrying a sealed in-memory index.
	SealedSegments int `json:"sealedSegments"`
	// OpenSidecarLoads / OpenReplays break down how the last Open built
	// the index: segments loaded from their .idx sidecar vs. replayed.
	OpenSidecarLoads int `json:"openSidecarLoads"`
	OpenReplays      int `json:"openReplays"`
	// SelectSegmentsScanned / SelectSegmentsPruned count, across every
	// Select so far, segments walked vs. skipped by fence pruning.
	SelectSegmentsScanned uint64 `json:"selectSegmentsScanned"`
	SelectSegmentsPruned  uint64 `json:"selectSegmentsPruned"`
	// CacheHits / CacheMisses / CacheRecords describe the shared
	// raw-bytes read-through record cache behind Get and GetRaw.
	CacheHits    uint64 `json:"cacheHits"`
	CacheMisses  uint64 `json:"cacheMisses"`
	CacheRecords int    `json:"cacheRecords"`
	// ReadRuns / ReadFrames count the coalesced disk reads issued by the
	// read path: frames fetched per ReadAt is ReadFrames/ReadRuns, the
	// run-coalescing amortization factor.
	ReadRuns   uint64 `json:"readRuns"`
	ReadFrames uint64 `json:"readFrames"`
	// Appends / AppendedBytes / Rotations / Syncs describe the write
	// path: frames accepted (reports and checkpoints), their framed
	// size on disk, segment rotations, and fsyncs issued.
	Appends       uint64 `json:"appends"`
	AppendedBytes uint64 `json:"appendedBytes"`
	Rotations     uint64 `json:"rotations"`
	Syncs         uint64 `json:"syncs"`
}

// counters is the archive's always-on telemetry. The fields are
// zero-value-ready atomics updated at the same sites the old Stats
// fields were bumped under the mutex, so Stats() and a registered
// /metrics scrape read one source of truth. Keeping them as struct
// fields (rather than registry-created series) means an archive works
// bare and a daemon attaches names with RegisterMetrics.
type counters struct {
	sidecarLoads  metrics.Counter
	replays       metrics.Counter
	selectScanned metrics.Counter
	selectPruned  metrics.Counter
	cacheHits     metrics.Counter
	cacheMisses   metrics.Counter
	readRuns      metrics.Counter
	readFrames    metrics.Counter
	appends       metrics.Counter
	appendBytes   metrics.Counter
	rotations     metrics.Counter
	syncs         metrics.Counter
}

// Archive is the store. All methods are safe for concurrent use.
type Archive struct {
	mu   sync.Mutex
	fs   vfs.FS
	dir  string
	opts Options

	segs   []segment
	active vfs.File // open handle on the last segment

	frames   []frameRef
	activeTx map[types.Hash]int // tx hash -> frames index, active segment only
	reports  int
	lastCP   int // frames index of the latest DURABLE checkpoint, -1 if none
	newestCP int // frames index of the latest checkpoint incl. unsynced, -1 if none

	buf     []byte           // encode scratch
	wbuf    []byte           // framed records appended but not yet written to the file
	wbase   int64            // file size on disk; wbuf logically starts at this offset
	readers map[int]vfs.File // cached read handles, keyed by segment number
	matched []int            // list-query gather scratch (frames indexes)
	cache   recordCache
	met     counters
}

// writeBufFlushBytes bounds the write buffer: once this many framed
// bytes are pending, the next append writes them out in one syscall.
// Durability is unchanged — records are only promised stable after a
// Sync, which always flushes first — but batching the write() calls is
// what makes group-commit ingest cheap.
const writeBufFlushBytes = 256 << 10

// Open opens (creating if necessary) the archive in dir. Sealed
// segments load from their sidecar indexes; segments without a valid
// sidecar — always including a crash-torn tail — are replayed, torn
// final records truncated away, and their sidecars rewritten.
func Open(dir string, opts Options) (*Archive, error) {
	return OpenFS(vfs.OS, dir, opts)
}

// OpenFS is Open on an explicit filesystem — how the fault-injection
// and crash-consistency harnesses run an archive on vfs.MemFS or
// vfs.FaultFS. Open(dir, opts) is OpenFS(vfs.OS, dir, opts).
func OpenFS(fsys vfs.FS, dir string, opts Options) (*Archive, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := &Archive{
		fs:       fsys,
		dir:      dir,
		opts:     opts,
		activeTx: make(map[types.Hash]int),
		lastCP:   -1,
		newestCP: -1,
		readers:  make(map[int]vfs.File),
		cache:    newRecordCache(opts.cacheRecords()),
	}
	numbers, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(numbers) == 0 {
		numbers = []int{1}
		if err := a.createSegment(1); err != nil {
			return nil, err
		}
	}
	for i, n := range numbers {
		if err := a.loadSegment(i, n, len(numbers)); err != nil {
			return nil, err
		}
	}
	// Everything recovered from disk is durable, checkpoints included.
	a.lastCP = a.newestCP
	last := a.segs[len(a.segs)-1]
	f, err := a.fs.OpenFile(a.segmentPath(last.number), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if _, err := f.Seek(last.size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("archive: %w", err)
	}
	a.active = f
	a.wbase = last.size
	return a, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(fsys vfs.FS, dir string) ([]int, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	var numbers []int
	for _, name := range names {
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("archive: alien segment file %q", name)
		}
		numbers = append(numbers, n)
	}
	sort.Ints(numbers)
	return numbers, nil
}

func (a *Archive) segmentPath(number int) string {
	return filepath.Join(a.dir, fmt.Sprintf("%s%08d%s", segPrefix, number, segSuffix))
}

func (a *Archive) sidecarPath(number int) string {
	return filepath.Join(a.dir, fmt.Sprintf("%s%08d%s", segPrefix, number, sidecarSuffix))
}

// createSegment makes an empty segment file and syncs the directory so
// the file name itself survives a crash.
func (a *Archive) createSegment(number int) error {
	f, err := a.fs.OpenFile(a.segmentPath(number), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := a.fs.SyncDir(a.dir); err != nil {
		return fmt.Errorf("archive: sync dir: %w", err)
	}
	return nil
}

// loadSegment brings one segment into the index: from its sidecar when
// a valid one exists, otherwise by replaying the log. Only the final
// segment may carry a torn tail; there the partial record is truncated
// away.
func (a *Archive) loadSegment(idx, number, total int) error {
	final := idx == total-1
	if !a.opts.NoSidecars && a.loadFromSidecar(idx, number, total) {
		a.met.sidecarLoads.Inc()
		return nil
	}

	path := a.segmentPath(number)
	data, err := a.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	a.segs = append(a.segs, segment{number: number, firstFrame: len(a.frames)})
	valid, scanErr := a.indexRecords(idx, data)
	if scanErr != nil {
		if !final {
			return fmt.Errorf("archive: segment %s corrupt at offset %d (not the active tail): %w", path, valid, scanErr)
		}
		if err := a.truncateFile(path, valid); err != nil {
			return err
		}
	}
	a.segs[idx].size = valid
	a.met.replays.Inc()
	if !final {
		a.sealLastSegmentLocked()
		if !a.opts.NoSidecars {
			if err := a.writeSidecarLocked(idx, a.segs[idx].sealed.perm); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadFromSidecar loads one segment's index from its .idx sidecar,
// returning false (fall back to replay) on any validation failure: a
// missing or corrupt sidecar, or one that no longer describes the log
// file byte for byte (size or tail-CRC mismatch — the stale case).
func (a *Archive) loadFromSidecar(idx, number, total int) bool {
	raw, err := a.fs.ReadFile(a.sidecarPath(number))
	if err != nil {
		return false
	}
	// Decode straight into the frames slice; on failure keep the original
	// slice header (the extension holds partially-decoded garbage).
	sc, frames, err := decodeSidecarInto(raw, a.frames, total-idx)
	if err != nil {
		return false
	}
	path := a.segmentPath(number)
	size, statErr := a.fs.Size(path)
	if statErr != nil || size != sc.segSize {
		return false
	}
	if crc, err := logTailCRC(a.fs, path, sc.segSize); err != nil || crc != sc.tailCRC {
		return false
	}

	a.segs = append(a.segs, segment{number: number, size: sc.segSize, firstFrame: len(a.frames)})
	seg := &a.segs[idx]
	final := idx == total-1
	base := len(a.frames)
	a.frames = frames
	for i := base; i < len(a.frames); i++ {
		f := &a.frames[i]
		f.seg = idx
		switch f.kind {
		case KindReport:
			a.reports++
			seg.fence.observe(f.block, f.flags)
			if final {
				a.activeTx[f.txHash] = i
			}
		case KindCheckpoint:
			a.newestCP = i
		}
	}
	if !final {
		// The bloom filter is built lazily on the first point lookup that
		// probes this segment — most opens never pay for it.
		seg.sealed = &sealedSeg{perm: sc.perm}
	}
	return true
}

// indexRecords walks the framed records in data, indexing each, and
// returns the number of bytes consumed by whole valid records. A
// trailing invalid frame is reported as an error wrapping errBadFrame.
func (a *Archive) indexRecords(seg int, data []byte) (int64, error) {
	var off int64
	for int(off) < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return off, err
		}
		a.indexFrame(rec, frameRef{seg: seg, off: off, size: int64(n)})
		off += int64(n)
	}
	return off, nil
}

// indexFrame appends one decoded record to the in-memory index of the
// last (active) segment. Checkpoints only advance newestCP here; they
// become observable (lastCP) when a Sync makes them durable.
func (a *Archive) indexFrame(rec Record, ref frameRef) {
	ref.kind = rec.Kind
	ref.block = rec.Block
	ref.flags = rec.Flags
	ref.txHash = rec.TxHash
	ref.digest = rec.Digest
	a.frames = append(a.frames, ref)
	switch rec.Kind {
	case KindReport:
		a.activeTx[rec.TxHash] = len(a.frames) - 1
		a.reports++
		a.segs[len(a.segs)-1].fence.observe(rec.Block, rec.Flags)
	case KindCheckpoint:
		a.newestCP = len(a.frames) - 1
	}
}

// sealLastSegmentLocked converts the newest segment's index to its
// immutable sealed form: a (hash, position)-sorted permutation of its
// report frames plus a bloom filter, with the segment's hashes dropped
// from the active map.
func (a *Archive) sealLastSegmentLocked() {
	idx := len(a.segs) - 1
	seg := &a.segs[idx]
	frames := a.frames[seg.firstFrame:]
	perm := buildPerm(frames)
	bl := newBloom(len(perm))
	for _, p := range perm {
		bl.add(frames[p].txHash)
	}
	for i := range frames {
		if frames[i].kind != KindReport {
			continue
		}
		if j, ok := a.activeTx[frames[i].txHash]; ok && j == seg.firstFrame+i {
			delete(a.activeTx, frames[i].txHash)
		}
	}
	seg.sealed = &sealedSeg{perm: perm, bloom: bl, bloomBuilt: true}
}

// writeSidecarLocked writes (atomically, via rename) the sidecar for
// segment idx from its in-memory frames. perm is the segment's sorted
// report permutation — the sealed index's, or one built on the fly when
// sealing the active tail at Close.
func (a *Archive) writeSidecarLocked(idx int, perm []uint32) error {
	seg := &a.segs[idx]
	end := len(a.frames)
	if idx+1 < len(a.segs) {
		end = a.segs[idx+1].firstFrame
	}
	crc, err := logTailCRC(a.fs, a.segmentPath(seg.number), seg.size)
	if err != nil {
		return fmt.Errorf("archive: sidecar tail crc: %w", err)
	}
	sc := buildSidecar(a.frames[seg.firstFrame:end], seg.size, crc, perm)
	path := a.sidecarPath(seg.number)
	tmp := path + ".tmp"
	if err := a.fs.WriteFile(tmp, encodeSidecar(sc), 0o644); err != nil {
		return fmt.Errorf("archive: write sidecar: %w", err)
	}
	if err := a.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("archive: install sidecar: %w", err)
	}
	return nil
}

// removeSidecar deletes a segment's sidecar if one exists.
func (a *Archive) removeSidecar(number int) error {
	err := a.fs.Remove(a.sidecarPath(number))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("archive: remove sidecar: %w", err)
	}
	return nil
}

// truncateFile cuts a file to size and syncs it, making the recovery
// itself durable.
func (a *Archive) truncateFile(path string, size int64) error {
	f, err := a.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return fmt.Errorf("archive: truncate torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("archive: sync truncated segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// AppendReport appends one detection report record. Blocks must be
// appended in non-decreasing order — the invariant range queries,
// checkpointing and reorg rollback all lean on. The bytes are durable
// only after the next Sync.
func (a *Archive) AppendReport(rec *Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec.Kind != KindReport {
		return fmt.Errorf("archive: AppendReport got kind %d", rec.Kind)
	}
	if last, ok := a.lastBlockLocked(); ok && rec.Block < last {
		return fmt.Errorf("archive: block %d after block %d breaks append order", rec.Block, last)
	}
	return a.appendLocked(rec)
}

// AppendCheckpointDeferred appends a progress checkpoint WITHOUT
// syncing — the archive's one checkpoint protocol is this call followed
// by Sync. The record is framed into the log immediately, but the
// checkpoint stays invisible to Checkpoint and Checkpoints until the
// next successful Sync, so a reader can never observe a checkpoint
// whose records might still be lost to a crash. Callers sync after
// every checkpoint or once per batch of them (group commit); each step
// is safe to retry.
func (a *Archive) AppendCheckpointDeferred(cp Checkpoint) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appendCheckpointLocked(cp)
}

func (a *Archive) appendCheckpointLocked(cp Checkpoint) error {
	if last, ok := a.lastBlockLocked(); ok && cp.Block < last {
		return fmt.Errorf("archive: checkpoint %d after block %d breaks append order", cp.Block, last)
	}
	return a.appendLocked(&Record{Kind: KindCheckpoint, Block: cp.Block, Digest: cp.Digest})
}

// lastBlockLocked returns the block of the newest frame.
func (a *Archive) lastBlockLocked() (uint64, bool) {
	if len(a.frames) == 0 {
		return 0, false
	}
	return a.frames[len(a.frames)-1].block, true
}

// appendLocked encodes, rotates if due, writes and indexes one record.
func (a *Archive) appendLocked(rec *Record) error {
	if a.active == nil {
		return errors.New("archive: closed")
	}
	buf, err := appendRecord(a.buf[:0], rec)
	if err != nil {
		return err
	}
	a.buf = buf
	seg := &a.segs[len(a.segs)-1]
	if seg.size > 0 && seg.size+int64(len(buf)) > a.opts.segmentBytes() {
		if err := a.rotateLocked(); err != nil {
			return err
		}
		seg = &a.segs[len(a.segs)-1]
	}
	// Flush BEFORE buffering, so a failed append leaves the new record
	// neither indexed nor pending — same contract as an unbuffered write.
	if len(a.wbuf) >= writeBufFlushBytes {
		if err := a.flushLocked(); err != nil {
			return err
		}
	}
	off := seg.size
	a.wbuf = append(a.wbuf, buf...)
	seg.size += int64(len(buf))
	a.indexFrame(*rec, frameRef{seg: len(a.segs) - 1, off: off, size: int64(len(buf))})
	a.met.appends.Inc()
	a.met.appendBytes.Add(uint64(len(buf)))
	return nil
}

// flushLocked writes the pending buffer to the active segment file in
// one write(). On a short write it truncates the file back to the last
// whole-buffer boundary, so the file never holds a frame prefix the
// buffer also holds — the flush stays retryable and reopen-safe.
func (a *Archive) flushLocked() error {
	if len(a.wbuf) == 0 {
		return nil
	}
	if n, err := a.active.Write(a.wbuf); err != nil {
		if n > 0 {
			//lint:allow errflow best-effort rewind; the Write error below already fails the flush
			_ = a.active.Truncate(a.wbase)
			//lint:allow errflow best-effort rewind; the Write error below already fails the flush
			_, _ = a.active.Seek(a.wbase, 0)
		}
		return fmt.Errorf("archive: append: %w", err)
	}
	a.wbase += int64(len(a.wbuf))
	a.wbuf = a.wbuf[:0]
	return nil
}

// rotateLocked seals the active segment — sync, in-memory seal, sidecar
// — and starts the next one.
func (a *Archive) rotateLocked() error {
	if err := a.syncLocked(); err != nil {
		return fmt.Errorf("archive: sync before rotate: %w", err)
	}
	a.sealLastSegmentLocked()
	if !a.opts.NoSidecars {
		if err := a.writeSidecarLocked(len(a.segs)-1, a.segs[len(a.segs)-1].sealed.perm); err != nil {
			return err
		}
	}
	if err := a.active.Close(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	// The old handle is gone; until the next segment is open the archive
	// has no active file. Leaving the closed handle in place would make a
	// failed rotation double-close it later (in Close or RollbackAbove).
	a.active = nil
	next := a.segs[len(a.segs)-1].number + 1
	if err := a.createSegment(next); err != nil {
		return err
	}
	f, err := a.fs.OpenFile(a.segmentPath(next), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	a.active = f
	a.wbase = 0 // syncLocked above drained wbuf; the new file is empty
	a.segs = append(a.segs, segment{number: next, firstFrame: len(a.frames)})
	a.met.rotations.Inc()
	return nil
}

// syncLocked flushes the active segment and promotes deferred
// checkpoints to observable — the bytes they cover are now stable.
func (a *Archive) syncLocked() error {
	if a.active == nil {
		return errors.New("archive: closed")
	}
	if err := a.flushLocked(); err != nil {
		return err
	}
	if err := a.active.Sync(); err != nil {
		return err
	}
	a.met.syncs.Inc()
	a.lastCP = a.newestCP
	return nil
}

// Sync flushes the active segment to stable storage and makes any
// checkpoints appended with AppendCheckpointDeferred observable.
func (a *Archive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.syncLocked()
}

// Close syncs, seals the active tail's sidecar so the next Open is
// index-loaded end to end, and closes the archive.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active == nil {
		return nil
	}
	syncErr := a.syncLocked()
	if syncErr == nil && !a.opts.NoSidecars {
		idx := len(a.segs) - 1
		syncErr = a.writeSidecarLocked(idx, buildPerm(a.frames[a.segs[idx].firstFrame:]))
	}
	closeErr := a.active.Close()
	a.active = nil
	readerErr := a.closeReadersLocked()
	if syncErr != nil {
		return fmt.Errorf("archive: close sync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("archive: %w", closeErr)
	}
	return readerErr
}

// Count returns the number of archived report records.
func (a *Archive) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reports
}

// Segments returns the number of on-disk segment files.
func (a *Archive) Segments() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.segs)
}

// Stats snapshots the archive's shape and index-layer counters.
func (a *Archive) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Stats{
		Records:               a.reports,
		Segments:              len(a.segs),
		CacheRecords:          a.cache.len(),
		OpenSidecarLoads:      int(a.met.sidecarLoads.Value()),
		OpenReplays:           int(a.met.replays.Value()),
		SelectSegmentsScanned: a.met.selectScanned.Value(),
		SelectSegmentsPruned:  a.met.selectPruned.Value(),
		CacheHits:             a.met.cacheHits.Value(),
		CacheMisses:           a.met.cacheMisses.Value(),
		ReadRuns:              a.met.readRuns.Value(),
		ReadFrames:            a.met.readFrames.Value(),
		Appends:               a.met.appends.Value(),
		AppendedBytes:         a.met.appendBytes.Value(),
		Rotations:             a.met.rotations.Value(),
		Syncs:                 a.met.syncs.Value(),
	}
	for i := range a.segs {
		if a.segs[i].sealed != nil {
			st.SealedSegments++
		}
	}
	return st
}

// RegisterMetrics publishes the archive's counters on r under the
// leishen_archive_* family, plus scrape-time gauges for the store's
// shape. The counters are the same atomics Stats() renders — attaching
// a registry adds names, not a second set of numbers.
func (a *Archive) RegisterMetrics(r *metrics.Registry) {
	r.RegisterCounter("leishen_archive_open_sidecar_loads_total", "Segments whose index loaded from a .idx sidecar at Open.", &a.met.sidecarLoads)
	r.RegisterCounter("leishen_archive_open_replays_total", "Segments whose index was rebuilt by replaying the log at Open.", &a.met.replays)
	r.RegisterCounter("leishen_archive_select_segments_scanned_total", "Segments walked by Select queries.", &a.met.selectScanned)
	r.RegisterCounter("leishen_archive_select_segments_pruned_total", "Segments skipped by Select fence pruning.", &a.met.selectPruned)
	r.RegisterCounter("leishen_archive_cache_hits_total", "Record cache hits on the point-lookup path.", &a.met.cacheHits)
	r.RegisterCounter("leishen_archive_cache_misses_total", "Record cache misses on the point-lookup path.", &a.met.cacheMisses)
	r.RegisterCounter("leishen_archive_read_runs_total", "Coalesced ReadAt calls issued by the raw read path.", &a.met.readRuns)
	r.RegisterCounter("leishen_archive_read_frames_total", "Frames fetched by the raw read path (frames/runs is the coalescing factor).", &a.met.readFrames)
	r.RegisterCounter("leishen_archive_appends_total", "Frames appended (reports and checkpoints).", &a.met.appends)
	r.RegisterCounter("leishen_archive_appended_bytes_total", "Framed bytes appended to segment logs.", &a.met.appendBytes)
	r.RegisterCounter("leishen_archive_segment_rotations_total", "Active-segment rotations (seal, sidecar, new file).", &a.met.rotations)
	r.RegisterCounter("leishen_archive_fsyncs_total", "Fsyncs issued against the active segment.", &a.met.syncs)
	r.GaugeFunc("leishen_archive_records", "Archived report records.", func() float64 { return float64(a.Count()) })
	r.GaugeFunc("leishen_archive_segments", "On-disk segment files.", func() float64 { return float64(a.Segments()) })
	r.GaugeFunc("leishen_archive_sealed_segments", "Segments carrying a sealed in-memory index.", func() float64 { return float64(a.Stats().SealedSegments) })
	r.GaugeFunc("leishen_archive_cache_records", "Records held by the read-through record cache.", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(a.cache.len())
	})
}

// Checkpoint returns the latest durable checkpoint.
func (a *Archive) Checkpoint() (Checkpoint, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lastCP < 0 {
		return Checkpoint{}, false
	}
	f := a.frames[a.lastCP]
	return Checkpoint{Block: f.block, Digest: f.digest}, true
}

// Checkpoints returns every durable checkpoint, ascending by block —
// the trail the follower walks backwards to find a reorg's fork point.
// Checkpoints appended with AppendCheckpointDeferred and not yet synced
// are excluded.
func (a *Archive) Checkpoints() []Checkpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []Checkpoint
	for i := 0; i <= a.lastCP && i < len(a.frames); i++ {
		if a.frames[i].kind == KindCheckpoint {
			out = append(out, Checkpoint{Block: a.frames[i].block, Digest: a.frames[i].digest})
		}
	}
	return out
}

// Get reads the archived report for a transaction — through the shared
// raw-bytes record cache when it can, re-verifying the stored checksum
// on a miss. The active segment answers from its hash map; sealed
// segments are probed newest first, bloom filter before binary search,
// so a missing hash usually costs a few bit tests per segment. The
// returned record owns its Report bytes; GetRaw is the copy-free
// variant.
func (a *Archive) Get(h types.Hash) (Record, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	raw, ok, err := a.getRawLocked(h)
	if err != nil || !ok {
		return Record{}, ok, err
	}
	return rawToRecord(raw, true), true, nil
}

// rawToRecord rebuilds the decoded Record view of a raw report frame.
// With clone set the report bytes are copied, so callers can never
// mutate cached memory through the returned slice.
func rawToRecord(raw RawRecord, clone bool) Record {
	rec := Record{Kind: KindReport, TxHash: raw.TxHash, Block: raw.Block, Flags: raw.Flags, Report: raw.Report}
	if clone && rec.Report != nil {
		rec.Report = append([]byte(nil), rec.Report...)
	}
	return rec
}

// lookupTxLocked resolves a tx hash to its frame index: active map
// first, then sealed segments newest to oldest — so when the same hash
// was archived more than once the latest copy wins, matching the
// single-map semantics this replaced.
func (a *Archive) lookupTxLocked(h types.Hash) (int, bool) {
	if i, ok := a.activeTx[h]; ok {
		return i, true
	}
	for s := len(a.segs) - 1; s >= 0; s-- {
		seg := &a.segs[s]
		if seg.sealed == nil {
			continue
		}
		if !seg.sealed.bloomBuilt {
			a.buildBloomLocked(s)
		}
		if !seg.sealed.bloom.mayContain(h) {
			continue
		}
		if i, ok := a.sealedLookupLocked(s, h); ok {
			return i, true
		}
	}
	return 0, false
}

// buildBloomLocked materializes a sidecar-loaded segment's bloom filter
// from its permutation.
func (a *Archive) buildBloomLocked(s int) {
	seg := &a.segs[s]
	bl := newBloom(len(seg.sealed.perm))
	for _, p := range seg.sealed.perm {
		bl.add(a.frames[seg.firstFrame+int(p)].txHash)
	}
	seg.sealed.bloom = bl
	seg.sealed.bloomBuilt = true
}

// sealedLookupLocked binary-searches one sealed segment's permutation
// for the LAST frame carrying hash h.
func (a *Archive) sealedLookupLocked(s int, h types.Hash) (int, bool) {
	seg := &a.segs[s]
	frames := a.frames[seg.firstFrame:]
	perm := seg.sealed.perm
	lo := sort.Search(len(perm), func(k int) bool {
		return bytes.Compare(frames[perm[k]].txHash[:], h[:]) > 0
	})
	if lo == 0 {
		return 0, false
	}
	cand := perm[lo-1]
	if frames[cand].txHash != h {
		return 0, false
	}
	return seg.firstFrame + int(cand), true
}

// Query selects archived reports. The zero value selects everything.
type Query struct {
	// FromBlock / ToBlock bound the block range inclusively; ToBlock 0
	// means "latest".
	FromBlock, ToBlock uint64
	// Flags, when non-zero, selects records carrying all of these verdict
	// flags (e.g. FlagAttack).
	Flags uint8
	// After resumes a paginated scan after this transaction (exclusive);
	// the zero hash starts from the beginning.
	After types.Hash
	// Limit caps the result count; <= 0 means no cap.
	Limit int
}

// Select returns matching reports in append (block) order, plus whether
// more matches remain past the limit — the pagination signal. Whole
// segments whose fence (block span, verdict-flag union) cannot match
// the query are skipped without touching their frames. Select is the
// decoded wrapper over SelectRaw, and so over AppendSelect's run
// reader; all three return byte-identical report documents.
func (a *Archive) Select(q Query) ([]Record, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	raws, more, err := a.selectRawLocked(&q)
	if err != nil {
		return nil, false, err
	}
	if len(raws) == 0 {
		return nil, more, nil
	}
	out := make([]Record, len(raws))
	for i := range raws {
		// No clone: select reads land in a per-call buffer, never the cache.
		out[i] = rawToRecord(raws[i], false)
	}
	return out, more, nil
}

// segEndLocked returns the frames index one past segment s's last frame.
func (a *Archive) segEndLocked(s int) int {
	if s+1 < len(a.segs) {
		return a.segs[s+1].firstFrame
	}
	return len(a.frames)
}

// RollbackAbove removes every record with a block strictly above the
// fork point — the follower's reorg and partial-block repair primitive.
// Later segments are deleted outright (sidecars included) and the cut
// segment truncated, so the on-disk log after rollback is byte-identical
// to one that never saw the removed records. The cut segment becomes the
// active segment again; its stale sidecar is removed and the record
// cache cleared.
func (a *Archive) RollbackAbove(fork uint64) (removed int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active == nil {
		return 0, errors.New("archive: closed")
	}
	cut := sort.Search(len(a.frames), func(i int) bool {
		return a.frames[i].block > fork
	})
	if cut == len(a.frames) {
		return 0, nil
	}
	cutSeg, cutOff := a.frames[cut].seg, a.frames[cut].off

	if err := a.syncLocked(); err != nil {
		return 0, fmt.Errorf("archive: sync before rollback: %w", err)
	}
	if err := a.active.Close(); err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	a.active = nil
	// Cached read handles may point at files about to be removed or
	// truncated; drop them all before touching the log.
	if err := a.closeReadersLocked(); err != nil {
		return 0, err
	}
	for _, s := range a.segs[cutSeg+1:] {
		if err := a.fs.Remove(a.segmentPath(s.number)); err != nil {
			return 0, fmt.Errorf("archive: rollback remove: %w", err)
		}
		if err := a.removeSidecar(s.number); err != nil {
			return 0, err
		}
	}
	if err := a.fs.SyncDir(a.dir); err != nil {
		return 0, fmt.Errorf("archive: sync dir: %w", err)
	}
	path := a.segmentPath(a.segs[cutSeg].number)
	if err := a.truncateFile(path, cutOff); err != nil {
		return 0, err
	}
	if err := a.removeSidecar(a.segs[cutSeg].number); err != nil {
		return 0, err
	}

	// Drop the removed frames from the index. Reports in removed sealed
	// segments only live in those segments' (discarded) permutations;
	// active-map entries all point at or above the cut.
	removed = len(a.frames) - cut
	for _, f := range a.frames[cut:] {
		switch f.kind {
		case KindReport:
			if j, ok := a.activeTx[f.txHash]; ok && j >= cut {
				delete(a.activeTx, f.txHash)
			}
			a.reports--
		}
	}
	a.frames = a.frames[:cut]
	a.lastCP = -1
	for i := len(a.frames) - 1; i >= 0; i-- {
		if a.frames[i].kind == KindCheckpoint {
			a.lastCP = i
			break
		}
	}
	// Rollback synced first, so every surviving checkpoint is durable.
	a.newestCP = a.lastCP
	a.segs = a.segs[:cutSeg+1]

	// The cut segment is the active one again: rebuild its hash map and
	// fence from the surviving frames and drop any sealed-form index.
	seg := &a.segs[cutSeg]
	seg.size = cutOff
	seg.sealed = nil
	seg.fence = fence{}
	for i := seg.firstFrame; i < cut; i++ {
		f := &a.frames[i]
		if f.kind == KindReport {
			a.activeTx[f.txHash] = i
			seg.fence.observe(f.block, f.flags)
		}
	}
	a.cache.clear()

	f, err := a.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("archive: %w", err)
	}
	if _, err := f.Seek(cutOff, 0); err != nil {
		f.Close()
		return 0, fmt.Errorf("archive: %w", err)
	}
	a.active = f
	a.wbase = cutOff // wbuf was drained by the pre-rollback sync
	return removed, nil
}
