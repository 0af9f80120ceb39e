// Package follower turns the batch detection pipeline into a standing
// service: a daemon that follows a chain head, screens every new block's
// receipts for flash loan markers, hands the candidates to the scan
// engine's workers — which identify, detect and encode each one — and
// records every flash loan verdict in a durable archive — the
// deployment the paper's conclusion envisions, a monitor "improving the
// ability to combat flpAttacks in Ethereum" continuously rather than
// per corpus.
//
// Progress lives in the archive itself: after each block the follower
// appends a checkpoint record (block number + block digest) and syncs,
// so a process killed at any byte and restarted resumes from the last
// durable checkpoint and reproduces the archive an uninterrupted run
// would have written. The digest trail doubles as reorg detection — on
// startup and whenever the source's history stops matching, the
// follower walks the checkpoint trail backwards to the fork point and
// rolls the archive back before re-following the new canonical chain.
//
// Writes flow through a bounded queue of blocks drained by a single
// writer goroutine; when the archive cannot keep up the queue fills and
// block processing blocks on the enqueue — backpressure instead of
// unbounded buffering.
package follower

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/metrics"
	"leishen/internal/scan"
	"leishen/internal/types"
	"leishen/internal/vfs"
)

// BlockSource is the chain the follower tails. Both methods may fail —
// a production deployment backs them with an execution-client RPC, and
// RPCs time out. Errors that classify as transient (vfs.IsTransient)
// are retried under Options.Retry; anything else aborts the step. An
// in-process *evm.Chain cannot fail: wrap it with ChainSource (or any
// error-free source with FromInfallible).
type BlockSource interface {
	// HeadBlock returns the number of the highest sealed block, 0 when
	// none are sealed yet.
	HeadBlock() (uint64, error)
	// BlockByNumber returns the sealed block at height n.
	BlockByNumber(n uint64) (*evm.Block, bool, error)
}

// DefaultQueueSize bounds the write queue in blocks: how far block
// processing may run ahead of the archive before it blocks on the
// enqueue, and the most blocks one group commit covers.
const DefaultQueueSize = 8

// DefaultPoll is the idle head-polling cadence, ~1/3 of the pre-merge
// inter-block time.
const DefaultPoll = 4 * time.Second

// Options configures a follower.
type Options struct {
	// Scan configures the worker pool each block's screened receipts run
	// on; the zero value means GOMAXPROCS workers.
	Scan scan.Options
	// QueueSize bounds the archive write queue, in blocks; <= 0 means
	// DefaultQueueSize.
	QueueSize int
	// Poll is how long Run sleeps when caught up with the head; <= 0
	// means DefaultPoll.
	Poll time.Duration
	// Metrics, when non-nil, receives follower telemetry (blocks,
	// queue depth, batch sizes, fsync latency, reorg rollbacks,
	// retries, degradation). Instrumentation never changes what is
	// archived.
	Metrics *Metrics
	// Retry bounds how transient archive-write and source failures are
	// retried; the zero value means the defaults (see RetryPolicy).
	Retry RetryPolicy
}

func (o Options) queueSize() int {
	if o.QueueSize > 0 {
		return o.QueueSize
	}
	return DefaultQueueSize
}

func (o Options) poll() time.Duration {
	if o.Poll > 0 {
		return o.Poll
	}
	return DefaultPoll
}

// Stats is a point-in-time progress snapshot.
type Stats struct {
	// Head is the source's current head block.
	Head uint64 `json:"head"`
	// Checkpoint is the highest durably archived block.
	Checkpoint uint64 `json:"checkpoint"`
	// Lag is Head - Checkpoint, the follower's distance behind the chain.
	Lag uint64 `json:"lag"`
	// Summary aggregates the verdicts of every block processed by this
	// process (not recovered history).
	Summary scan.Summary `json:"summary"`
	// WriterBatches / WriterOps / WriterSyncs describe the group-commit
	// writer: batches committed, records+checkpoints applied, and fsyncs
	// issued. Ops per sync is the group-commit amortization factor.
	WriterBatches uint64 `json:"writerBatches"`
	WriterOps     uint64 `json:"writerOps"`
	WriterSyncs   uint64 `json:"writerSyncs"`
	// Degraded reports the writer is mid retry/backoff or has failed
	// for good; WriterFailed distinguishes the latter.
	Degraded     bool `json:"degraded"`
	WriterFailed bool `json:"writerFailed"`
	// WriteRetries / SourceRetries count transient-failure retries of
	// archive writes and source calls.
	WriteRetries  uint64 `json:"writeRetries"`
	SourceRetries uint64 `json:"sourceRetries"`
}

// writeOp is one unit of work for the writer goroutine: one block's
// report records, its checkpoint, and the encode buffers the records'
// bytes live in — or, when flush is set, a barrier.
type writeOp struct {
	recs  []archive.Record
	cp    archive.Checkpoint
	wire  *scan.Wire
	flush chan error
}

// opPool recycles block ops, and with them their record slices, once
// the writer has committed them.
var opPool = sync.Pool{New: func() any { return new(writeOp) }}

// release hands a committed block op and its encode buffers back for
// reuse; nothing may read the op afterwards.
func (op *writeOp) release() {
	op.wire.Release()
	clear(op.recs)
	*op = writeOp{recs: op.recs[:0]}
	opPool.Put(op)
}

// Follower tails a BlockSource into an Archive.
type Follower struct {
	src  BlockSource
	det  *core.Detector
	arc  *archive.Archive
	opts Options

	queue chan *writeOp
	done  chan struct{}
	sleep func(time.Duration) // backoff sleeper; tests shorten it
	wrng  *rand.Rand          // jitter: writer goroutine only
	srng  *rand.Rand          // jitter: the stepping goroutine only
	cands []*evm.Receipt      // the screen's reused output: the stepping goroutine only

	mu            sync.Mutex
	next          uint64 // next block height to process
	summary       scan.Summary
	writeErr      error // sticky fatal writer failure
	degraded      bool  // writer currently in retry/backoff
	closed        bool
	lastHead      uint64 // newest head the source reported
	writerBatches uint64
	writerOps     uint64
	writerSyncs   uint64
	writeRetries  uint64
	sourceRetries uint64
}

// New builds a follower and repairs/aligns the archive against the
// source: records beyond the last durable checkpoint (a crash mid
// block) are rolled back, then the checkpoint trail is walked backwards
// past any reorged blocks to the fork point. The returned follower is
// ready to Step, CatchUp or Run.
func New(src BlockSource, det *core.Detector, arc *archive.Archive, opts Options) (*Follower, error) {
	f := &Follower{
		src:   src,
		det:   det,
		arc:   arc,
		opts:  opts,
		queue: make(chan *writeOp, opts.queueSize()),
		done:  make(chan struct{}),
		sleep: time.Sleep,
		wrng:  rand.New(rand.NewSource(opts.Retry.Seed)),
		srng:  rand.New(rand.NewSource(opts.Retry.Seed + 1)),
	}
	fork, err := f.forkPoint()
	if err != nil {
		return nil, err
	}
	if _, err := arc.RollbackAbove(fork); err != nil {
		return nil, err
	}
	f.next = fork + 1
	go f.writer()
	return f, nil
}

// forkPoint walks the archived checkpoint trail from the newest
// backwards and returns the highest block the source still agrees with
// (0 when history diverged entirely or nothing is archived).
func (f *Follower) forkPoint() (uint64, error) {
	cps := f.arc.Checkpoints()
	for i := len(cps) - 1; i >= 0; i-- {
		b, ok, err := f.blockByNumber(cps[i].Block)
		if err != nil {
			return 0, err
		}
		if ok && BlockDigest(b) == cps[i].Digest {
			return cps[i].Block, nil
		}
	}
	return 0, nil
}

// headBlock polls the source head, retrying transient failures.
func (f *Follower) headBlock() (uint64, error) {
	var head uint64
	err := f.retrySource(func() (err error) {
		head, err = f.src.HeadBlock()
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("follower: source head: %w", err)
	}
	f.mu.Lock()
	f.lastHead = head
	f.mu.Unlock()
	return head, nil
}

// blockByNumber fetches one block, retrying transient failures.
func (f *Follower) blockByNumber(n uint64) (*evm.Block, bool, error) {
	var (
		blk *evm.Block
		ok  bool
	)
	err := f.retrySource(func() (err error) {
		blk, ok, err = f.src.BlockByNumber(n)
		return err
	})
	if err != nil {
		return nil, false, fmt.Errorf("follower: source block %d: %w", n, err)
	}
	return blk, ok, nil
}

// retrySource runs one source call under the retry policy on the
// stepping goroutine's jitter stream. Source trouble alone does not
// mark the follower degraded — checkpoint lag already measures it.
func (f *Follower) retrySource(op func() error) error {
	pol := f.opts.Retry
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil || !vfs.IsTransient(err) || attempt >= pol.maxAttempts() {
			return err
		}
		f.mu.Lock()
		f.sourceRetries++
		f.mu.Unlock()
		if m := f.opts.Metrics; m != nil {
			m.SourceRetries.Inc()
		}
		f.sleep(pol.backoff(f.srng, attempt))
	}
}

// retryWrite runs one archive operation under the retry policy on the
// writer's jitter stream. While backing off the follower reports
// itself degraded; the flag clears when the operation lands. A
// non-transient error — or a transient one that outlives the attempt
// budget — is returned for the caller to make sticky.
func (f *Follower) retryWrite(op func() error) error {
	pol := f.opts.Retry
	m := f.opts.Metrics
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil || !vfs.IsTransient(err) || attempt >= pol.maxAttempts() {
			break
		}
		f.mu.Lock()
		f.degraded = true
		f.writeRetries++
		f.mu.Unlock()
		if m != nil {
			m.WriteRetries.Inc()
			m.Degraded.Set(1)
		}
		f.sleep(pol.backoff(f.wrng, attempt))
	}
	if err == nil {
		f.mu.Lock()
		wasDegraded := f.degraded
		f.degraded = false
		f.mu.Unlock()
		if m != nil && wasDegraded {
			m.Degraded.Set(0)
		}
	}
	return err
}

// BlockDigest fingerprints a block for checkpointing: its height,
// timestamp and ordered transaction hashes. Two blocks at the same
// height with different contents — a reorg — digest differently.
func BlockDigest(b *evm.Block) types.Hash {
	parts := make([][]byte, 0, 2+len(b.Receipts))
	var nb, tb [8]byte
	binary.BigEndian.PutUint64(nb[:], b.Number)
	binary.BigEndian.PutUint64(tb[:], uint64(b.Time.UnixNano()))
	parts = append(parts, nb[:], tb[:])
	for _, r := range b.Receipts {
		parts = append(parts, r.TxHash[:])
	}
	return types.HashFromData(parts...)
}

// writer is the single goroutine that owns archive appends. It group
// commits: each wakeup drains whatever the queue holds (up to its
// capacity in blocks), applies every append, then issues ONE Sync if
// the batch carried a checkpoint — so a burst of blocks costs one fsync
// instead of one per block, while an idle follower still syncs every
// block.
// The first failure is sticky: subsequent ops are refused so the
// archive never holds records past a failed write, and flush barriers
// surface the error to the processing side.
func (f *Follower) writer() {
	defer close(f.done)
	batch := make([]*writeOp, 0, cap(f.queue))
	for op := range f.queue {
		batch = append(batch[:0], op)
	drain:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-f.queue:
				if !ok {
					f.commit(batch)
					return
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		f.commit(batch)
		// Drop the committed ops: a reused batch would otherwise pin up
		// to a queue's worth of blocks and their report bytes.
		clear(batch)
	}
}

// commit applies one drained batch. Ordering is the durability
// argument: appends land first (checkpoints deferred, so not yet
// observable), then one Sync promotes the batch's checkpoints, and only
// then are flush barriers answered — a Flush caller can never observe a
// checkpoint whose records are still volatile, and realign's fork-point
// walk after Flush sees only durable checkpoints. Each block op, once
// applied (or refused), returns its encode buffers to the pool.
//
// Every archive operation runs under the transient-retry policy; each
// is individually idempotent (a failed append buffers nothing, a
// failed sync promotes nothing), so a retry can never double-apply.
// Only a fatal error — or a transient one that exhausts the attempt
// budget — goes sticky and stops the writer.
func (f *Follower) commit(batch []*writeOp) {
	err := f.stickyErr()
	appends, cps := 0, 0
	for _, op := range batch {
		if op.flush != nil || err != nil {
			continue
		}
		for i := range op.recs {
			rec := &op.recs[i]
			if err = f.retryWrite(func() error { return f.arc.AppendReport(rec) }); err != nil {
				break
			}
			appends++
		}
		if err != nil {
			continue
		}
		cp := op.cp
		if err = f.retryWrite(func() error { return f.arc.AppendCheckpointDeferred(cp) }); err == nil {
			cps++
		}
	}
	m := f.opts.Metrics
	synced := false
	if err == nil && cps > 0 {
		var t metrics.Timer
		if m != nil {
			t = m.FsyncSeconds.Start()
		}
		err = f.retryWrite(func() error { return f.arc.Sync() })
		t.Stop()
		synced = err == nil
	}
	f.mu.Lock()
	if err != nil && f.writeErr == nil {
		f.writeErr = err
	}
	if appends+cps > 0 {
		f.writerBatches++
		f.writerOps += uint64(appends + cps)
	}
	if synced {
		f.writerSyncs++
	}
	sticky := f.writeErr
	f.mu.Unlock()
	if m != nil {
		if appends+cps > 0 {
			m.Batches.Inc()
			m.Ops.Add(uint64(appends + cps))
			m.BatchOps.Observe(float64(appends + cps))
		}
		if synced {
			m.Syncs.Inc()
		}
		m.QueueDepth.Set(int64(len(f.queue)))
	}
	for _, op := range batch {
		if op.flush != nil {
			op.flush <- sticky
		} else {
			op.release()
		}
	}
}

func (f *Follower) stickyErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeErr
}

// Flush waits until every enqueued write has reached the archive and
// returns the first write error, if any.
func (f *Follower) Flush() error {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return ErrClosed
	}
	ch := make(chan error, 1)
	f.queue <- &writeOp{flush: ch}
	return <-ch
}

// Step processes at most one pending block: reorg check, screen,
// dispatch the candidates to the scan workers — which identify,
// detect and encode — then enqueue the block's records, checkpoint and
// encode buffers as one write op. It returns whether a block was
// processed (false when caught up with the head).
func (f *Follower) Step() (bool, error) {
	if err := f.stickyErr(); err != nil {
		return false, err
	}
	f.mu.Lock()
	next, closed := f.next, f.closed
	f.mu.Unlock()
	if closed {
		return false, ErrClosed
	}

	head, err := f.headBlock()
	if err != nil {
		return false, err
	}
	if next > head {
		// Caught up — but the chain may have reorged beneath us, shrinking
		// or rewriting history we already archived.
		if reorged, err := f.realign(); err != nil || !reorged {
			if m := f.opts.Metrics; m != nil && err == nil {
				f.observeLag(m, head)
			}
			return false, err
		}
		return true, nil
	}
	blk, ok, err := f.blockByNumber(next)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, fmt.Errorf("follower: source has head %d but no block %d", head, next)
	}

	// Shallow-reorg check: the block we are about to extend must still be
	// the one we checkpointed.
	if cp, ok := f.arc.Checkpoint(); ok && cp.Block == next-1 {
		prev, ok, err := f.blockByNumber(next - 1)
		if err != nil {
			return false, err
		}
		if !ok || BlockDigest(prev) != cp.Digest {
			if _, err := f.realign(); err != nil {
				return false, err
			}
			return true, nil
		}
	}

	// Screen the block for provider markers — a superset of the
	// successful flash loan transactions, the gate the HTTP monitor
	// applies. The workers identify each candidate once, as the first
	// step of detection, and drop the ones without a loan.
	f.cands = f.cands[:0]
	for _, r := range blk.Receipts {
		if flashloan.HasMarker(r) {
			f.cands = append(f.cands, r)
		}
	}
	op := opPool.Get().(*writeOp)
	sum, wire, err := scan.EachEncoded(f.det, f.cands, f.opts.Scan, func(_ int, v scan.Verdict, raw []byte) error {
		op.recs = append(op.recs, archive.Record{
			Kind:   archive.KindReport,
			TxHash: v.TxHash,
			Block:  v.Block,
			Flags:  verdictFlags(v),
			Report: raw,
		})
		return nil
	})
	clear(f.cands) // pin no receipt until the next Step
	op.wire = wire
	if err != nil {
		op.release()
		return false, err
	}
	op.cp = archive.Checkpoint{Block: blk.Number, Digest: BlockDigest(blk)}
	f.queue <- op

	f.mu.Lock()
	f.next = next + 1
	f.summary.Add(sum)
	f.mu.Unlock()
	if m := f.opts.Metrics; m != nil {
		m.Blocks.Inc()
		m.QueueDepth.Set(int64(len(f.queue)))
		f.observeLag(m, head)
	}
	return true, nil
}

// observeLag records source head minus the last durable checkpoint.
func (f *Follower) observeLag(m *Metrics, head uint64) {
	var cpBlock uint64
	if cp, ok := f.arc.Checkpoint(); ok {
		cpBlock = cp.Block
	}
	var lag uint64
	if head > cpBlock {
		lag = head - cpBlock
	}
	m.CheckpointLag.Set(int64(lag))
}

// verdictFlags derives the index flags stored beside the report bytes.
func verdictFlags(v scan.Verdict) uint8 {
	var flags uint8
	if v.FlashLoan {
		flags |= archive.FlagFlashLoan
	}
	if v.Attack {
		flags |= archive.FlagAttack
	}
	if v.Suppressed {
		flags |= archive.FlagSuppressed
	}
	return flags
}

// realign flushes pending writes, re-walks the checkpoint trail against
// the source, and rolls the archive back to the fork point. It reports
// whether anything had to move.
func (f *Follower) realign() (bool, error) {
	if err := f.Flush(); err != nil {
		return false, err
	}
	fork, err := f.forkPoint()
	if err != nil {
		return false, err
	}
	f.mu.Lock()
	aligned := f.next == fork+1
	f.mu.Unlock()
	if aligned {
		return false, nil
	}
	if _, err := f.arc.RollbackAbove(fork); err != nil {
		return false, err
	}
	f.mu.Lock()
	f.next = fork + 1
	f.mu.Unlock()
	if m := f.opts.Metrics; m != nil {
		m.Reorgs.Inc()
	}
	return true, nil
}

// CatchUp steps until the follower is level with the source head, then
// flushes, so on return every processed block is durably archived and
// checkpointed.
func (f *Follower) CatchUp() error {
	for {
		processed, err := f.Step()
		if err != nil {
			return err
		}
		if !processed {
			break
		}
	}
	return f.Flush()
}

// Run follows the chain until the context is cancelled: catch up, sleep
// one poll interval, repeat.
func (f *Follower) Run(ctx context.Context) error {
	ticker := time.NewTicker(f.opts.poll())
	defer ticker.Stop()
	for {
		if err := f.CatchUp(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close drains the write queue and stops the writer. The archive itself
// stays open — it belongs to the caller.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done
		return f.stickyErr()
	}
	f.closed = true
	f.mu.Unlock()
	close(f.queue)
	<-f.done
	return f.stickyErr()
}

// Stats snapshots progress for health endpoints. Head is the newest
// height the source has reported to Step — a cached value, so Stats
// never blocks on (or fails with) the source.
func (f *Follower) Stats() Stats {
	var cpBlock uint64
	if cp, ok := f.arc.Checkpoint(); ok {
		cpBlock = cp.Block
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	head := f.lastHead
	var lag uint64
	if head > cpBlock {
		lag = head - cpBlock
	}
	return Stats{
		Head: head, Checkpoint: cpBlock, Lag: lag, Summary: f.summary,
		WriterBatches: f.writerBatches, WriterOps: f.writerOps, WriterSyncs: f.writerSyncs,
		Degraded:     f.degraded || f.writeErr != nil,
		WriterFailed: f.writeErr != nil,
		WriteRetries: f.writeRetries, SourceRetries: f.sourceRetries,
	}
}

// Degraded reports whether the archive writer is mid retry/backoff or
// has failed for good — the health endpoint's 503 signal.
func (f *Follower) Degraded() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degraded || f.writeErr != nil
}

// WriterErr returns the sticky fatal writer error, nil while the
// writer is healthy (including while it is retrying a transient
// fault).
func (f *Follower) WriterErr() error {
	return f.stickyErr()
}

// ErrClosed is returned by operations on a closed follower.
var ErrClosed = errors.New("follower: closed")
