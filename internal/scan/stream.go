package scan

import (
	"runtime"
	"sync"
	"sync/atomic"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/metrics"
)

// rewindPool holds the arenas of encoded batches. They are kept apart
// from arenaPool because an encoded batch rewinds its arena after every
// receipt: an arena that once backed a report Scan or Each handed out
// must never be rewound, and an arena from this pool never backs a
// report that outlives its encoding. Workers take one per chunk, so an
// idle worker holds none.
var rewindPool = sync.Pool{New: func() any { return core.NewArena() }}

// bufsPool recycles an encoded batch's storage — its receipt list, result slots
// and per-chunk encode buffers — across batches.
var bufsPool = sync.Pool{New: func() any { return new(batchBufs) }}

type batchBufs struct {
	receipts []*evm.Receipt
	results  []encoded
	wire     [][]byte // one encode buffer per chunk
}

// closed is the done channel of every batch that resolved inline.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// encoded is one receipt's outcome on the encoded path: its verdict,
// its report's wire JSON, or the encode failure.
type encoded struct {
	v    Verdict
	wire []byte
	err  error
}

// kept reports whether a verdict belongs in the output: a flash loan
// transaction, or a receipt whose inspection failed.
func (v Verdict) kept() bool { return v.FlashLoan || v.Error }

// Stream is the scan engine's worker pool. It outlives any one batch,
// so a caller can submit the next batch while the workers still
// inspect the previous one. A batch is one of two kinds, branched on
// once per chunk. An encoded batch (Submit) is for callers that want
// the wire form and not the report: each receipt is inspected, its
// report's AppendJSON bytes appended to its chunk's buffer, its
// Verdict copied out and the arena rewound before the next receipt, so
// no report outlives its encoding and steady-state scanning allocates
// next to nothing. A report batch (Scan, Each) keeps every report, on
// arenas from arenaPool that are never rewound.
//
// Batches are claimed in submission order: workers finish the chunks
// of one batch before they start on the next. A batch small enough for
// one worker (ResolvedWorkers <= 1) is inspected inline, with no
// goroutine hop.
type Stream struct {
	det     *core.Detector
	opts    Options
	tickets chan *Batch
	wg      sync.WaitGroup
}

// NewStream starts a stream of opts.Workers workers (GOMAXPROCS when
// unset; none when that is 1 — every batch then runs inline). Close
// stops them.
func NewStream(det *core.Detector, opts Options) *Stream {
	opts.Workers = opts.workers()
	s := &Stream{det: det, opts: opts}
	if opts.Workers > 1 {
		// Room for two batches' tickets: the one the workers are on
		// and the one a caller submits behind it.
		s.tickets = make(chan *Batch, 2*opts.Workers)
		for w := 0; w < opts.Workers; w++ {
			s.wg.Add(1)
			go s.work()
		}
	}
	return s
}

// Close waits for every submitted batch to finish and stops the
// workers. Submit must not be called after Close.
func (s *Stream) Close() {
	if s.tickets != nil {
		close(s.tickets)
		s.wg.Wait()
	}
}

// Batch is one submitted slice of receipts. Its header is not pooled,
// so a worker holding a late ticket for a finished batch only ever
// finds its cursor exhausted.
type Batch struct {
	s        *Stream
	receipts []*evm.Receipt
	cs       int // receipts per chunk
	chunks   int
	cursor   atomic.Int64
	pending  atomic.Int64 // chunks not yet inspected
	done     chan struct{}
	// An encoded batch holds pooled result slots and wire buffers; a
	// report batch holds one report slot per receipt (never nil).
	bufs *batchBufs
	reps []*core.Report
}

// Submit queues receipts for encoding and returns at once unless the
// batch runs inline. The receipts are candidates: one whose report has
// no loans and no error is dropped — never delivered, never counted in
// the Summary or Metrics — so a caller may pass every receipt a cheap
// superset screen (flashloan.HasMarker) admits and gets exactly the
// flash loan transactions, identified once. The slice is copied; the
// receipts themselves must stay unchanged until the batch is done.
func (s *Stream) Submit(receipts []*evm.Receipt) *Batch {
	n := len(receipts)
	bb := bufsPool.Get().(*batchBufs)
	bb.receipts = append(bb.receipts[:0], receipts...)
	if cap(bb.results) < n {
		bb.results = make([]encoded, n)
	}
	bb.results = bb.results[:n]
	if m := s.opts.Metrics; m != nil && n > 0 {
		m.Scans.Inc()
		m.Workers.Set(int64(s.opts.ResolvedWorkers(n)))
	}
	return s.start(&Batch{bufs: bb}, bb.receipts)
}

// submitReports queues a report batch over receipts, uncounted in
// Metrics: Each counts its whole scan once.
func (s *Stream) submitReports(receipts []*evm.Receipt) *Batch {
	return s.start(&Batch{reps: make([]*core.Report, len(receipts))}, receipts)
}

// start chunks b over receipts and either inspects it inline or hands
// one ticket per worker it can occupy to the pool.
func (s *Stream) start(b *Batch, receipts []*evm.Receipt) *Batch {
	b.s, b.receipts, b.done = s, receipts, closed
	n := len(receipts)
	if n == 0 {
		return b
	}
	workers := s.opts.ResolvedWorkers(n)
	b.cs, b.chunks = n, 1
	if workers > 1 {
		b.cs = s.opts.chunkSize(n)
		b.chunks = (n + b.cs - 1) / b.cs
	}
	if bb := b.bufs; bb != nil && len(bb.wire) < b.chunks {
		bb.wire = append(bb.wire, make([][]byte, b.chunks-len(bb.wire))...)
	}
	if workers <= 1 {
		b.inspectChunk(0)
		return b
	}
	b.pending.Store(int64(b.chunks))
	b.done = make(chan struct{})
	for w := 0; w < workers; w++ {
		s.tickets <- b
	}
	return b
}

// work is one stream worker: each ticket is an invitation to claim
// chunks of a batch until its cursor runs out.
func (s *Stream) work() {
	defer s.wg.Done()
	m := s.opts.Metrics
	for b := range s.tickets {
		for {
			c := int(b.cursor.Add(1)) - 1
			if c >= b.chunks {
				break
			}
			var t metrics.Timer
			if m != nil {
				m.InFlight.Add(int64(b.chunkLen(c)))
				t = m.ChunkSeconds.Start()
			}
			b.inspectChunk(c)
			if m != nil {
				t.Stop()
				m.InFlight.Add(-int64(b.chunkLen(c)))
				m.Chunks.Inc()
			}
			if b.pending.Add(-1) == 0 {
				close(b.done)
				// Hand the P to the goroutine waiting on done. Without
				// the yield it sits in this P's runnext slot while this
				// worker claims the next batch's chunks.
				runtime.Gosched()
			}
		}
	}
}

func (b *Batch) chunkLen(c int) int { return min(b.cs, len(b.receipts)-c*b.cs) }

// inspectChunk runs chunk c as its batch's kind asks. The kind is
// branched on here, once per chunk, so neither per-receipt loop pays
// for the other.
func (b *Batch) inspectChunk(c int) {
	lo := c * b.cs
	hi := lo + b.chunkLen(c)
	if b.reps != nil {
		b.reportChunk(lo, hi)
	} else {
		b.encodeChunk(c, lo, hi)
	}
}

// reportChunk inspects receipts [lo, hi) on an arena from arenaPool and
// keeps every report.
func (b *Batch) reportChunk(lo, hi int) {
	det, m := b.s.det, b.s.opts.Metrics
	scratch := arenaPool.Get().(*core.Arena)
	for i := lo; i < hi; i++ {
		b.reps[i] = inspectSafe(det, b.receipts[i], &scratch, m)
	}
	// inspectSafe swaps in a fresh arena after a recovered panic; only
	// the live one is pooled.
	arenaPool.Put(scratch)
}

// encodeChunk inspects and encodes chunk c, receipts [lo, hi), on a
// rewind arena taken for the chunk.
func (b *Batch) encodeChunk(c, lo, hi int) {
	det, m, bb := b.s.det, b.s.opts.Metrics, b.bufs
	scratch := rewindPool.Get().(*core.Arena)
	buf := bb.wire[c][:0]
	for i := lo; i < hi; i++ {
		rep := inspectSafe(det, b.receipts[i], &scratch, m)
		e := encoded{v: verdictOf(rep)}
		if e.v.kept() {
			start := len(buf)
			buf, e.err = rep.AppendJSON(buf)
			e.wire = buf[start:len(buf):len(buf)]
		}
		scratch.Rewind()
		bb.results[i] = e
	}
	bb.wire[c] = buf
	rewindPool.Put(scratch)
}

// Done is closed once every receipt of the batch is inspected.
func (b *Batch) Done() <-chan struct{} { return b.done }

// Each waits for an encoded batch and delivers its kept receipts to fn in
// input order: the verdict and the report's wire bytes, a
// capacity-capped region of the batch's buffers valid until Release.
// Each folds every delivered verdict into the returned Summary and the
// stream's Metrics. An encode failure stops the delivery when its
// receipt's turn comes, as an error returned from fn does.
func (b *Batch) Each(fn func(i int, v Verdict, wire []byte) error) (Summary, error) {
	<-b.done
	var sum Summary
	m := b.s.opts.Metrics
	for i := range b.bufs.results {
		e := &b.bufs.results[i]
		if e.err != nil {
			return sum, e.err
		}
		if !e.v.kept() {
			continue
		}
		sum.observe(e.v)
		if m != nil {
			m.observeTx(e.v)
		}
		if err := fn(i, e.v, e.wire); err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// Release waits for the batch and returns its buffers for reuse; every
// wire slice Each delivered is invalid afterwards. Release on nil is a
// no-op.
func (b *Batch) Release() {
	if b == nil || b.bufs == nil {
		return
	}
	<-b.done
	clear(b.bufs.receipts) // pin no receipt while pooled
	bufsPool.Put(b.bufs)
	b.bufs = nil
}
