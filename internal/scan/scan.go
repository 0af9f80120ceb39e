// Package scan is the parallel batch-detection engine: it shards a
// receipt corpus across a pool of workers, each owning a view of one
// shared *core.Detector plus its own reusable pipeline scratch, and
// re-sequences the results so that output order, report bytes, and
// aggregate statistics are identical to a sequential scan.
//
// Determinism is the design constraint. Detection is a pure function of
// the receipt (the tagger and thresholds are fixed at detector
// construction), so inspecting receipts concurrently and emitting the
// reports in input order reproduces the sequential run byte for byte —
// only the wall-clock Elapsed field varies, exactly as it does between
// two sequential runs. Workers=1 degenerates to a plain loop.
//
// The pool deliberately lives outside the pure pipeline packages
// (internal/core and below): goroutines, atomics and channels are
// scheduling state, not detection state, and the purity gate keeps them
// out of the per-transaction path.
package scan

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/metrics"
	"leishen/internal/types"
)

// Chunking bounds. Chunks amortize the claim (one atomic add) and
// completion (one channel send) over many receipts while staying small
// enough to keep the re-sequencer streaming and the pool load-balanced.
const (
	// MinChunkSize floors the adaptive chunk size: below it, per-chunk
	// bookkeeping dominates the work.
	MinChunkSize = 16
	// MaxChunkSize caps the adaptive chunk size: above it, the emitter's
	// frontier stalls too long behind a slow chunk.
	MaxChunkSize = 512
	// targetChunksPerWorker is the load-balancing slack the adaptive
	// size aims for: enough chunks per worker that an unlucky worker
	// holding a slow chunk doesn't idle the rest of the pool.
	targetChunksPerWorker = 8
)

// Arena is the per-worker pipeline arena (alias of core.Arena): every
// intermediate buffer plus the slabs backing report data. Scan and Each
// draw arenas from an internal pool, so repeated scans through one
// engine reuse warmed buffers across calls.
type Arena = core.Arena

// arenaPool recycles warmed arenas across scans. Pooling is safe
// because reports own their data (slab regions are never rewritten):
// an arena returned to the pool may still back live reports, and a
// later scan only appends to its slabs. For the same reason an arena
// from this pool is never rewound; a Stream keeps its own.
var arenaPool = sync.Pool{New: func() any { return core.NewArena() }}

// Options configures a scan.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the number of receipts per work unit; <= 0 sizes
	// chunks adaptively from the input length and worker count (about
	// targetChunksPerWorker chunks per worker, clamped to
	// [MinChunkSize, MaxChunkSize]).
	ChunkSize int
	// Metrics, when non-nil, receives per-transaction and per-chunk
	// telemetry. Instrumentation never changes reports, order, or the
	// summary — only the side channel — and stays allocation-free on
	// the per-transaction path.
	Metrics *Metrics
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkSize resolves the work-unit size for an n-receipt scan. An
// explicit ChunkSize wins; otherwise the size adapts to give each
// worker about targetChunksPerWorker chunks, clamped to
// [MinChunkSize, MaxChunkSize] — small corpora keep chunks small enough
// to use every worker, huge corpora amortize claim overhead without
// stalling the in-order emitter.
func (o Options) chunkSize(n int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	cs := n / (o.workers() * targetChunksPerWorker)
	if cs < MinChunkSize {
		return MinChunkSize
	}
	if cs > MaxChunkSize {
		return MaxChunkSize
	}
	return cs
}

// ResolvedWorkers returns the pool size a scan over n receipts actually
// uses: Workers (GOMAXPROCS when unset) clamped to the number of work
// chunks — extra workers would never claim a chunk.
func (o Options) ResolvedWorkers(n int) int {
	cs := o.chunkSize(n)
	numChunks := (n + cs - 1) / cs
	w := o.workers()
	if w > numChunks {
		w = numChunks
	}
	return w
}

// Summary aggregates corpus-wide statistics. Every field is a commutative
// count, so the summary is identical for any worker count.
type Summary struct {
	// Inspected is the number of receipts scanned.
	Inspected int `json:"inspected"`
	// FlashLoans counts receipts with at least one identified flash loan.
	FlashLoans int `json:"flashLoans"`
	// Attacks counts flpAttack verdicts.
	Attacks int `json:"attacks"`
	// Suppressed counts verdicts discarded by the yield-aggregator
	// heuristic.
	Suppressed int `json:"suppressed"`
	// Errors counts receipts whose inspection failed — a detector panic
	// recovered into an error verdict instead of killing the scan.
	Errors int `json:"errors,omitempty"`
}

// Observe folds one report into the summary.
func (s *Summary) Observe(rep *core.Report) { s.observe(verdictOf(rep)) }

func (s *Summary) observe(v Verdict) {
	s.Inspected++
	if v.Error {
		s.Errors++
		return
	}
	if v.FlashLoan {
		s.FlashLoans++
	}
	if v.Attack {
		s.Attacks++
	}
	if v.Suppressed {
		s.Suppressed++
	}
}

// Verdict is the part of a report the engine's bookkeeping — Summary,
// Metrics, and an archive's index flags — reads: the transaction's
// identity, its verdict classes and its detection latency. It is what
// a Stream delivers in place of the report itself.
type Verdict struct {
	TxHash types.Hash
	Block  uint64
	// Elapsed is the report's detection wall time.
	Elapsed time.Duration
	// FlashLoan: at least one loan was identified. Attack and
	// Suppressed mirror the report's IsAttack and
	// SuppressedByHeuristic.
	FlashLoan  bool
	Attack     bool
	Suppressed bool
	// Error: inspection failed and the report is an error verdict.
	Error bool
}

func verdictOf(rep *core.Report) Verdict {
	return Verdict{
		TxHash:     rep.TxHash,
		Block:      rep.Block,
		Elapsed:    rep.Elapsed,
		FlashLoan:  len(rep.Loans) > 0,
		Attack:     rep.IsAttack,
		Suppressed: rep.SuppressedByHeuristic,
		Error:      rep.Error != "",
	}
}

// Add folds another summary into s — how the follower and the HTTP
// server accumulate per-batch summaries into lifetime totals.
func (s *Summary) Add(o Summary) {
	s.Inspected += o.Inspected
	s.FlashLoans += o.FlashLoans
	s.Attacks += o.Attacks
	s.Suppressed += o.Suppressed
	s.Errors += o.Errors
}

// inspectSafe runs one inspection, converting a detector panic into a
// deterministic per-transaction error verdict so one poisoned receipt
// cannot take down a whole scan (or the follower daemon above it). A
// panicking pipeline may leave the arena's intermediates inconsistent,
// so the poisoned arena is abandoned — *scratch is replaced with a
// fresh arena and the old one is never returned to the pool.
func inspectSafe(det *core.Detector, r *evm.Receipt, scratch **core.Arena, m *Metrics) (rep *core.Report) {
	defer func() {
		if p := recover(); p != nil {
			*scratch = core.NewArena()
			if m != nil {
				m.Panics.Inc()
			}
			rep = core.ErrorReport(r, fmt.Sprintf("detector panic: %v", p))
		}
	}()
	return det.InspectScratch(r, *scratch)
}

// Scan inspects every receipt and returns the reports in input order,
// along with the aggregate summary.
func Scan(det *core.Detector, receipts []*evm.Receipt, opts Options) ([]*core.Report, Summary) {
	out := make([]*core.Report, 0, len(receipts))
	//lint:allow errflow the collector callback never returns an error, so Each cannot fail
	sum, _ := Each(det, receipts, opts, func(_ int, rep *core.Report) error {
		out = append(out, rep)
		return nil
	})
	return out, sum
}

// Each inspects every receipt and streams the reports to fn in input
// order as they resolve — a parallel scan behind a sequential callback.
// fn runs on the calling goroutine; returning a non-nil error stops the
// scan (workers finish their in-flight chunk, no further reports are
// delivered) and Each returns that error with the summary of the reports
// delivered so far.
func Each(det *core.Detector, receipts []*evm.Receipt, opts Options, fn func(i int, rep *core.Report) error) (Summary, error) {
	var sum Summary
	m := opts.Metrics
	err := run(len(receipts), opts, func(int) (func(int) *core.Report, func()) {
		scratch := arenaPool.Get().(*core.Arena)
		inspect := func(i int) *core.Report { return inspectSafe(det, receipts[i], &scratch, m) }
		// A closure, not a bound argument: inspectSafe swaps in a fresh
		// arena after a recovered panic, and only the live one may be
		// pooled.
		return inspect, func() { arenaPool.Put(scratch) }
	}, func(i int, rep *core.Report) error {
		v := verdictOf(rep)
		sum.observe(v)
		if m != nil {
			m.observeTx(v)
		}
		return fn(i, rep)
	})
	return sum, err
}

// run is the engine behind Each. With one worker it runs inline: no
// goroutine pool, no cursor, no re-sequencer — the sequential baseline
// the determinism guarantee is stated against. Otherwise workers claim
// chunk indices from an atomic cursor, write results into disjoint
// regions of results, and announce each finished chunk; the calling
// goroutine advances a frontier over the completed chunks and hands
// every result to emit strictly in input order.
//
// newWorker(w) starts worker w: it returns the per-receipt function
// and a release that runs when the worker exits. A non-nil error from
// emit stops the pass: workers finish their in-flight chunk, nothing
// further is emitted, and run returns that error once every worker has
// exited.
func run(n int, opts Options, newWorker func(w int) (func(i int) *core.Report, func()), emit func(i int, rep *core.Report) error) error {
	if n == 0 {
		return nil
	}
	cs := opts.chunkSize(n)
	numChunks := (n + cs - 1) / cs
	workers := opts.ResolvedWorkers(n)
	m := opts.Metrics
	if m != nil {
		m.Scans.Inc()
		m.Workers.Set(int64(workers))
	}

	if workers <= 1 {
		do, release := newWorker(0)
		defer release()
		for i := 0; i < n; i++ {
			if err := emit(i, do(i)); err != nil {
				return err
			}
		}
		return nil
	}

	results := make([]*core.Report, n)
	var (
		cursor atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	doneCh := make(chan int, numChunks)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do, release := newWorker(w)
			defer release()
			for {
				if stop.Load() {
					return
				}
				c := int(cursor.Add(1)) - 1
				if c >= numChunks {
					return
				}
				lo := c * cs
				hi := min(lo+cs, n)
				var t metrics.Timer
				if m != nil {
					m.InFlight.Add(int64(hi - lo))
					t = m.ChunkSeconds.Start()
				}
				for i := lo; i < hi; i++ {
					results[i] = do(i)
				}
				if m != nil {
					t.Stop()
					m.InFlight.Add(int64(lo - hi))
					m.Chunks.Inc()
				}
				doneCh <- c
			}
		}()
	}
	go func() {
		wg.Wait()
		close(doneCh)
	}()

	completed := make([]bool, numChunks)
	frontier := 0
	var emitErr error
	for c := range doneCh {
		completed[c] = true
		for emitErr == nil && frontier < numChunks && completed[frontier] {
			lo := frontier * cs
			hi := min(lo+cs, n)
			for i := lo; i < hi; i++ {
				rep := results[i]
				results[i] = nil // release as we stream
				if err := emit(i, rep); err != nil {
					emitErr = err
					stop.Store(true)
					break
				}
			}
			frontier++
		}
	}
	if emitErr != nil {
		clear(results) // drop the results that will never be emitted
	}
	return emitErr
}
