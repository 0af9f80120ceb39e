// Package scan is the parallel batch-detection engine: one pool of
// workers (Stream) that shards receipts into chunks, each worker
// inspecting with a view of one shared *core.Detector and a pooled
// arena, and hands the results back in input order, so that output
// order, report bytes, and aggregate statistics are identical to a
// sequential scan. Scan and Each keep every report; the encoded path
// (Submit) keeps only the flash loan transactions' wire bytes.
//
// Determinism is the design constraint. Detection is a pure function of
// the receipt (the tagger and thresholds are fixed at detector
// construction), so inspecting receipts concurrently and delivering the
// results in input order reproduces the sequential run byte for byte —
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
	"time"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/types"
)

// Chunking bounds. Chunks amortize the claim (one atomic add) and the
// arena hand-off over many receipts while staying small enough to keep
// the pool load-balanced.
const (
	// MinChunkSize floors the adaptive chunk size: below it, per-chunk
	// bookkeeping dominates the work.
	MinChunkSize = 16
	// MaxChunkSize caps the adaptive chunk size: above it, a batch
	// stalls too long behind its slowest chunk.
	MaxChunkSize = 512
	// targetChunksPerWorker is the load-balancing slack the adaptive
	// size aims for: enough chunks per worker that an unlucky worker
	// holding a slow chunk doesn't idle the rest of the pool.
	targetChunksPerWorker = 8
)

// Arena is the per-chunk pipeline arena (alias of core.Arena): every
// intermediate buffer plus the slabs backing report data. Scan and Each
// draw arenas from an internal pool, so repeated scans through one
// engine reuse warmed buffers across calls.
type Arena = core.Arena

// arenaPool recycles warmed arenas across scans. Pooling is safe
// because reports own their data (slab regions are never rewritten):
// an arena returned to the pool may still back live reports, and a
// later scan only appends to its slabs. For the same reason an arena
// from this pool is never rewound; the encoded path keeps its own.
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
// stalling a batch behind one long chunk.
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
	return det.Inspect(r, *scratch)
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
// order — a parallel scan behind a sequential callback. It submits the
// receipts, a window at a time, as report batches to a Stream sized for
// the input; while fn receives one window's reports, the pool inspects
// the next (one worker inspects inline, without lookahead). fn runs on
// the calling goroutine; a non-nil error from it stops the scan (the
// window in flight finishes, nothing further is submitted or
// delivered) and Each returns it with the summary of the reports
// delivered so far.
func Each(det *core.Detector, receipts []*evm.Receipt, opts Options, fn func(i int, rep *core.Report) error) (Summary, error) {
	var sum Summary
	n := len(receipts)
	if n == 0 {
		return sum, nil
	}
	opts.Workers = opts.ResolvedWorkers(n)
	m := opts.Metrics
	if m != nil {
		m.Scans.Inc()
		m.Workers.Set(int64(opts.Workers))
	}
	s := NewStream(det, opts)
	defer s.Close()
	// targetChunksPerWorker full chunks per worker: a shorter input is
	// one batch, chunked as chunkSize sizes the whole input.
	window := opts.Workers * targetChunksPerWorker * MaxChunkSize
	var next *Batch
	for lo := 0; lo < n; lo += window {
		cur := next
		if cur == nil { // the first window, or any window of an inline stream
			cur = s.submitReports(receipts[lo:min(lo+window, n)])
		}
		if hi := lo + window; hi < n && s.tickets != nil {
			next = s.submitReports(receipts[hi:min(hi+window, n)]) // one window of lookahead
		}
		<-cur.done
		for i, rep := range cur.reps {
			v := verdictOf(rep)
			sum.observe(v)
			if m != nil {
				m.observeTx(v)
			}
			if err := fn(lo+i, rep); err != nil {
				return sum, err
			}
		}
	}
	return sum, nil
}
