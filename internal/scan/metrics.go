package scan

import "leishen/internal/metrics"

// Metrics is the scan engine's telemetry bundle. Attach one via
// Options.Metrics to instrument a scan; a nil bundle costs a single
// predictable branch on the hot path.
//
// Per-transaction latency comes from the report's own Elapsed field —
// the detector already reads its injected clock around each
// inspection — so instrumenting the per-tx path adds no clock reads,
// no allocations, and a handful of uncontended atomic adds (the
// BENCH_metrics.json gate holds the total under 3% of scan
// throughput).
type Metrics struct {
	// Txs counts receipts scanned; FlashLoans/Attacks/Suppressed count
	// the verdict classes — the live-rate view of scan.Summary.
	Txs        *metrics.Counter
	FlashLoans *metrics.Counter
	Attacks    *metrics.Counter
	Suppressed *metrics.Counter
	// Scans counts scan passes (one Each/Scan call each).
	Scans *metrics.Counter
	// InFlight is the number of receipts claimed by pool workers and
	// not yet finished — populated by the pooled path (a one-worker
	// scan holds at most one receipt in flight).
	InFlight *metrics.Gauge
	// Workers is the resolved pool size of the most recent scan.
	Workers *metrics.Gauge
	// DetectSeconds is the per-transaction detection latency
	// distribution (the report's Elapsed).
	DetectSeconds *metrics.Histogram
	// ChunkSeconds is wall time per work chunk across all workers; its
	// rate-of-sum divided by Workers is per-worker utilization.
	ChunkSeconds *metrics.Histogram
	// Chunks counts work chunks claimed by pool workers.
	Chunks *metrics.Counter
	// Panics counts detector panics recovered into per-transaction
	// error verdicts — any nonzero value means degraded coverage and
	// deserves an alert.
	Panics *metrics.Counter
}

// NewMetrics registers the scan metric family on r and returns the
// bundle.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Txs:        r.Counter("leishen_scan_txs_total", "Receipts inspected by the scan engine."),
		FlashLoans: r.Counter("leishen_scan_flash_loan_txs_total", "Inspected receipts containing at least one identified flash loan."),
		Attacks:    r.Counter("leishen_scan_attack_verdicts_total", "Inspected receipts flagged as flpAttacks."),
		Suppressed: r.Counter("leishen_scan_suppressed_verdicts_total", "Verdicts discarded by the yield-aggregator heuristic."),
		Scans:      r.Counter("leishen_scan_passes_total", "Scan passes started (batch, /batch request, or followed block)."),
		InFlight:   r.Gauge("leishen_scan_inflight_txs", "Receipts claimed by pool workers and not yet inspected."),
		Workers:    r.Gauge("leishen_scan_workers", "Resolved worker-pool size of the most recent scan."),
		DetectSeconds: r.Histogram("leishen_scan_detect_seconds",
			"Per-transaction detection latency.", metrics.DefLatencyBuckets),
		ChunkSeconds: r.Histogram("leishen_scan_chunk_seconds",
			"Wall time per claimed work chunk; rate(sum)/leishen_scan_workers is per-worker utilization.",
			metrics.DefLatencyBuckets),
		Chunks: r.Counter("leishen_scan_chunks_total", "Work chunks claimed by pool workers."),
		Panics: r.Counter("leishen_scan_panics_total", "Detector panics recovered into per-transaction error verdicts."),
	}
}

// observeTx folds one resolved verdict into the per-transaction
// counters and the latency histogram. Called from the goroutine that
// delivers the batch, so the atomics are uncontended.
func (m *Metrics) observeTx(v Verdict) {
	m.Txs.Inc()
	if v.FlashLoan {
		m.FlashLoans.Inc()
	}
	if v.Attack {
		m.Attacks.Inc()
	}
	if v.Suppressed {
		m.Suppressed.Inc()
	}
	m.DetectSeconds.ObserveDuration(v.Elapsed)
}
