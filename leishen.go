// Package leishen is the public API of the LeiShen reproduction: a
// detector for flash-loan-based price manipulation attacks (flpAttacks)
// in Ethereum, from the ICDCS 2023 paper "Detecting Flash Loan Based
// Attacks in Ethereum".
//
// The detection pipeline takes a transaction receipt and answers whether
// it is a flash loan transaction, and if so, whether its trades match one
// of three attack patterns:
//
//	KRP — Keep Raising Price
//	SBS — Symmetrical Buying and Selling
//	MBS — Multi-Round Buying and Selling
//
// Quickstart:
//
//	det := leishen.NewDetector(chain, registry, leishen.Options{
//	    Simplify: leishen.SimplifyOptions{WETH: weth},
//	})
//	report := det.Inspect(receipt, nil)
//	if report.IsAttack {
//	    fmt.Println(report.Summary())
//	}
//
// The repository also ships the full simulated-substrate evaluation of
// the paper: see internal/attacks for the 22 real-world attack
// reproductions, internal/world for the wild-corpus generator, and
// cmd/evalgen for the table/figure regeneration harness.
package leishen

import (
	"leishen/internal/archive"
	"leishen/internal/baselines"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/follower"
	"leishen/internal/metrics"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/tagging"
	"leishen/internal/trace"
	"leishen/internal/types"
)

// Core detection types, re-exported from the internal implementation.
type (
	// Detector is the LeiShen pipeline (paper Fig. 5).
	Detector = core.Detector
	// Options configures a Detector.
	Options = core.Options
	// Thresholds holds the pattern parameters (paper defaults: KRP >= 5
	// buys, SBS >= 28% pump, MBS >= 3 rounds).
	Thresholds = core.Thresholds
	// Report is the per-transaction verdict.
	Report = core.Report
	// Match is one detected pattern instance.
	Match = core.Match
	// PatternKind enumerates KRP / SBS / MBS.
	PatternKind = core.PatternKind
	// SimplifyOptions configures the §V-B2 transfer simplification rules.
	SimplifyOptions = simplify.Options

	// ChainView is the chain surface tagging reads (labels + creation
	// relationships); evm.Chain implements it.
	ChainView = tagging.ChainView
	// TokenResolver resolves token metadata for transfer extraction; the
	// token registry implements it.
	TokenResolver = trace.TokenResolver

	// Receipt is a transaction execution record.
	Receipt = evm.Receipt
	// Address is a 160-bit account address.
	Address = types.Address
	// Token identifies a crypto asset.
	Token = types.Token
	// Trade is the paper's trade tuple.
	Trade = types.Trade
)

// Attack patterns.
const (
	PatternKRP = core.PatternKRP
	PatternSBS = core.PatternSBS
	PatternMBS = core.PatternMBS
)

// NewDetector builds a detector over a chain snapshot. The account tagger
// is precomputed here; per-transaction inspection is then a pure function
// of the receipt.
func NewDetector(view ChainView, tokens TokenResolver, opts Options) *Detector {
	return core.NewDetector(view, tokens, opts)
}

// DefaultThresholds returns the paper's calibrated pattern parameters.
func DefaultThresholds() Thresholds { return core.DefaultThresholds() }

// PairVolatilities computes the paper's price-volatility formula per
// token pair over a trade list (Table I's measurement).
func PairVolatilities(trades []Trade) map[string]float64 {
	return baselines.PairVolatilities(trades)
}

// PairVolatility is one pair's measured volatility.
type PairVolatility = baselines.PairVolatility

// Batch scanning, re-exported from the internal/scan engine.
type (
	// ScanOptions sizes the scan worker pool and its work chunks.
	ScanOptions = scan.Options
	// ScanSummary aggregates one scan pass.
	ScanSummary = scan.Summary
)

// ScanReceipts inspects a batch of receipts on a worker pool and returns
// one report per receipt, in input order. Output is byte-identical to a
// sequential Inspect loop for any worker count.
func ScanReceipts(det *Detector, receipts []*Receipt, opts ScanOptions) ([]*Report, ScanSummary) {
	return scan.Scan(det, receipts, opts)
}

// ScanEach streams each report, in input order, to fn while later
// receipts are still being inspected (the pool works one window
// ahead). A non-nil error from fn stops the scan and is returned.
func ScanEach(det *Detector, receipts []*Receipt, opts ScanOptions, fn func(i int, rep *Report) error) (ScanSummary, error) {
	return scan.Each(det, receipts, opts, fn)
}

// SortedPairVolatilities returns per-pair volatilities in descending
// volatility order — use this when printing or reporting, so output does
// not depend on map iteration order.
func SortedPairVolatilities(trades []Trade) []PairVolatility {
	return baselines.SortedPairVolatilities(trades)
}

// Durable verdict storage and continuous ingestion, re-exported from
// the internal/archive and internal/follower subsystems.
type (
	// Archive is the crash-safe append-only store of detection reports.
	Archive = archive.Archive
	// ArchiveOptions sizes the archive's log segments.
	ArchiveOptions = archive.Options
	// ArchiveRecord is one stored log entry.
	ArchiveRecord = archive.Record
	// ArchiveRawRecord is the zero-decode view of one stored report:
	// frame metadata plus the report JSON exactly as archived. Treat the
	// Report bytes as read-only — they may alias the archive's cache.
	ArchiveRawRecord = archive.RawRecord
	// ArchiveQuery selects stored reports by block range and verdict.
	ArchiveQuery = archive.Query
	// ArchiveCheckpoint marks the last fully-archived block.
	ArchiveCheckpoint = archive.Checkpoint
	// ArchiveStats snapshots the store's shape and the effectiveness of
	// its index layers (sidecar opens, segment pruning, record cache).
	ArchiveStats = archive.Stats
	// Follower tails a chain head, screening each block into an archive.
	Follower = follower.Follower
	// FollowerOptions configures the follower's scan pool and queue.
	FollowerOptions = follower.Options
	// BlockSource is the chain surface a follower tails; its methods
	// may fail, and transient failures are retried under RetryPolicy.
	BlockSource = follower.BlockSource
	// RetryPolicy bounds how the follower retries transient archive and
	// source failures (FollowerOptions.Retry).
	RetryPolicy = follower.RetryPolicy
)

// ChainSource adapts an in-process chain to the follower's fallible
// BlockSource interface.
func ChainSource(c *evm.Chain) BlockSource { return follower.ChainSource(c) }

// Verdict flags cached on every archived record, for ArchiveQuery.Flags.
const (
	FlagFlashLoan  = archive.FlagFlashLoan
	FlagAttack     = archive.FlagAttack
	FlagSuppressed = archive.FlagSuppressed
)

// OpenArchive opens (or creates) a durable report archive rooted at
// dir, recovering any torn tail a crash left behind.
func OpenArchive(dir string, opts ArchiveOptions) (*Archive, error) {
	return archive.Open(dir, opts)
}

// NewFollower starts a follower that screens src's blocks through det
// and appends the verdicts to arc, resuming from arc's checkpoint.
func NewFollower(src BlockSource, det *Detector, arc *Archive, opts FollowerOptions) (*Follower, error) {
	return follower.New(src, det, arc, opts)
}

// Runtime telemetry, re-exported from the internal/metrics subsystem.
type (
	// MetricsRegistry holds named series and renders them in Prometheus
	// text exposition format 0.0.4 (Registry.AppendText / Handler).
	MetricsRegistry = metrics.Registry
	// ScanMetrics instruments the batch engine; attach via
	// ScanOptions.Metrics.
	ScanMetrics = scan.Metrics
	// FollowerMetrics instruments the ingestion daemon; attach via
	// FollowerOptions.Metrics.
	FollowerMetrics = follower.Metrics
)

// Metrics returns the process-wide default registry — the one
// cmd/leishen exposes on /metrics. Libraries embedding the detector can
// register their own series on it, or build a private registry with
// metrics.NewRegistry and the New*Metrics constructors below.
func Metrics() *MetricsRegistry { return metrics.Default() }

// NewScanMetrics registers the scan engine's series on r and returns
// the bundle to attach to ScanOptions.Metrics.
func NewScanMetrics(r *MetricsRegistry) *ScanMetrics { return scan.NewMetrics(r) }

// NewFollowerMetrics registers the follower's series on r and returns
// the bundle to attach to FollowerOptions.Metrics.
func NewFollowerMetrics(r *MetricsRegistry) *FollowerMetrics { return follower.NewMetrics(r) }
