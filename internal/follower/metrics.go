package follower

import "leishen/internal/metrics"

// Metrics is the follower's telemetry bundle. Attach via
// Options.Metrics; nil disables instrumentation (the daemons wire it,
// unit tests mostly run bare). The write-path metrics live in the
// writer goroutine's group-commit loop, so one block costs a few
// atomic adds and — only when a batch syncs — one timer read pair.
type Metrics struct {
	// Blocks counts blocks processed (screened, scanned, enqueued).
	Blocks *metrics.Counter
	// Reorgs counts realignments that actually rolled the archive back.
	Reorgs *metrics.Counter
	// QueueDepth is the write queue's current occupancy, in blocks.
	QueueDepth *metrics.Gauge
	// CheckpointLag is source head minus the last durable checkpoint —
	// the follower's distance behind the chain.
	CheckpointLag *metrics.Gauge
	// BatchOps is the group-commit batch size distribution (appends +
	// checkpoints per writer wakeup); its mean is the fsync
	// amortization factor.
	BatchOps *metrics.Histogram
	// FsyncSeconds is the distribution of batch fsync wall times.
	FsyncSeconds *metrics.Histogram
	// Batches / Ops / Syncs mirror Stats' writer counters as live
	// series.
	Batches *metrics.Counter
	Ops     *metrics.Counter
	Syncs   *metrics.Counter
	// WriteRetries / SourceRetries count transient-failure retries on
	// the archive write path and the block source.
	WriteRetries  *metrics.Counter
	SourceRetries *metrics.Counter
	// Degraded is 1 while the writer is in retry/backoff, 0 otherwise —
	// the live form of the health endpoint's degraded flag.
	Degraded *metrics.Gauge
}

// NewMetrics registers the follower metric family on r and returns the
// bundle.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Blocks:        r.Counter("leishen_follower_blocks_total", "Blocks screened and scanned by the follower."),
		Reorgs:        r.Counter("leishen_follower_reorg_rollbacks_total", "Realignments that rolled the archive back to a fork point."),
		QueueDepth:    r.Gauge("leishen_follower_queue_depth", "Archive write queue occupancy (blocks waiting for the writer)."),
		CheckpointLag: r.Gauge("leishen_follower_checkpoint_lag_blocks", "Source head height minus the last durable checkpoint."),
		BatchOps: r.Histogram("leishen_follower_write_batch_ops",
			"Appends plus checkpoints applied per group-commit batch.", metrics.DefCountBuckets),
		FsyncSeconds: r.Histogram("leishen_follower_fsync_seconds",
			"Wall time of each group-commit fsync.", metrics.DefLatencyBuckets),
		Batches:       r.Counter("leishen_follower_writer_batches_total", "Group-commit batches committed by the writer."),
		Ops:           r.Counter("leishen_follower_writer_ops_total", "Records and checkpoints applied by the writer."),
		Syncs:         r.Counter("leishen_follower_writer_syncs_total", "Fsyncs issued by the writer."),
		WriteRetries:  r.Counter("leishen_follower_write_retries_total", "Transient archive-write failures retried with backoff."),
		SourceRetries: r.Counter("leishen_follower_source_retries_total", "Transient block-source failures retried with backoff."),
		Degraded:      r.Gauge("leishen_follower_degraded", "1 while the archive writer is in retry/backoff, 0 when healthy."),
	}
}
