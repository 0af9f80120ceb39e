package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"leishen/internal/archive"
)

// layerProbe holds what a traced run measures after its passes.
type layerProbe struct {
	rep         replayed
	self        map[string]time.Duration // replay self time by layer
	replayTotal time.Duration            // summed block spans of the replay
	live        time.Duration            // the same blocks' ingest time in the live pass
	serveAllocs float64                  // heap objects per request in the serve handler
}

// probeLayers replays the last pass's blocks through each layer's
// public calls with one parent span per block, and counts the serve
// handler's allocations per request in process.
func (h *harness) probeLayers(last passOut) (*layerProbe, error) {
	dir := filepath.Join(h.dir, "replay")
	arc, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	drainGC()
	rep, err := replay(last.st.det, last.live, h.tr, arc)
	if cerr := arc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	lp := &layerProbe{rep: rep, self: h.tr.selfTimes(), live: last.ps.busy}
	for _, d := range h.tr.durations("block") {
		lp.replayTotal += time.Duration(d)
	}

	hashes := rep.sampled()
	var paths []string
	for i, hx := range hashes {
		b := last.archived[i*len(last.archived)/len(hashes)].Number
		paths = append(paths, "/reports/"+hx, fmt.Sprintf("/reports?from=%d&to=%d&limit=%d", b, b+rangeBlocks-1, listLimit))
	}
	if lp.serveAllocs, err = handlerAllocs(*h.handler.Load(), paths); err != nil {
		return nil, err
	}
	return lp, nil
}

// handlerAllocs calls handler in process for each path, once to warm
// its pools and once counted, and returns heap objects per request.
func handlerAllocs(handler http.Handler, paths []string) (float64, error) {
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		r, err := http.NewRequest(http.MethodGet, p, nil)
		if err != nil {
			return 0, err
		}
		reqs[i] = r
	}
	w := &discardWriter{hdr: make(http.Header)}
	serveAll := func() error {
		for _, r := range reqs {
			clear(w.hdr)
			w.code = http.StatusOK
			handler.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				return fmt.Errorf("GET %s answered %d", r.URL, w.code)
			}
		}
		return nil
	}
	if err := serveAll(); err != nil {
		return 0, err
	}
	runtime.GC()
	a0 := heapAllocs()
	if err := serveAll(); err != nil {
		return 0, err
	}
	return float64(heapAllocs()-a0) / float64(len(reqs)), nil
}

// discardWriter is a ResponseWriter that keeps only the status code.
type discardWriter struct {
	hdr  http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// perLayerMetrics reduces the traced passes, the span record and the
// replay to the per-layer metrics.
func perLayerMetrics(passes []passStats, tr *tracer, lp *layerProbe) map[string]metric {
	var (
		blocks, txs, queries, srcCalls            float64
		writerOps, writerSyncs, retries           float64
		writes, writeBytes, syncs, readAts, reads float64
		respBytes, responses                      float64
		allocs, gcCycles, gcPause, wall           float64
		syncNs, reopen                            []float64
		arc                                       archive.Stats
		traced, untraced                          []float64
	)
	for _, ps := range passes {
		primary := float64(ps.opBusy) / float64(ps.ops)
		if !ps.traced {
			untraced = append(untraced, primary)
			continue
		}
		traced = append(traced, primary)
		blocks += float64(ps.blocks)
		txs += float64(ps.txs)
		queries += float64(ps.queries)
		srcCalls += float64(ps.srcCalls)
		writerOps += float64(ps.folStats.WriterOps)
		writerSyncs += float64(ps.folStats.WriterSyncs)
		retries += float64(ps.folStats.WriteRetries)
		writes += float64(ps.fs.writes.Load())
		writeBytes += float64(ps.fs.writeBytes.Load())
		syncs += float64(ps.fs.syncs.Load())
		readAts += float64(ps.fs.readAts.Load())
		reads += float64(ps.fs.readBytes.Load())
		syncNs = append(syncNs, ps.fs.syncNs...)
		respBytes += ps.respBytes
		responses += ps.responses
		allocs += float64(ps.allocs)
		gcCycles += float64(ps.gcCycles)
		gcPause += float64(ps.gcPause)
		wall += float64(ps.wall)
		reopen = append(reopen, float64(ps.reopen))
		a := ps.arcStats
		arc.CacheHits += a.CacheHits
		arc.CacheMisses += a.CacheMisses
		arc.ReadRuns += a.ReadRuns
		arc.ReadFrames += a.ReadFrames
		arc.SelectSegmentsScanned += a.SelectSegmentsScanned
		arc.SelectSegmentsPruned += a.SelectSegmentsPruned
	}
	n := float64(len(traced))
	rep := lp.rep
	reports := float64(rep.reports)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]metric{
		"source.calls_per_block": {ratio(srcCalls, blocks), "count"},

		"screen.ns_per_receipt": {ratio(float64(lp.self["screen"]), float64(rep.receipts)), "ns"},
		"screen.pass_share":     {ratio(reports, float64(rep.receipts)), "ratio"},

		"detect.ns_per_tx":     {ratio(float64(lp.self["detect"]), reports), "ns"},
		"detect.allocs_per_tx": {ratio(float64(rep.eachAllocs-rep.encodeAllocs), reports), "count"},

		"encode.ns_per_tx":     {ratio(float64(lp.self["encode"]), reports), "ns"},
		"encode.bytes_per_tx":  {ratio(float64(rep.bytes), reports), "B"},
		"encode.allocs_per_tx": {ratio(float64(rep.encodeAllocs), reports), "count"},

		"follower.step_ms_p50":       {median(tr.durations("follower.step")) / 1e6, "ms"},
		"follower.flush_wait_ms_p50": {median(tr.durations("follower.flush")) / 1e6, "ms"},
		"follower.ops_per_sync":      {ratio(writerOps, writerSyncs), "count"},
		"follower.syncs_per_block":   {ratio(writerSyncs, blocks), "count"},
		"follower.write_retries":     {retries, "count"},

		"archive.append_ns_per_record": {ratio(float64(lp.self["append"]), reports), "ns"},
		"archive.reopen_ms":            {median(reopen) / 1e6, "ms"},
		"archive.cache_hit_ratio":      {ratio(float64(arc.CacheHits), float64(arc.CacheHits+arc.CacheMisses)), "ratio"},
		"archive.read_runs_per_query":  {ratio(float64(arc.ReadRuns), queries), "count"},
		"archive.frames_per_run":       {ratio(float64(arc.ReadFrames), float64(arc.ReadRuns)), "count"},
		"archive.pruned_share": {ratio(float64(arc.SelectSegmentsPruned),
			float64(arc.SelectSegmentsPruned+arc.SelectSegmentsScanned)), "ratio"},

		"vfs.write_calls_per_block":  {ratio(writes, blocks), "count"},
		"vfs.bytes_written_per_tx":   {ratio(writeBytes, txs), "B"},
		"vfs.syncs_per_block":        {ratio(syncs, blocks), "count"},
		"vfs.sync_us_p50":            {median(syncNs) / 1e3, "us"},
		"vfs.readat_calls_per_query": {ratio(readAts, queries), "count"},
		"vfs.read_bytes_per_query":   {ratio(reads, queries), "B"},

		"serve.list_ms_p50":        {median(tr.durations("serve.list")) / 1e6, "ms"},
		"serve.get_ms_p50":         {median(tr.durations("serve.get")) / 1e6, "ms"},
		"serve.confirm_ms_p50":     {median(tr.durations("serve.confirm")) / 1e6, "ms"},
		"serve.bytes_per_response": {ratio(respBytes, responses), "B"},
		"serve.allocs_per_request": {lp.serveAllocs, "count"},

		"runtime.allocs_per_tx":      {ratio(allocs, txs), "count"},
		"runtime.gc_cycles_per_pass": {ratio(gcCycles, n), "count"},
		"runtime.gc_pause_share":     {ratio(gcPause, wall), "ratio"},
		"runtime.gomaxprocs":         {float64(runtime.GOMAXPROCS(0)), "count"},

		"trace.overhead_share":     {ratio(median(traced), median(untraced)) - 1, "ratio"},
		"trace.unattributed_share": {ratio(float64(lp.live-lp.replayTotal), float64(lp.live)), "ratio"},
	}
}
