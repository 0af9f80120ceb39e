// Package serve exposes the detector over HTTP — the deployment mode a
// monitoring service (Forta-style) would run: a node-side process that
// answers "is this transaction a flpAttack?" in microseconds.
//
// Endpoints:
//
//	GET  /healthz           liveness: uptime, archive record count,
//	                        follower lag (when attached); 503 with
//	                        status "degraded" when the writer is
//	                        retrying/failed or lag exceeds the threshold
//	GET  /stats             corpus-wide detection statistics
//	GET  /tx/{hash}         detection report for one transaction
//	GET  /block/{number}    reports for every flash loan tx in a block
//	POST /batch             batched ingest: {"hashes": [...]} scanned on
//	                        the parallel engine, reports in request order
//
// With an archive attached (SetArchive) three query endpoints answer
// from stored verdicts instead of re-running detection:
//
//	GET  /reports           archived reports; ?from=&to= bound the block
//	                        range, ?verdict=attack|flashloan|suppressed
//	                        filters, ?limit= and ?after={txhash} paginate
//	GET  /reports/{hash}    one archived report by transaction hash
//	GET  /checkpoint        the follower's durable progress checkpoint
//
// Report bodies are AppendJSON bytes in a pooled buffer (respbuf.go),
// complete before any header is written: a report with no wire form
// answers 500.
package serve

import (
	"encoding/json"
	"errors"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"leishen/internal/archive"
	"leishen/internal/buildinfo"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/follower"
	"leishen/internal/scan"
	"leishen/internal/types"
)

// MaxBatch bounds one /batch request; larger corpora should be split by
// the client (the limit protects the monitor from one giant ingest call
// monopolizing the pool).
const MaxBatch = 10_000

// DefaultReportsLimit and MaxReportsLimit bound one /reports page.
const (
	DefaultReportsLimit = 100
	MaxReportsLimit     = 1000
)

// DefaultDegradedLag is the follower lag (blocks behind the source
// head) at which /healthz flips to degraded when Server.DegradedLag is
// unset. A monitor a few blocks behind is normal pipelining; tens of
// blocks means ingestion is not keeping up and alerts should fire.
const DefaultDegradedLag = 16

// Server serves detection reports over a chain snapshot.
type Server struct {
	chain *evm.Chain
	det   *core.Detector
	start time.Time

	// ScanOpts configures the worker pool used by /batch. Set before
	// Handler is called; the zero value means GOMAXPROCS workers.
	ScanOpts scan.Options

	// DegradedLag is the follower lag (blocks) beyond which /healthz
	// reports degraded; 0 means DefaultDegradedLag. Set before Handler
	// is called.
	DegradedLag uint64

	arc *archive.Archive
	fol *follower.Follower
	met *Metrics

	mu    sync.Mutex
	stats Stats
}

// Stats summarizes what the server has inspected so far. It is the
// scan engine's summary type: one report-counting vocabulary across the
// batch engine, the follower and the HTTP surface.
type Stats = scan.Summary

// New builds a server.
func New(chain *evm.Chain, det *core.Detector) *Server {
	return &Server{chain: chain, det: det, start: time.Now()}
}

// SetArchive attaches the durable report store backing /reports,
// /reports/{hash} and /checkpoint. Call before Handler.
func (s *Server) SetArchive(a *archive.Archive) { s.arc = a }

// SetFollower attaches the ingestion daemon whose lag /healthz reports.
// Call before Handler.
func (s *Server) SetFollower(f *follower.Follower) { s.fol = f }

// SetMetrics attaches HTTP-layer telemetry: every route gains request,
// latency and response-size series, and GET /metrics serves m's
// registry in Prometheus text format. Call before Handler.
func (s *Server) SetMetrics(m *Metrics) { s.met = m }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.Handler) {
		if s.met != nil {
			h = s.met.route(pattern).instrument(h)
		}
		mux.Handle(pattern, h)
	}
	handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /stats", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		st := s.stats
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	}))
	handle("GET /tx/{hash}", http.HandlerFunc(s.handleTx))
	handle("GET /block/{number}", http.HandlerFunc(s.handleBlock))
	handle("POST /batch", http.HandlerFunc(s.handleBatch))
	handle("GET /reports", http.HandlerFunc(s.handleReports))
	handle("GET /reports/{hash}", http.HandlerFunc(s.handleReportByTx))
	handle("GET /checkpoint", http.HandlerFunc(s.handleCheckpoint))
	if s.met != nil {
		handle("GET /metrics", s.met.reg.Handler())
	}
	return mux
}

// Healthz is the /healthz reply. Status is "ok" — or "degraded" (with
// a 503 status code) when the attached follower's writer is retrying
// or failed, or its lag exceeds the degraded threshold; Degraded then
// lists the human-readable reasons.
type Healthz struct {
	Status   string   `json:"status"`
	Degraded []string `json:"degraded,omitempty"`
	// Version is the build version stamped at link time (-ldflags -X);
	// "dev" for unstamped builds. GoVersion is the runtime's toolchain.
	Version       string `json:"version"`
	GoVersion     string `json:"go_version"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	// Archive holds store figures — size, index-layer effectiveness
	// (sidecar loads vs. replays, segments pruned, cache hit rate) —
	// when an archive is attached.
	Archive *archive.Stats `json:"archive,omitempty"`
	// Follower holds ingestion progress when a follower is attached.
	Follower *follower.Stats `json:"follower,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{
		Status:        "ok",
		Version:       buildinfo.Version,
		GoVersion:     buildinfo.GoVersion(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	}
	if s.arc != nil {
		st := s.arc.Stats()
		h.Archive = &st
	}
	status := http.StatusOK
	if s.fol != nil {
		st := s.fol.Stats()
		h.Follower = &st
		if err := s.fol.WriterErr(); err != nil {
			h.Degraded = append(h.Degraded, "archive writer failed: "+err.Error())
		} else if st.Degraded {
			h.Degraded = append(h.Degraded, "archive writer retrying after transient faults")
		}
		if lim := s.degradedLag(); st.Lag > lim {
			h.Degraded = append(h.Degraded,
				"follower lag "+strconv.FormatUint(st.Lag, 10)+" blocks exceeds "+strconv.FormatUint(lim, 10))
		}
	}
	if len(h.Degraded) > 0 {
		h.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writePooledJSON(w, status, h)
}

func (s *Server) degradedLag() uint64 {
	if s.DegradedLag > 0 {
		return s.DegradedLag
	}
	return DefaultDegradedLag
}

// writerDown returns the follower's sticky archive-writer failure, if
// any — the state in which the store-backed and ingest endpoints
// refuse with 503 (temporarily unavailable, operator action needed)
// rather than serving from a store that is no longer advancing.
func (s *Server) writerDown() error {
	if s.fol == nil {
		return nil
	}
	return s.fol.WriterErr()
}

// ReportsResponse is the /reports reply: the stored report documents in
// block order plus the pagination cursor.
type ReportsResponse struct {
	Reports []json.RawMessage `json:"reports"`
	// More is true when the limit cut the scan short; NextAfter is then
	// the ?after= cursor for the next page.
	More      bool   `json:"more"`
	NextAfter string `json:"nextAfter,omitempty"`
}

// handleReports answers range queries from the archive — no detection
// runs; the stored verdict bytes are returned as written.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	if s.arc == nil {
		writeError(w, http.StatusServiceUnavailable, "no archive attached")
		return
	}
	if err := s.writerDown(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "archive writer down: "+err.Error())
		return
	}
	q := archive.Query{Limit: DefaultReportsLimit}
	params := r.URL.Query()
	var err error
	if q.FromBlock, err = uintParam(params.Get("from")); err != nil {
		writeError(w, http.StatusBadRequest, "bad from: "+err.Error())
		return
	}
	if q.ToBlock, err = uintParam(params.Get("to")); err != nil {
		writeError(w, http.StatusBadRequest, "bad to: "+err.Error())
		return
	}
	if raw := params.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit "+strconv.Quote(raw))
			return
		}
		if n > MaxReportsLimit {
			n = MaxReportsLimit
		}
		q.Limit = n
	}
	if raw := params.Get("after"); raw != "" {
		if q.After, err = types.HashFromHex(raw); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	switch params.Get("verdict") {
	case "", "all":
	case "attack":
		q.Flags = archive.FlagAttack
	case "flashloan":
		q.Flags = archive.FlagFlashLoan
	case "suppressed":
		q.Flags = archive.FlagSuppressed
	default:
		writeError(w, http.StatusBadRequest, "verdict must be attack, flashloan, suppressed or all")
		return
	}
	// Assemble the ReportsResponse envelope by hand around the stored
	// bytes, which AppendSelect lands straight in the pooled buffer — no
	// unmarshal, no re-encode, no intermediate copy. The layout is
	// writeJSON(ReportsResponse{...})'s; golden digests of list and point
	// bodies (TestReportsGoldens) hold it there.
	rb := getRespBuf()
	rb.b = append(rb.b, `{"reports":[`...)
	var page archive.SelectPage
	rb.b, page, err = s.arc.AppendSelect(rb.b, q)
	if err != nil {
		putRespBuf(rb)
		writeError(w, selectErrStatus(err), err.Error())
		return
	}
	rb.b = append(rb.b, `],"more":`...)
	rb.b = strconv.AppendBool(rb.b, page.More)
	if page.More && page.Count > 0 {
		rb.b = append(rb.b, `,"nextAfter":"`...)
		rb.b = page.Last.AppendHex(rb.b)
		rb.b = append(rb.b, '"')
	}
	rb.b = append(rb.b, "}\n"...)
	writeBuf(w, http.StatusOK, rb)
}

// selectErrStatus maps a list-query failure to its status: an unknown
// pagination cursor is the client's mistake (400); a failed read or a
// stored frame failing its checksum is the server's (500).
func selectErrStatus(err error) int {
	if errors.Is(err, archive.ErrUnknownCursor) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func uintParam(raw string) (uint64, error) {
	if raw == "" {
		return 0, nil
	}
	return strconv.ParseUint(strings.TrimSpace(raw), 10, 64)
}

// handleReportByTx serves one stored report document.
func (s *Server) handleReportByTx(w http.ResponseWriter, r *http.Request) {
	if s.arc == nil {
		writeError(w, http.StatusServiceUnavailable, "no archive attached")
		return
	}
	if err := s.writerDown(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "archive writer down: "+err.Error())
		return
	}
	raw := r.PathValue("hash")
	h, err := types.HashFromHex(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rec, ok, err := s.arc.GetRaw(h)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no archived report for "+raw)
		return
	}
	rb := getRespBuf()
	rb.b = append(rb.b, rec.Report...)
	sendAppended(w, rb, nil)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.arc == nil {
		writeError(w, http.StatusServiceUnavailable, "no archive attached")
		return
	}
	cp, ok := s.arc.Checkpoint()
	if !ok {
		writeError(w, http.StatusNotFound, "archive holds no checkpoint yet")
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

// BatchRequest is the /batch ingest payload.
type BatchRequest struct {
	// Hashes lists the transactions to scan, in the order reports are
	// wanted back.
	Hashes []string `json:"hashes"`
}

// BatchResponse is the /batch reply: one report per requested hash, in
// request order, plus the batch summary (the decode schema of the bytes
// handleBatch appends).
type BatchResponse struct {
	Reports []core.ReportJSON `json:"reports"`
	Summary scan.Summary      `json:"summary"`
}

// handleBatch resolves the requested receipts and scans them on the
// parallel engine. Output order matches request order regardless of the
// pool's scheduling, so clients can zip reports back to their hashes.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if err := s.writerDown(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "archive writer down: "+err.Error())
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		media, _, err := mime.ParseMediaType(ct)
		if err != nil || media != "application/json" {
			writeError(w, http.StatusUnsupportedMediaType, "batch body must be application/json, got "+strconv.Quote(ct))
			return
		}
	}
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch payload: "+err.Error())
		return
	}
	if len(req.Hashes) > MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of "+strconv.Itoa(len(req.Hashes))+" exceeds the "+strconv.Itoa(MaxBatch)+" limit")
		return
	}
	receipts := make([]*evm.Receipt, 0, len(req.Hashes))
	for _, raw := range req.Hashes {
		h, err := types.HashFromHex(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		receipt, ok := s.chain.Receipt(h)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown transaction "+raw)
			return
		}
		receipts = append(receipts, receipt)
	}
	reports, sum := scan.Scan(s.det, receipts, s.ScanOpts)
	s.mu.Lock()
	s.stats.Add(sum)
	s.mu.Unlock()
	rb := getRespBuf()
	rb.b = append(rb.b, `{"reports":`...)
	err := rb.appendReports(reports)
	if err == nil {
		rb.b = append(rb.b, `,"summary":`...)
		err = rb.enc.Encode(sum)
		rb.b = append(rb.b[:len(rb.b)-1], '}') // the encoder's newline ends the document instead
	}
	sendAppended(w, rb, err)
}

func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("hash")
	h, err := types.HashFromHex(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	receipt, ok := s.chain.Receipt(h)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown transaction "+raw)
		return
	}
	rep := s.det.Inspect(receipt)
	s.observe(rep)
	rb := getRespBuf()
	rb.b, err = rep.AppendJSON(rb.b)
	sendAppended(w, rb, err)
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseUint(strings.TrimSpace(r.PathValue("number")), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad block number")
		return
	}
	blk, ok := s.chain.BlockByNumber(n)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown block")
		return
	}
	// HasMarker is the cheap superset screen; Inspect identifies each
	// candidate once, and only those with a loan are listed and counted.
	reports := make([]*core.Report, 0, 4)
	for _, receipt := range blk.Receipts {
		if !flashloan.HasMarker(receipt) {
			continue
		}
		rep := s.det.Inspect(receipt)
		if len(rep.Loans) == 0 {
			continue
		}
		s.observe(rep)
		reports = append(reports, rep)
	}
	// The keys in the order encoding/json sorts a map's.
	rb := getRespBuf()
	rb.b = append(rb.b, `{"block":`...)
	rb.b = strconv.AppendUint(rb.b, blk.Number, 10)
	rb.b = append(rb.b, `,"reports":`...)
	err = rb.appendReports(reports)
	if err == nil {
		rb.b = append(rb.b, `,"time":"`...)
		var withTime []byte
		if withTime, err = blk.Time.AppendText(rb.b); err == nil {
			rb.b = append(withTime, `"}`...)
		}
	}
	sendAppended(w, rb, err)
}

// observe folds one report into the lifetime stats.
func (s *Server) observe(rep *core.Report) {
	s.mu.Lock()
	s.stats.Observe(rep)
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:allow errflow headers are already sent; an encode failure here has no recovery path
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
