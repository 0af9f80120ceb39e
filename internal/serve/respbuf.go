// Pooled response assembly: the hot read endpoints build their complete
// body in a reusable buffer, then write it with an explicit
// Content-Length. Compared to json.NewEncoder(w) per request this
// removes the encoder allocation, the encoder's internal scratch
// growth, and chunked transfer encoding — the response is one
// header-complete write. The buffer is a plain byte slice, so
// append-form producers write into it directly: archive.AppendSelect
// for /reports, Report.AppendJSON for /tx, /block and /batch. Each
// pooled buffer carries a json.Encoder permanently wired to it, so
// dynamic payloads (/healthz, the /batch summary) also encode without
// a per-request encoder.
package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"leishen/internal/core"
	"leishen/internal/metrics"
)

// Pool telemetry: gets vs. fresh allocations. The gap is the reuse the
// pool delivers; a gets≈allocs steady state means the pool is being
// defeated (oversized replies dropped, or GC pressure emptying it).
// Always-on zero-value atomics, named by Metrics via RegisterCounter.
var (
	respPoolGets   metrics.Counter
	respPoolAllocs metrics.Counter
)

// respBuf is one pooled response buffer plus its dedicated encoder.
type respBuf struct {
	b   []byte
	enc *json.Encoder
}

// Write appends p to the buffer; it is the encoder's sink.
func (rb *respBuf) Write(p []byte) (int, error) {
	rb.b = append(rb.b, p...)
	return len(p), nil
}

// maxPooledRespBytes bounds what the pool retains: a buffer grown past
// this (one giant /batch reply) is dropped instead of pinned forever.
const maxPooledRespBytes = 1 << 20

var respPool = sync.Pool{New: func() any {
	respPoolAllocs.Inc()
	rb := &respBuf{}
	rb.enc = json.NewEncoder(rb)
	return rb
}}

func getRespBuf() *respBuf {
	respPoolGets.Inc()
	rb := respPool.Get().(*respBuf)
	rb.b = rb.b[:0]
	return rb
}

func putRespBuf(rb *respBuf) {
	if cap(rb.b) > maxPooledRespBytes {
		return
	}
	respPool.Put(rb)
}

// writeBuf sends rb's contents as the complete response body —
// Content-Type, Content-Length, status, one write — and returns rb to
// the pool.
func writeBuf(w http.ResponseWriter, status int, rb *respBuf) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(rb.b)))
	w.WriteHeader(status)
	//lint:allow errflow headers are already sent; a failed body write has no recovery path
	_, _ = w.Write(rb.b)
	putRespBuf(rb)
}

// appendReports appends reps as a JSON array of their wire forms — []
// when empty, as encoding/json writes an empty slice.
func (rb *respBuf) appendReports(reps []*core.Report) error {
	rb.b = append(rb.b, '[')
	for i, rep := range reps {
		if i > 0 {
			rb.b = append(rb.b, ',')
		}
		var err error
		if rb.b, err = rep.AppendJSON(rb.b); err != nil {
			return err
		}
	}
	rb.b = append(rb.b, ']')
	return nil
}

// sendAppended ends the document in rb with json.Encoder's newline and
// sends it as a 200 — or, if building it failed, answers 500 with err.
func sendAppended(w http.ResponseWriter, rb *respBuf, err error) {
	if err != nil {
		putRespBuf(rb)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rb.b = append(rb.b, '\n')
	writeBuf(w, http.StatusOK, rb)
}

// writePooledJSON encodes v through a pooled buffer+encoder pair and
// writes it with Content-Length — writeJSON without the per-request
// encoder and with a sized response.
func writePooledJSON(w http.ResponseWriter, status int, v any) {
	rb := getRespBuf()
	if err := rb.enc.Encode(v); err != nil {
		putRespBuf(rb)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBuf(w, status, rb)
}
