package scan

import (
	"sync"

	"leishen/internal/core"
	"leishen/internal/evm"
)

// rewindPool holds the arenas of the encoded path. They are kept apart
// from arenaPool because EachEncoded rewinds its arena after every
// receipt: an arena that once backed a report Scan or Each handed out
// must never be rewound, and an arena from this pool never backs a
// report that outlives its encoding.
var rewindPool = sync.Pool{New: func() any { return core.NewArena() }}

// wirePool recycles Wire values — encode buffers and the in-flight
// result slots — across passes.
var wirePool = sync.Pool{New: func() any { return new(Wire) }}

// Wire owns the encode buffers of one EachEncoded pass, one per worker.
// The wire bytes the pass delivered are regions of them and stay valid
// until Release hands the buffers to a later pass.
type Wire struct {
	bufs    [][]byte
	results []encoded
}

// Release returns the buffers for reuse; every wire slice the pass
// delivered is invalid afterwards. Release on nil is a no-op.
func (w *Wire) Release() {
	if w != nil {
		wirePool.Put(w)
	}
}

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

// EachEncoded is Each for callers that want the wire form and not the
// report: every worker inspects a receipt, appends the report's
// AppendJSON bytes to its own buffer, copies out the Verdict and
// rewinds its arena before the next receipt, so no report outlives its
// encoding and steady-state scanning allocates next to nothing. fn
// receives (verdict, wire bytes) in input order on the calling
// goroutine; the bytes are capacity-capped regions of the returned
// Wire, valid until its Release.
//
// The receipts are candidates: one whose report has no loans and no
// error is dropped — never delivered, never counted in the Summary or
// Metrics — so a caller may pass every receipt a cheap superset screen
// (flashloan.HasMarker) admits and gets exactly the flash loan
// transactions, identified once. A detector panic yields the same
// error verdict Each reports. An encode failure stops the pass when
// its receipt's turn comes, as an error returned from fn does. The
// Wire is returned on error too and must still be released.
func EachEncoded(det *core.Detector, receipts []*evm.Receipt, opts Options, fn func(i int, v Verdict, wire []byte) error) (Summary, *Wire, error) {
	var sum Summary
	n := len(receipts)
	if n == 0 {
		return sum, nil, nil
	}
	wire := wirePool.Get().(*Wire)
	workers := opts.ResolvedWorkers(n)
	for len(wire.bufs) < workers {
		wire.bufs = append(wire.bufs, nil)
	}
	if workers > 1 && cap(wire.results) < n {
		wire.results = make([]encoded, n)
	}
	m := opts.Metrics
	err := run(n, opts, wire.results[:cap(wire.results)], func(w int) (func(int) encoded, func()) {
		scratch := rewindPool.Get().(*core.Arena)
		buf := wire.bufs[w][:0]
		encode := func(i int) encoded {
			rep := inspectSafe(det, receipts[i], &scratch, m)
			e := encoded{v: verdictOf(rep)}
			if e.v.kept() {
				start := len(buf)
				buf, e.err = rep.AppendJSON(buf)
				e.wire = buf[start:len(buf):len(buf)]
			}
			scratch.Rewind()
			return e
		}
		return encode, func() {
			wire.bufs[w] = buf
			rewindPool.Put(scratch)
		}
	}, func(i int, e encoded) error {
		if e.err != nil {
			return e.err
		}
		if !e.v.kept() {
			return nil
		}
		sum.observe(e.v)
		if m != nil {
			m.observeTx(e.v)
		}
		return fn(i, e.v, e.wire)
	})
	return sum, wire, err
}
