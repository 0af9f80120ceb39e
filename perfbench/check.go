package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"net/url"
	"sort"
	"strconv"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/follower"
	"leishen/internal/metrics"
	"leishen/internal/scan"
)

// sampleEvery picks which replayed reports the point-get check fetches.
const sampleEvery = 97

// replayed is what a replay of follower.Step's layers produced.
type replayed struct {
	digest   [sha256.Size]byte
	receipts int
	reports  int
	bytes    int64
	sample   map[string][]byte // hex tx hash -> report bytes
	// Heap objects allocated by scan.Each (detection and encoding) and
	// by encoding alone, over the whole replay.
	eachAllocs, encodeAllocs uint64
}

// sampled returns the sampled hashes in order.
func (r *replayed) sampled() []string {
	out := make([]string, 0, len(r.sample))
	for hx := range r.sample {
		out = append(out, hx)
	}
	sort.Strings(out)
	return out
}

// digestReport folds one report document into a running digest.
func digestReport(d hash.Hash, raw []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(raw)))
	d.Write(n[:])
	d.Write(raw)
}

// replay re-runs the layers follower.Step runs, in its order, through
// their public calls: flashloan.IsFlashLoanTx over every receipt,
// scan.Each over the screened ones, json.Marshal of each report, then,
// when arc is non-nil, AppendReport, AppendCheckpointDeferred and Sync.
// With a tracer each block gets a parent span and each layer a child.
// scan.Each runs with one worker, on this goroutine, so detection never
// overlaps the encode spans nested in it and each layer's self time is
// that layer's own.
func replay(det *core.Detector, blocks []*evm.Block, tr *tracer, arc *archive.Archive) (replayed, error) {
	out := replayed{sample: make(map[string][]byte)}
	d := sha256.New()
	var recs []archive.Record
	var reps []*core.Report
	for _, b := range blocks {
		bs := tr.begin("block", 0)
		sp := tr.begin("screen", bs.ID)
		screened := make([]*evm.Receipt, 0, len(b.Receipts))
		for _, r := range b.Receipts {
			if r.Success && flashloan.IsFlashLoanTx(r) {
				screened = append(screened, r)
			}
		}
		tr.end(sp)
		out.receipts += len(b.Receipts)

		recs, reps = recs[:0], reps[:0]
		var a0 uint64
		if tr != nil {
			a0 = heapAllocs()
		}
		sp = tr.begin("detect", bs.ID)
		_, err := scan.Each(det, screened, scan.Options{Workers: 1}, func(_ int, rep *core.Report) error {
			e := tr.begin("encode", sp.ID)
			raw, err := json.Marshal(rep)
			tr.end(e)
			if err != nil {
				return err
			}
			recs = append(recs, archive.Record{
				Kind: archive.KindReport, TxHash: rep.TxHash, Block: rep.Block,
				Flags: recordFlags(rep), Report: raw,
			})
			reps = append(reps, rep)
			return nil
		})
		tr.end(sp)
		if err != nil {
			return out, err
		}
		if tr != nil {
			out.eachAllocs += heapAllocs() - a0
		}
		if arc != nil {
			sp = tr.begin("append", bs.ID)
			for i := range recs {
				if err := arc.AppendReport(&recs[i]); err != nil {
					return out, err
				}
			}
			tr.end(sp)
			sp = tr.begin("checkpoint", bs.ID)
			err := arc.AppendCheckpointDeferred(archive.Checkpoint{Block: b.Number, Digest: follower.BlockDigest(b)})
			tr.end(sp)
			if err != nil {
				return out, err
			}
			sp = tr.begin("sync", bs.ID)
			err = arc.Sync()
			tr.end(sp)
			if err != nil {
				return out, err
			}
		}
		tr.end(bs)

		// Outside the block's span: the digest, and encoding again on
		// this goroutine alone, so that allocation count is encoding's.
		for i := range recs {
			digestReport(d, recs[i].Report)
			out.reports++
			out.bytes += int64(len(recs[i].Report))
			if out.reports%sampleEvery == 1 {
				out.sample[recs[i].TxHash.String()] = recs[i].Report
			}
		}
		if tr != nil {
			a0 = heapAllocs()
			for _, rep := range reps {
				if _, err := json.Marshal(rep); err != nil {
					return out, err
				}
			}
			out.encodeAllocs += heapAllocs() - a0
		}
	}
	copy(out.digest[:], d.Sum(nil))
	return out, nil
}

// recordFlags mirrors the verdict flags the follower stores beside each
// report.
func recordFlags(rep *core.Report) uint8 {
	var flags uint8
	if len(rep.Loans) > 0 {
		flags |= archive.FlagFlashLoan
	}
	if rep.IsAttack {
		flags |= archive.FlagAttack
	}
	if rep.SuppressedByHeuristic {
		flags |= archive.FlagSuppressed
	}
	return flags
}

// verify checks the archive behind st against a replay of blocks, all
// through the HTTP API: the full /reports listing must digest equal to
// the replay's json.Marshal digest, sampled /reports/{hash} gets must
// return the replayed bytes, and with confirmAll every block's reports
// must be visible by block range.
func (h *harness) verify(st *stack, ps *passStats, blocks []*evm.Block, confirmAll bool, rs *results) error {
	want, err := replay(st.det, blocks, nil, nil)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	d := sha256.New()
	listed := 0
	var page struct {
		Reports   []json.RawMessage `json:"reports"`
		More      bool              `json:"more"`
		NextAfter string            `json:"nextAfter"`
	}
	var buf []byte
	after := ""
	for {
		var code int
		buf, code, err = h.get(st.tr, buf, "serve.list", "/reports?limit=1000"+after)
		if err != nil {
			return err
		}
		ps.queries++
		if code != 200 {
			rs.check(false, "listing answered %d", code)
			return nil
		}
		page.Reports, page.More, page.NextAfter = page.Reports[:0], false, ""
		if err := json.Unmarshal(buf, &page); err != nil {
			rs.check(false, "listing page does not decode: %v", err)
			return nil
		}
		for _, raw := range page.Reports {
			digestReport(d, raw)
		}
		listed += len(page.Reports)
		if !page.More {
			break
		}
		after = "&after=" + url.QueryEscape(page.NextAfter)
	}
	rs.check(listed == want.reports && bytes.Equal(d.Sum(nil), want.digest[:]),
		"archive holds %d reports whose digest differs from the replay's %d", listed, want.reports)

	for _, hx := range want.sampled() {
		var code int
		buf, code, err = h.get(st.tr, buf, "serve.get", "/reports/"+hx)
		if err != nil {
			return err
		}
		ps.queries++
		rs.check(code == 200 && bytes.Equal(bytes.TrimSuffix(buf, []byte("\n")), want.sample[hx]),
			"/reports/%s differs from the replay", hx)
	}

	if confirmAll {
		for _, b := range blocks {
			var hashes []string
			for _, r := range b.Receipts {
				if r.Success && flashloan.IsFlashLoanTx(r) {
					hashes = append(hashes, r.TxHash.String())
				}
			}
			var good bool
			buf, good, err = h.confirm(st.tr, buf, b.Number, hashes)
			if err != nil {
				return err
			}
			ps.queries++
			rs.check(good, "block %d reports not visible on /reports", b.Number)
		}
	}
	if want.reports != st.arc.Count() {
		rs.check(false, "archive counts %d reports, replay %d", st.arc.Count(), want.reports)
	}
	return nil
}

// results tallies the output checks; they feed correct, attempted and
// failed in the result line.
type results struct {
	attempted, failed int
	notes             []string
}

func (rs *results) check(ok bool, format string, args ...any) {
	rs.attempted++
	if !ok {
		rs.failed++
		rs.note(format, args...)
	}
}

func (rs *results) note(format string, args ...any) {
	if len(rs.notes) < 20 {
		rs.notes = append(rs.notes, fmt.Sprintf(format, args...))
	}
}

// sumSeries adds up the _sum and _count of every series of one
// histogram family in a registry's text exposition.
func sumSeries(reg *metrics.Registry, family string) (sum, count float64) {
	for _, line := range bytes.Split(reg.AppendText(nil), []byte("\n")) {
		var dst *float64
		switch {
		case bytes.HasPrefix(line, []byte(family+"_sum")):
			dst = &sum
		case bytes.HasPrefix(line, []byte(family+"_count")):
			dst = &count
		default:
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			panic(errors.New("unparsable exposition line: " + string(line)))
		}
		*dst += v
	}
	return sum, count
}
