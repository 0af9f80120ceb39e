package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/simplify"
)

// corpusReportDigest is the SHA-256 of every seed-7, scale-1 corpus
// report's wire JSON, one per line, as encoding/json produced it from
// ReportJSON before AppendJSON existed. Archived report bytes must never
// change silently: a new digest means every stored report changed form.
const corpusReportDigest = "52c9081c8ddebbfd1388e0db4ccd41da6f5d5f254a37b60f4dfcf0d68723e953"

// corpusDetailDigest is the SHA-256 of every seed-7, scale-1 corpus
// report's fmtDetail text, one per line, as the string-typed pipeline
// (extract → tag → simplify → trades → match on Tag/Token values)
// rendered it before the interned pipeline replaced it. Detail carries
// the application-level transfers and the trade list, which the wire
// JSON does not, so this pins every pipeline stage's output.
const corpusDetailDigest = "1df29dcfbf7f7469cd37264d2da786ec44cd7f17fa9305f4563665dec09eb9e3"

// corpusReports inspects every corpus receipt with a fixed clock.
func corpusReports(tb testing.TB) []*core.Report {
	c := referenceCorpus(tb)
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
	reports := make([]*core.Report, len(c.Receipts))
	for i, r := range c.Receipts {
		reports[i] = det.Inspect(r)
	}
	return reports
}

// BenchmarkReportEncode compares the reflection encoding of the wire
// struct (what the archive stored before AppendJSON) with AppendJSON
// into a reused buffer, per corpus report.
func BenchmarkReportEncode(b *testing.B) {
	reports := corpusReports(b)
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(reports[i%len(reports)].JSON()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = reports[i%len(reports)].AppendJSON(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReportAppendJSONGolden encodes the whole corpus through one
// reused buffer, the way the follower does, and pins the bytes to the
// digest; each report must also survive DecodeReportJSON and a
// json.Marshal of the decoded form unchanged.
func TestReportAppendJSONGolden(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for i, rep := range corpusReports(t) {
		var err error
		if buf, err = rep.AppendJSON(buf[:0]); err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
		dec, err := core.DecodeReportJSON(buf)
		if err != nil {
			t.Fatalf("receipt %d: decode: %v", i, err)
		}
		again, err := json.Marshal(dec)
		if err != nil {
			t.Fatalf("receipt %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(again, buf) {
			t.Fatalf("receipt %d: round trip changed bytes:\n first: %s\nsecond: %s", i, buf, again)
		}
		h.Write(buf)
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusReportDigest {
		t.Fatalf("corpus report digest = %s, want %s", got, corpusReportDigest)
	}
}

// TestCorpusDetailGolden inspects the whole corpus through one reused
// arena, the way a scanning worker does, and pins the fmtDetail text of
// every report to corpusDetailDigest. Each report's AppendDetail bytes,
// through Detail and the arena's reused DetailInto buffer, must also
// equal the fmt rendering.
func TestCorpusDetailGolden(t *testing.T) {
	c := referenceCorpus(t)
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
	h := sha256.New()
	arena := core.NewArena()
	attacks, flashLoans := 0, 0
	for i, r := range c.Receipts {
		rep := det.InspectScratch(r, arena)
		want := fmtDetail(rep)
		if got := rep.Detail(); got != want {
			t.Fatalf("receipt %d (%s): Detail diverges from fmt\n got:\n%s\nwant:\n%s", i, r.TxHash.Short(), got, want)
		}
		if got := string(arena.DetailInto(rep)); got != want {
			t.Fatalf("receipt %d (%s): DetailInto diverges from fmt", i, r.TxHash.Short())
		}
		h.Write([]byte(want))
		h.Write([]byte{'\n'})
		if rep.IsAttack {
			attacks++
		}
		if len(rep.Loans) > 0 {
			flashLoans++
		}
	}
	if attacks == 0 || flashLoans == 0 {
		t.Fatalf("vacuous corpus: attacks=%d flashLoans=%d", attacks, flashLoans)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusDetailDigest {
		t.Fatalf("corpus detail digest = %s, want %s", got, corpusDetailDigest)
	}
}
