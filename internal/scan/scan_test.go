package scan_test

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/world"
)

var (
	corpusOnce sync.Once
	corpusC    *world.Corpus
	corpusErr  error
)

// testCorpus generates the seed corpus once per test binary.
func testCorpus(tb testing.TB) *world.Corpus {
	tb.Helper()
	corpusOnce.Do(func() {
		corpusC, corpusErr = world.Generate(world.Config{Seed: 7, ScalePct: 1})
	})
	if corpusErr != nil {
		tb.Fatalf("corpus: %v", corpusErr)
	}
	return corpusC
}

// frozenDetector builds a detector with an injected clock so Elapsed is
// zero and reports are byte-comparable.
func frozenDetector(c *world.Corpus) *core.Detector {
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	return core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
}

// reportBytes renders everything a report holds: its wire JSON, then
// the text of each trade and each match's trades, which carry the
// secondary legs the wire form drops.
func reportBytes(t *testing.T, rep *core.Report) string {
	t.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Trades {
		out = tr.AppendString(append(out, '\n'))
	}
	for _, m := range rep.Matches {
		for _, tr := range m.Trades {
			out = tr.AppendString(append(out, '\n'))
		}
	}
	return string(out)
}

// TestScanDeterminism is the engine's core guarantee: a parallel scan's
// output order, report bytes, and summary are identical to the
// sequential path's, for several worker/chunk shapes.
func TestScanDeterminism(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)

	// Sequential ground truth: a plain Inspect loop.
	want := make([]string, len(c.Receipts))
	var wantSum scan.Summary
	for i, r := range c.Receipts {
		rep := det.Inspect(r, nil)
		want[i] = reportBytes(t, rep)
		wantSum.Inspected++
		if len(rep.Loans) > 0 {
			wantSum.FlashLoans++
		}
		if rep.IsAttack {
			wantSum.Attacks++
		}
		if rep.SuppressedByHeuristic {
			wantSum.Suppressed++
		}
	}
	if wantSum.Attacks == 0 {
		t.Fatal("corpus has no attacks; determinism test is vacuous")
	}

	shapes := []scan.Options{
		{Workers: 1},
		{Workers: 2, ChunkSize: 3},
		{Workers: 4, ChunkSize: 1},
		{Workers: 8},
		{Workers: 3, ChunkSize: len(c.Receipts) + 1}, // one giant chunk
	}
	for _, opts := range shapes {
		reports, sum := scan.Scan(det, c.Receipts, opts)
		if len(reports) != len(want) {
			t.Fatalf("workers=%d chunk=%d: %d reports, want %d", opts.Workers, opts.ChunkSize, len(reports), len(want))
		}
		for i, rep := range reports {
			if got := reportBytes(t, rep); got != want[i] {
				t.Fatalf("workers=%d chunk=%d: report %d diverges from sequential output:\n%s\n---\n%s",
					opts.Workers, opts.ChunkSize, i, got, want[i])
			}
		}
		if sum != wantSum {
			t.Errorf("workers=%d chunk=%d: summary = %+v, want %+v", opts.Workers, opts.ChunkSize, sum, wantSum)
		}
	}
}

func TestScanEmptyCorpus(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	for _, receipts := range [][]*evm.Receipt{nil, {}} {
		reports, sum := scan.Scan(det, receipts, scan.Options{Workers: 4})
		if len(reports) != 0 {
			t.Errorf("reports = %d, want 0", len(reports))
		}
		if sum != (scan.Summary{}) {
			t.Errorf("summary = %+v, want zero", sum)
		}
		calls := 0
		if _, err := scan.Each(det, receipts, scan.Options{}, func(int, *core.Report) error {
			calls++
			return nil
		}); err != nil || calls != 0 {
			t.Errorf("Each over empty corpus: calls=%d err=%v", calls, err)
		}
	}
}

// TestScanMoreWorkersThanReceipts covers pool sizes beyond the corpus:
// the pool must clamp, not spin or deadlock.
func TestScanMoreWorkersThanReceipts(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	few := c.Receipts[:5]
	want, wantSum := scan.Scan(det, few, scan.Options{Workers: 1})
	got, gotSum := scan.Scan(det, few, scan.Options{Workers: 64, ChunkSize: 1})
	if gotSum != wantSum {
		t.Errorf("summary = %+v, want %+v", gotSum, wantSum)
	}
	for i := range want {
		if reportBytes(t, got[i]) != reportBytes(t, want[i]) {
			t.Errorf("report %d diverges with 64 workers over 5 receipts", i)
		}
	}
}

// TestEachOrderedStreaming verifies the emitter delivers indices in
// strictly increasing order even when chunks complete out of order.
func TestEachOrderedStreaming(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	last := -1
	sum, err := scan.Each(det, c.Receipts, scan.Options{Workers: 4, ChunkSize: 2}, func(i int, rep *core.Report) error {
		if i != last+1 {
			t.Fatalf("out-of-order delivery: %d after %d", i, last)
		}
		if rep == nil || rep.TxHash != c.Receipts[i].TxHash {
			t.Fatalf("report %d does not match its receipt", i)
		}
		last = i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(c.Receipts)-1 || sum.Inspected != len(c.Receipts) {
		t.Fatalf("delivered %d of %d (summary %+v)", last+1, len(c.Receipts), sum)
	}
}

// TestEachStops verifies a callback error aborts the scan without
// further deliveries, for both the sequential and pooled paths.
func TestEachStops(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	boom := errors.New("boom")
	for _, opts := range []scan.Options{{Workers: 1}, {Workers: 4, ChunkSize: 2}} {
		calls := 0
		sum, err := scan.Each(det, c.Receipts, opts, func(i int, _ *core.Report) error {
			calls++
			if i == 10 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", opts.Workers, err)
		}
		if calls != 11 {
			t.Errorf("workers=%d: fn called %d times after error at index 10", opts.Workers, calls)
		}
		if sum.Inspected != 11 {
			t.Errorf("workers=%d: summary counted %d delivered reports, want 11", opts.Workers, sum.Inspected)
		}
	}
}
