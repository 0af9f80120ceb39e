package scan_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/scan"
)

// chainReceipts returns every receipt on the corpus chain, flash loan
// or not, in block order.
func chainReceipts(c interface{ Blocks() []*evm.Block }) []*evm.Receipt {
	var out []*evm.Receipt
	for _, b := range c.Blocks() {
		out = append(out, b.Receipts...)
	}
	return out
}

// delivery is one (verdict, wire bytes) pair an encoded scan delivered.
type delivery struct {
	i    int
	v    scan.Verdict
	wire []byte
}

// encodeAll runs EachEncoded and copies out what it delivered.
func encodeAll(t *testing.T, det *core.Detector, receipts []*evm.Receipt, opts scan.Options) ([]delivery, scan.Summary) {
	t.Helper()
	var out []delivery
	sum, wire, err := scan.EachEncoded(det, receipts, opts, func(i int, v scan.Verdict, raw []byte) error {
		out = append(out, delivery{i, v, bytes.Clone(raw)})
		return nil
	})
	wire.Release()
	if err != nil {
		t.Fatal(err)
	}
	return out, sum
}

// TestEachEncodedMatchesEach feeds EachEncoded every receipt on the
// chain, unscreened, and checks it delivers exactly what Each delivers
// over the IsFlashLoanTx-screened receipts: the same transactions in
// the same order, verdicts that agree with the reports, AppendJSON's
// bytes, and the same summary — for the inline path and several pool
// shapes.
func TestEachEncodedMatchesEach(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	all := chainReceipts(c.Env.Chain)
	var screened []*evm.Receipt
	for _, r := range all {
		if r.Success && flashloan.IsFlashLoanTx(r) {
			screened = append(screened, r)
		}
	}
	if len(screened) == len(all) {
		t.Fatal("chain has no receipts for the encoded scan to drop")
	}
	var want []delivery
	wantSum, err := scan.Each(det, screened, scan.Options{Workers: 1}, func(_ int, rep *core.Report) error {
		raw, err := rep.AppendJSON(nil)
		want = append(want, delivery{v: scan.Verdict{
			TxHash: rep.TxHash, Block: rep.Block, Elapsed: rep.Elapsed,
			FlashLoan: len(rep.Loans) > 0, Attack: rep.IsAttack, Suppressed: rep.SuppressedByHeuristic,
		}, wire: raw})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []scan.Options{{Workers: 1}, {Workers: 2}, {Workers: 4, ChunkSize: 3}, {Workers: 2, ChunkSize: 1}} {
		name := fmt.Sprintf("workers=%d chunk=%d", opts.Workers, opts.ChunkSize)
		got, sum := encodeAll(t, det, all, opts)
		if sum != wantSum {
			t.Fatalf("%s: summary %+v, want %+v", name, sum, wantSum)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: delivered %d, want %d", name, len(got), len(want))
		}
		last := -1
		for k := range want {
			g := got[k]
			if g.i <= last || all[g.i].TxHash != g.v.TxHash {
				t.Fatalf("%s: delivery %d has index %d after %d", name, k, g.i, last)
			}
			last = g.i
			if g.v != want[k].v || !bytes.Equal(g.wire, want[k].wire) {
				t.Fatalf("%s: delivery %d differs:\n got %+v %s\nwant %+v %s", name, k, g.v, g.wire, want[k].v, want[k].wire)
			}
		}
	}
}

// TestEachEncodedStops: a callback error stops the encoded scan after
// that delivery, on both paths, and the Wire still comes back.
func TestEachEncodedStops(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	boom := errors.New("boom")
	for _, opts := range []scan.Options{{Workers: 1}, {Workers: 4, ChunkSize: 2}} {
		calls := 0
		sum, wire, err := scan.EachEncoded(det, c.Receipts, opts, func(int, scan.Verdict, []byte) error {
			calls++
			if calls == 11 {
				return boom
			}
			return nil
		})
		if wire == nil {
			t.Fatalf("workers=%d: no Wire returned with the error", opts.Workers)
		}
		wire.Release()
		if !errors.Is(err, boom) || calls != 11 || sum.Inspected != 11 {
			t.Fatalf("workers=%d: err %v after %d calls, summary %+v", opts.Workers, err, calls, sum)
		}
	}
	if sum, wire, err := scan.EachEncoded(det, nil, scan.Options{}, nil); wire != nil || err != nil || sum != (scan.Summary{}) {
		t.Fatalf("empty scan = %+v, %v, %v", sum, wire, err)
	}
}

// TestEachEncodedAllocs guards the encoded path's steady state: with
// warmed arenas and pooled buffers a pass costs a constant handful of
// allocations (closures; with a pool, its goroutines and channels) and
// none per receipt — at most 64 over the 3,066-receipt corpus, where
// one allocation per receipt would be thousands.
func TestEachEncodedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled allocation counts vary")
	}
	c := testCorpus(t)
	det := frozenDetector(c)
	for _, workers := range []int{1, 2} {
		opts := scan.Options{Workers: workers}
		pass := func() {
			_, wire, err := scan.EachEncoded(det, c.Receipts, opts, func(int, scan.Verdict, []byte) error { return nil })
			wire.Release()
			if err != nil {
				t.Fatal(err)
			}
		}
		pass() // warm arenas, buffers and intern tables
		if allocs := testing.AllocsPerRun(5, pass); allocs > 64 {
			t.Errorf("workers=%d: %.0f allocations per %d-receipt pass, want <= 64", workers, allocs, len(c.Receipts))
		}
	}
}
