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

// delivery is one (verdict, wire bytes) pair a stream delivered.
type delivery struct {
	i    int
	v    scan.Verdict
	wire []byte
}

// encodeAll submits receipts to one stream as batches of at most size
// receipts (all at once when size <= 0), every batch before the first
// is read, and copies out what they delivered, indexed into receipts.
func encodeAll(t *testing.T, det *core.Detector, receipts []*evm.Receipt, opts scan.Options, size int) ([]delivery, scan.Summary) {
	t.Helper()
	if size <= 0 {
		size = max(len(receipts), 1)
	}
	s := scan.NewStream(det, opts)
	defer s.Close()
	var (
		batches []*scan.Batch
		offsets []int
	)
	for lo := 0; lo < len(receipts); lo += size {
		batches = append(batches, s.Submit(receipts[lo:min(lo+size, len(receipts))]))
		offsets = append(offsets, lo)
	}
	var (
		out []delivery
		sum scan.Summary
	)
	for k, b := range batches {
		bs, err := b.Each(func(i int, v scan.Verdict, raw []byte) error {
			out = append(out, delivery{offsets[k] + i, v, bytes.Clone(raw)})
			return nil
		})
		b.Release()
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(bs)
	}
	return out, sum
}

// TestStreamMatchesEach feeds a stream every receipt on the chain,
// unscreened, and checks it delivers exactly what Each delivers over
// the IsFlashLoanTx-screened receipts: the same transactions in the
// same order, verdicts that agree with the reports, AppendJSON's bytes,
// and the same summary — for the inline path, several pool shapes, and
// the corpus cut into batches that are all in flight at once.
func TestStreamMatchesEach(t *testing.T) {
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
		t.Fatal("chain has no receipts for the stream to drop")
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
		for _, size := range []int{0, 250, 7} {
			name := fmt.Sprintf("workers=%d chunk=%d batch=%d", opts.Workers, opts.ChunkSize, size)
			got, sum := encodeAll(t, det, all, opts, size)
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
}

// TestStreamStops: a callback error stops a batch's delivery after
// that call, on both paths; an empty batch delivers nothing and is done
// at once.
func TestStreamStops(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	boom := errors.New("boom")
	for _, opts := range []scan.Options{{Workers: 1}, {Workers: 4, ChunkSize: 2}} {
		s := scan.NewStream(det, opts)
		b := s.Submit(c.Receipts)
		calls := 0
		sum, err := b.Each(func(int, scan.Verdict, []byte) error {
			calls++
			if calls == 11 {
				return boom
			}
			return nil
		})
		b.Release()
		if !errors.Is(err, boom) || calls != 11 || sum.Inspected != 11 {
			t.Fatalf("workers=%d: err %v after %d calls, summary %+v", opts.Workers, err, calls, sum)
		}
		empty := s.Submit(nil)
		select {
		case <-empty.Done():
		default:
			t.Fatalf("workers=%d: empty batch not done on submit", opts.Workers)
		}
		if sum, err := empty.Each(nil); err != nil || sum != (scan.Summary{}) {
			t.Fatalf("workers=%d: empty batch = %+v, %v", opts.Workers, sum, err)
		}
		empty.Release()
		s.Close()
	}
}

// TestStreamAllocs guards the stream's steady state: with warmed
// arenas and pooled buffers a batch costs a constant handful of
// allocations (its header and done channel) and none per receipt — at
// most 64 over the 3,066-receipt corpus, where one allocation per
// receipt would be thousands.
func TestStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled allocation counts vary")
	}
	c := testCorpus(t)
	det := frozenDetector(c)
	for _, workers := range []int{1, 2} {
		s := scan.NewStream(det, scan.Options{Workers: workers})
		pass := func() {
			b := s.Submit(c.Receipts)
			_, err := b.Each(func(int, scan.Verdict, []byte) error { return nil })
			b.Release()
			if err != nil {
				t.Fatal(err)
			}
		}
		pass() // warm arenas, buffers and intern tables
		if allocs := testing.AllocsPerRun(5, pass); allocs > 64 {
			t.Errorf("workers=%d: %.0f allocations per %d-receipt batch, want <= 64", workers, allocs, len(c.Receipts))
		}
		s.Close()
	}
}
