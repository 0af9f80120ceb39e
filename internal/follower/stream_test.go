package follower

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/scan"
	"leishen/internal/types"
)

// candidates counts the receipts of b the screen hands to the stream.
func candidates(b *evm.Block) int {
	n := 0
	for _, r := range b.Receipts {
		if flashloan.HasMarker(r) {
			n++
		}
	}
	return n
}

// TestStepLookahead pins the one block of lookahead: with block k's
// detection held at the detector's clock, Step returns for block k at
// once, but Step for block k+1 does not return until block k is
// released. Flush then makes both blocks durable, with the records a
// scan of their screened receipts yields.
func TestStepLookahead(t *testing.T) {
	c := seedWorld(t)
	all := c.Env.Chain.Blocks()
	k := 1 // the first block that, with its successor, takes the pooled path
	for k < len(all) && (candidates(all[k-1]) < 2 || candidates(all[k]) < 2) {
		k++
	}
	if k == len(all) {
		t.Fatal("no two successive blocks with two candidates each")
	}
	blocks := all[:k+1]
	gate := make(chan struct{})
	var armed atomic.Bool
	det := worldDetector(c, nil, func() time.Time {
		if armed.Load() {
			<-gate
		}
		return frozenClock()
	})
	want := screenedScan(t, worldDetector(c, nil, frozenClock), blocks)

	arc := memArchive(t)
	defer arc.Close()
	f, err := New(FromInfallible(&fakeSource{blocks: blocks}), det, arc, Options{Scan: scan.Options{Workers: 2, ChunkSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 1; i < k; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Both workers claim a one-receipt chunk of block k and stop at the
	// clock, so block k+1's detection cannot start before the release.
	armed.Store(true)
	if ok, err := f.Step(); !ok || err != nil {
		t.Fatalf("Step(%d) = %v, %v", k, ok, err)
	}
	stepped := make(chan error, 1)
	go func() {
		_, err := f.Step()
		stepped <- err
	}()
	select {
	case err := <-stepped:
		t.Fatalf("Step(%d) returned (%v) while block %d was still being detected", k+1, err, k)
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if cp, ok := arc.Checkpoint(); !ok || cp.Block != uint64(k+1) {
		t.Fatalf("checkpoint after Flush = %+v ok=%v, want block %d", cp, ok, k+1)
	}
	if st := f.Stats(); st.Checkpoint != uint64(k+1) || st.Summary.Inspected != len(want) {
		t.Fatalf("stats after Flush = %+v, want checkpoint %d and %d inspected", st, k+1, len(want))
	}
	requireRecords(t, arc, want, "lookahead")
}

// TestStreamEncodeFailureSticky follows the world, then a block whose
// one flash loan is stamped in year 10000, which has no RFC 3339 form:
// AppendJSON fails on the worker, and the writer must go sticky without
// archiving a record or checkpoint of that block.
func TestStreamEncodeFailureSticky(t *testing.T) {
	c := seedWorld(t)
	det := worldDetector(c, nil, frozenClock)
	blocks := append([]*evm.Block(nil), c.Env.Chain.Blocks()...)
	last := blocks[len(blocks)-1]
	var loan *evm.Receipt
	for _, r := range last.Receipts {
		if r.Success && flashloan.IsFlashLoanTx(r) {
			loan = r
		}
	}
	if loan == nil {
		t.Fatal("last block has no flash loan to copy")
	}
	bad := *loan
	bad.TxHash = types.HashFromData([]byte("year 10000"))
	bad.Block = last.Number + 1
	bad.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	src := &fakeSource{blocks: blocks}

	for _, opts := range []scan.Options{{Workers: 1}, {Workers: 2, ChunkSize: 1}} {
		arc := memArchive(t)
		src.mu.Lock()
		src.blocks = blocks
		src.mu.Unlock()
		f, err := New(FromInfallible(src), det, arc, Options{Scan: opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CatchUp(); err != nil {
			t.Fatal(err)
		}
		records, before := arc.Count(), f.Stats().Summary
		src.mu.Lock()
		src.blocks = append(blocks[:len(blocks):len(blocks)], &evm.Block{
			Number: bad.Block, Time: last.Time.Add(time.Second), Receipts: []*evm.Receipt{loan, &bad},
		})
		src.mu.Unlock()

		err = f.CatchUp()
		if err == nil || !strings.Contains(err.Error(), "year") {
			t.Fatalf("%s: CatchUp over the year-10000 block = %v, want the encode failure", optsName(opts), err)
		}
		if f.WriterErr() == nil || !f.Stats().WriterFailed {
			t.Fatalf("%s: encode failure did not go sticky: %+v", optsName(opts), f.Stats())
		}
		if _, err := f.Step(); err == nil {
			t.Fatalf("%s: Step after the sticky failure succeeded", optsName(opts))
		}
		if got := arc.Count(); got != records {
			t.Fatalf("%s: %d records after the failed block, want %d", optsName(opts), got, records)
		}
		if cp, ok := arc.Checkpoint(); !ok || cp.Block != last.Number {
			t.Fatalf("%s: checkpoint %+v ok=%v, want block %d", optsName(opts), cp, ok, last.Number)
		}
		if sum := f.Stats().Summary; sum != before {
			t.Fatalf("%s: summary moved to %+v over an unresolved block, was %+v", optsName(opts), sum, before)
		}
		if err := f.Close(); err == nil {
			t.Fatalf("%s: Close lost the sticky error", optsName(opts))
		}
		if err := arc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseStopsStream: once Close returns, no stream worker of the
// follower is left running, with or without a block still in flight.
func TestCloseStopsStream(t *testing.T) {
	c := seedWorld(t)
	det := worldDetector(c, nil, frozenClock)
	for _, steps := range []int{0, 3} {
		arc := memArchive(t)
		f, err := New(ChainSource(c.Env.Chain), det, arc, Options{Scan: scan.Options{Workers: 4}})
		if err != nil {
			t.Fatal(err)
		}
		if n := streamWorkers(); n != 4 {
			t.Fatalf("%d stream workers, want 4", n)
		}
		for i := 0; i < steps; i++ {
			if _, err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// A joined worker may still be between wg.Done and its exit.
		deadline := time.Now().Add(5 * time.Second)
		for streamWorkers() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := streamWorkers(); n > 0 {
			t.Fatalf("after %d steps: %d stream workers outlived Close", steps, n)
		}
		if err := arc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// streamWorkers counts the live goroutines a scan stream started.
func streamWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by leishen/internal/scan.NewStream"))
		}
		buf = make([]byte, 2*len(buf))
	}
}
