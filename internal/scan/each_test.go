package scan_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"leishen/internal/core"
	"leishen/internal/scan"
)

// TestEachWindows runs Each over three copies of the corpus, more
// receipts than one window holds at one and two workers, so reports
// stream across window boundaries with a window of lookahead in
// flight. Every report arrives in input order with the bytes a
// one-worker scan of its receipt gives, and an error in the last
// window stops delivery at once.
func TestEachWindows(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	one, _ := scan.Scan(det, c.Receipts, scan.Options{Workers: 1})
	want := make([][]byte, len(one))
	for i, rep := range one {
		want[i], _ = rep.AppendJSON(nil)
	}
	receipts := slices.Concat(c.Receipts, c.Receipts, c.Receipts)
	stop := len(receipts) - 5
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4} {
		next := 0
		sum, err := scan.Each(det, receipts, scan.Options{Workers: workers}, func(i int, rep *core.Report) error {
			if i != next {
				t.Fatalf("workers=%d: report %d delivered after %d", workers, i, next-1)
			}
			next++
			if got, _ := rep.AppendJSON(nil); !bytes.Equal(got, want[i%len(want)]) {
				t.Fatalf("workers=%d: report %d:\n got %s\nwant %s", workers, i, got, want[i%len(want)])
			}
			if i == stop {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || next != stop+1 || sum.Inspected != stop+1 {
			t.Fatalf("workers=%d: err %v after %d deliveries, summary %+v; want boom after %d", workers, err, next, sum, stop+1)
		}
	}
}
