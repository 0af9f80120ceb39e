package scan_test

import (
	"testing"

	"leishen/internal/scan"
)

// TestScanRace drives the pool with many small chunks so workers contend
// on the batch cursor and done channel; under -race (the make race
// target includes this package) it proves the shared detector, the
// per-chunk arenas, and the report hand-off are data-race free. Two
// concurrent scans over one detector model independent batch jobs
// sharing a snapshot.
func TestScanRace(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	done := make(chan scan.Summary, 2)
	for g := 0; g < 2; g++ {
		go func() {
			_, sum := scan.Scan(det, c.Receipts, scan.Options{Workers: 8, ChunkSize: 1})
			done <- sum
		}()
	}
	a, b := <-done, <-done
	if a != b {
		t.Errorf("concurrent scans disagree: %+v vs %+v", a, b)
	}
	if a.Inspected != len(c.Receipts) {
		t.Errorf("inspected %d of %d", a.Inspected, len(c.Receipts))
	}
}
