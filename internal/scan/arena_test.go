package scan_test

import (
	"testing"

	"leishen/internal/core"
	"leishen/internal/scan"
)

// TestScanArenaReuseAcrossRuns scans the same corpus twice through one
// engine for several worker counts, with stream batches — which rewind
// their arenas after every receipt — interleaved before, between and
// after. The second run draws warmed arenas from the pool; its reports
// must be byte-identical to the first run's, and both runs' reports
// must stay byte-stable through everything that follows (slab regions
// are never rewritten, and the encoded path never rewinds an arena a
// live report draws on).
func TestScanArenaReuseAcrossRuns(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	for _, workers := range []int{1, 2, 4, 8} {
		opts := scan.Options{Workers: workers}
		s := scan.NewStream(det, opts)
		encoded := func() {
			b := s.Submit(c.Receipts)
			_, err := b.Each(func(int, scan.Verdict, []byte) error { return nil })
			b.Release()
			if err != nil {
				t.Fatal(err)
			}
		}
		encoded()
		firstReps, firstSum := scan.Scan(det, c.Receipts, opts)
		first := make([]string, len(firstReps))
		for i, rep := range firstReps {
			first[i] = reportBytes(t, rep)
		}
		encoded()
		secondReps, secondSum := scan.Scan(det, c.Receipts, opts)
		encoded()
		if secondSum != firstSum {
			t.Fatalf("workers=%d: summary drifted across runs: %+v vs %+v", workers, secondSum, firstSum)
		}
		for i, rep := range secondReps {
			if got := reportBytes(t, rep); got != first[i] {
				t.Fatalf("workers=%d: report %d differs on arena-reused run:\n got: %s\nwant: %s", workers, i, got, first[i])
			}
		}
		// The second run appended to the same pooled slabs and the
		// stream batches rewound theirs; the first run's reports must be
		// untouched.
		for i, rep := range firstReps {
			if got := reportBytes(t, rep); got != first[i] {
				t.Fatalf("workers=%d: first-run report %d mutated by later scan", workers, i)
			}
		}
		for i, rep := range secondReps {
			if got := reportBytes(t, rep); got != first[i] {
				t.Fatalf("workers=%d: second-run report %d mutated by a later stream batch", workers, i)
			}
		}
		s.Close()
	}
}

// TestInspectAllocBudget pins the steady-state detection hot path to
// the allocation budget the bench gate enforces: at most 2 allocations
// per transaction, averaged over the corpus, with a warmed arena.
func TestInspectAllocBudget(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	arena := core.NewArena()
	warm := func() {
		for _, r := range c.Receipts {
			det.InspectScratch(r, arena)
		}
	}
	warm() // grow buffers and intern tables to their high-water marks
	perTx := testing.AllocsPerRun(3, warm) / float64(len(c.Receipts))
	if perTx > 2.0 {
		t.Errorf("steady-state allocations = %.3f per tx, budget is 2.0", perTx)
	}
}

// TestDetailIntoAllocFree pins the reused-buffer Detail rendering to
// zero steady-state allocations.
func TestDetailIntoAllocFree(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	arena := core.NewArena()
	reps := make([]*core.Report, 0, len(c.Receipts))
	for _, r := range c.Receipts {
		reps = append(reps, det.InspectScratch(r, arena))
	}
	render := func() {
		for _, rep := range reps {
			arena.DetailInto(rep)
		}
	}
	render() // size the buffer to the largest report
	if allocs := testing.AllocsPerRun(5, render); allocs > 0 {
		t.Errorf("DetailInto allocated %.1f times per corpus pass, want 0", allocs)
	}
}
