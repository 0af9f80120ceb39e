package world

import (
	"testing"

	"leishen/internal/core"
	"leishen/internal/simplify"
)

func TestVerifyPlan(t *testing.T) {
	if err := VerifyPlan(); err != nil {
		t.Fatal(err)
	}
}

// testCorpus caches one generated corpus across tests in this package.
var cachedCorpus *Corpus

func corpus(t *testing.T) *Corpus {
	t.Helper()
	if cachedCorpus != nil {
		return cachedCorpus
	}
	c, err := Generate(Config{Seed: 7, ScalePct: 2})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cachedCorpus = c
	return c
}

func detector(c *Corpus, heuristic bool) *core.Detector {
	return core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify:                 simplify.Options{WETH: c.Env.WETH},
		YieldAggregatorHeuristic: heuristic,
		YieldAggregatorApps:      AggregatorApps,
	})
}

// TestTableVWildDetection reproduces paper Table V exactly: detection
// counts per pattern with the planned TP/FP split.
func TestTableVWildDetection(t *testing.T) {
	c := corpus(t)
	det := detector(c, false)

	type counts struct{ n, tp int }
	perPattern := map[core.PatternKind]*counts{
		core.PatternKRP: {}, core.PatternSBS: {}, core.PatternMBS: {},
	}
	detected, trueDetected := 0, 0

	for _, r := range c.Receipts {
		rep := det.Inspect(r, nil)
		truth := c.Truth[r.TxHash]
		if truth == nil {
			t.Fatalf("missing truth for %s", r.TxHash.Short())
		}
		// Engineering check: detection matches the planned profile.
		got := map[core.PatternKind]bool{}
		for _, m := range rep.Matches {
			got[m.Kind] = true
		}
		want := map[core.PatternKind]bool{}
		for _, p := range truth.ExpectDetected {
			want[p] = true
		}
		for _, k := range []core.PatternKind{core.PatternKRP, core.PatternSBS, core.PatternMBS} {
			if got[k] != want[k] {
				t.Fatalf("tx %s kind=%d app=%s: pattern %s detected=%v want %v\n%s",
					r.TxHash.Short(), truth.Kind, truth.App, k, got[k], want[k], det.Trace(r).Detail())
			}
		}
		if !rep.IsAttack {
			continue
		}
		detected++
		truePat := map[core.PatternKind]bool{}
		for _, p := range truth.TruePatterns {
			truePat[p] = true
		}
		if truth.Kind == KindAttack {
			trueDetected++
		}
		// The paper counts detections per transaction per pattern; a
		// transaction matching MBS on two target tokens is one MBS row.
		for kind := range got {
			pc := perPattern[kind]
			pc.n++
			if truth.Kind == KindAttack && truePat[kind] {
				pc.tp++
			}
		}
	}

	check := func(k core.PatternKind, wantN, wantTP int) {
		t.Helper()
		pc := perPattern[k]
		if pc.n != wantN || pc.tp != wantTP {
			t.Errorf("%s: N=%d TP=%d, want N=%d TP=%d", k, pc.n, pc.tp, wantN, wantTP)
		}
	}
	check(core.PatternKRP, 21, 21)
	check(core.PatternSBS, 79, 68)
	check(core.PatternMBS, 107, 60)
	if detected != 180 || trueDetected != 142 {
		t.Errorf("detected %d (want 180), true %d (want 142)", detected, trueDetected)
	}
	prec := float64(trueDetected) / float64(detected) * 100
	if prec < 78.5 || prec > 79.3 {
		t.Errorf("overall precision = %.1f%%, want 78.9%%", prec)
	}
}

// TestYieldAggregatorHeuristic reproduces §VI-C: the heuristic suppresses
// the aggregator-initiated MBS baits, lifting MBS precision from 56.1%
// toward the paper's ~80%.
func TestYieldAggregatorHeuristic(t *testing.T) {
	c := corpus(t)
	det := detector(c, true)

	var n, tp int
	for _, r := range c.Receipts {
		rep := det.Inspect(r, nil)
		if !rep.IsAttack || !rep.HasPattern(core.PatternMBS) {
			continue
		}
		truth := c.Truth[r.TxHash]
		n++
		if truth.Kind == KindAttack {
			for _, p := range truth.TruePatterns {
				if p == core.PatternMBS {
					tp++
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no MBS detections with heuristic")
	}
	prec := float64(tp) / float64(n) * 100
	// All 27 aggregator baits suppressed: 60 TP / 80 N = 75%.
	if prec < 70 || prec > 85 {
		t.Errorf("MBS precision with heuristic = %.1f%% (N=%d TP=%d), want ~75-80%%", prec, n, tp)
	}
	// True attacks must not be suppressed.
	for _, r := range c.Receipts {
		truth := c.Truth[r.TxHash]
		if truth.Kind != KindAttack {
			continue
		}
		if rep := det.Inspect(r, nil); !rep.IsAttack {
			t.Fatalf("heuristic suppressed a true attack: %s (%s)", r.TxHash.Short(), truth.App)
		}
	}
}

// TestCorpusComposition sanity-checks corpus-level ground truth counts.
func TestCorpusComposition(t *testing.T) {
	c := corpus(t)
	var attacksN, known, repeats, unknown, sbsBaits, mbsBaits, benign int
	for _, truth := range c.Truth {
		switch truth.Kind {
		case KindAttack:
			attacksN++
			if truth.Repeat {
				repeats++
			} else if truth.Known {
				known++
			} else {
				unknown++
			}
		case KindSBSBait:
			sbsBaits++
		case KindMBSBait:
			mbsBaits++
		case KindBenign:
			benign++
		}
	}
	if attacksN != 142 || known != 22 || repeats != 11 || unknown != 109 {
		t.Errorf("attacks=%d known=%d repeats=%d unknown=%d, want 142/22/11/109",
			attacksN, known, repeats, unknown)
	}
	if sbsBaits != sbsBaitCount || mbsBaits != mbsBaitCount {
		t.Errorf("baits = %d/%d, want %d/%d", sbsBaits, mbsBaits, sbsBaitCount, mbsBaitCount)
	}
	if benign < 1000 {
		t.Errorf("benign corpus suspiciously small: %d", benign)
	}
	// Every true attack profited (manual verification criterion 2).
	for _, truth := range c.Truth {
		if truth.Kind == KindAttack && truth.Profit.IsZero() {
			t.Errorf("attack on %s made no profit", truth.App)
		}
	}
}

// TestCorpusDeterminism: identical (seed, scale) produce byte-identical
// corpora — the property Date.now-free, rng-seeded generation guarantees.
func TestCorpusDeterminism(t *testing.T) {
	a, err := Generate(Config{Seed: 3, ScalePct: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 3, ScalePct: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Receipts) != len(b.Receipts) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Receipts), len(b.Receipts))
	}
	for i := range a.Receipts {
		if a.Receipts[i].TxHash != b.Receipts[i].TxHash {
			t.Fatalf("receipt %d differs: %s vs %s", i, a.Receipts[i].TxHash.Short(), b.Receipts[i].TxHash.Short())
		}
		ta, tb := a.Truth[a.Receipts[i].TxHash], b.Truth[b.Receipts[i].TxHash]
		if ta.Kind != tb.Kind || !ta.Profit.Eq(tb.Profit) || ta.App != tb.App {
			t.Fatalf("truth %d differs: %+v vs %+v", i, ta, tb)
		}
	}
	// A different seed actually changes something.
	c, err := Generate(Config{Seed: 4, ScalePct: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Receipts) == len(c.Receipts)
	if same {
		diff := false
		for i := range a.Receipts {
			if a.Receipts[i].TxHash != c.Receipts[i].TxHash {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}
