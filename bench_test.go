package leishen_test

import (
	"math/big"
	"sync"
	"testing"

	"leishen"
	"leishen/internal/attacks"
	"leishen/internal/baselines"
	"leishen/internal/core"
	"leishen/internal/eval"
	"leishen/internal/simplify"
	"leishen/internal/tagging"
	"leishen/internal/trace"
	"leishen/internal/trades"
	"leishen/internal/types"
	"leishen/internal/uint256"
	"leishen/internal/world"
)

// ---------------------------------------------------------------------
// Shared fixtures. Corpus generation and scenario execution are expensive
// setup, built once and reused across benchmark iterations; the timed
// regions cover exactly the work each table/figure requires.
// ---------------------------------------------------------------------

var (
	corpusOnce sync.Once
	benchC     *world.Corpus

	harvestOnce sync.Once
	harvestRes  *attacks.Result
)

func benchCorpus(tb testing.TB) *world.Corpus {
	tb.Helper()
	corpusOnce.Do(func() {
		c, err := world.Generate(world.Config{Seed: 7, ScalePct: 1})
		if err != nil {
			tb.Fatalf("corpus: %v", err)
		}
		benchC = c
	})
	if benchC == nil {
		tb.Skip("corpus generation failed earlier")
	}
	return benchC
}

func benchHarvest(b *testing.B) *attacks.Result {
	b.Helper()
	harvestOnce.Do(func() {
		sc, _ := attacks.ByName("Harvest Finance")
		res, err := sc.Run()
		if err != nil {
			b.Fatalf("harvest: %v", err)
		}
		harvestRes = res
	})
	if harvestRes == nil {
		b.Skip("scenario failed earlier")
	}
	return harvestRes
}

func corpusDetector(c *world.Corpus, heuristic bool) *core.Detector {
	opts := core.Options{Simplify: simplify.Options{WETH: c.Env.WETH}}
	if heuristic {
		opts.YieldAggregatorHeuristic = true
		opts.YieldAggregatorApps = world.AggregatorApps
	}
	return core.NewDetector(c.Env.Chain, c.Env.Registry, opts)
}

// ---------------------------------------------------------------------
// Table and figure regeneration benches (§VI).
// ---------------------------------------------------------------------

// BenchmarkTable1KnownAttackVolatility regenerates Table I: run all 22
// known attack reproductions and measure their price volatility.
func BenchmarkTable1KnownAttackVolatility(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 22 {
			b.Fatalf("rows = %d", len(rows))
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("Table I  #%-2d %-18s %-8s paper=%.4g%% measured=%.4g%%",
					r.ID, r.Name, r.Patterns, r.PaperVolatilityPct, r.MeasuredPct)
			}
		}
	}
}

// BenchmarkTable4KnownAttacks regenerates Table IV: the three detectors
// over the 22 known attacks.
func BenchmarkTable4KnownAttacks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		var dfr, exp, ls int
		for _, r := range rows {
			if r.DeFiRanger != r.WantDFR || r.Explorer != r.WantExp || r.LeiShen != r.WantLS {
				b.Fatalf("%s: detection drifted from paper profile", r.Name)
			}
			if r.DeFiRanger {
				dfr++
			}
			if r.Explorer {
				exp++
			}
			if r.LeiShen {
				ls++
			}
		}
		if i == 0 {
			b.Logf("Table IV  DeFiRanger=%d (paper 9) Explorer+LeiShen=%d (paper 4) LeiShen=%d (paper 15)", dfr, exp, ls)
		}
	}
}

// BenchmarkTable5WildDetection regenerates Table V: LeiShen over the full
// wild corpus (timed region = the scan itself).
func BenchmarkTable5WildDetection(b *testing.B) {
	c := benchCorpus(b)
	det := corpusDetector(c, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detected := 0
		for _, r := range c.Receipts {
			if det.Inspect(r).IsAttack {
				detected++
			}
		}
		if detected != 180 {
			b.Fatalf("detected = %d, want 180", detected)
		}
	}
	b.StopTimer()
	res := eval.EvalCorpus(c)
	b.Logf("Table V\n%s", res.TableV)
	b.Logf("Table V heuristic row: %s", res.TableVHeuristic)
}

// BenchmarkTable6TopApps and BenchmarkTable7Profit regenerate the
// unknown-attack analyses from the corpus evaluation.
func BenchmarkTable6TopApps(b *testing.B) {
	c := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res eval.CorpusEval
	for i := 0; i < b.N; i++ {
		res = eval.EvalCorpus(c)
	}
	b.StopTimer()
	for i, row := range res.TableVI {
		if i >= 3 {
			break
		}
		b.Logf("Table VI  %s", row)
	}
}

func BenchmarkTable7Profit(b *testing.B) {
	c := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res eval.CorpusEval
	for i := 0; i < b.N; i++ {
		res = eval.EvalCorpus(c)
	}
	b.StopTimer()
	s := res.TableVII
	b.Logf("Table VII  mean=$%.0f min=$%.0f max=$%.0f total=$%.0f (paper: min $23, max $6.1M, total >$21M)",
		s.Mean, s.Min, s.Max, s.Total)
}

// BenchmarkFig1WeeklyFlashLoans regenerates Fig. 1: corpus generation and
// weekly bucketing per provider. The timed region is generation — the
// expensive part a user reproducing the figure pays.
func BenchmarkFig1WeeklyFlashLoans(b *testing.B) {
	b.ReportAllocs()
	var c *world.Corpus
	for i := 0; i < b.N; i++ {
		var err error
		c, err = world.Generate(world.Config{Seed: 7, ScalePct: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res := eval.EvalCorpus(c)
	b.Logf("Fig. 1 providers over %d weeks: %v txs by provider", len(res.Fig1.Keys), res.PerProvider)
}

// BenchmarkFig8MonthlyAttacks regenerates Fig. 8's monthly series.
func BenchmarkFig8MonthlyAttacks(b *testing.B) {
	c := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	var res eval.CorpusEval
	for i := 0; i < b.N; i++ {
		res = eval.EvalCorpus(c)
	}
	b.StopTimer()
	total := 0
	for _, k := range res.Fig8.Keys {
		total += res.Fig8.Counts[k]
	}
	b.Logf("Fig. 8  %d unknown attacks over %d months (paper: 109)", total, len(res.Fig8.Keys))
}

// BenchmarkDetectionLatency measures per-transaction pipeline latency —
// the paper reports a 10 ms mean and 16 ms p75 on 2021 hardware.
func BenchmarkDetectionLatency(b *testing.B) {
	c := benchCorpus(b)
	det := corpusDetector(c, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Receipts[i%len(c.Receipts)]
		det.Inspect(r)
	}
}

// BenchmarkDetectionLatencyAttackTx measures latency on attack-heavy
// transactions specifically (worst case: long trade lists).
func BenchmarkDetectionLatencyAttackTx(b *testing.B) {
	res := benchHarvest(b)
	det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !det.Inspect(res.Receipt).IsAttack {
			b.Fatal("detection regressed")
		}
	}
}

// ---------------------------------------------------------------------
// Pipeline stage benches: where the per-transaction budget goes.
// ---------------------------------------------------------------------

// The stage benches time the interned stages InspectScratch runs, each
// on a reused buffer the way a scanning worker reuses its arena.

func BenchmarkStageExtract(b *testing.B) {
	res := benchHarvest(b)
	in := trace.NewInterner(res.Env.Registry)
	var buf []types.ITransfer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buf = trace.ExtractInterned(buf[:0], in, res.Receipt); len(buf) == 0 {
			b.Fatal("no transfers")
		}
	}
}

func BenchmarkStageTagAndSimplify(b *testing.B) {
	res := benchHarvest(b)
	tg := tagging.New(res.Env.Chain)
	in := trace.NewInterner(res.Env.Registry)
	rules := simplify.ResolveRules(simplify.Options{WETH: res.Env.WETH}, tg.IDOfTag, in.IDOf)
	transfers := trace.ExtractInterned(nil, in, res.Receipt)
	buf := make([]types.ITransfer, len(transfers))
	var s simplify.IScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, transfers)
		tg.TagTransferIDs(buf)
		if len(simplify.SimplifyInterned(buf, rules, &s)) == 0 {
			b.Fatal("no app transfers")
		}
	}
}

func BenchmarkStageTradesAndMatch(b *testing.B) {
	res := benchHarvest(b)
	det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
	})
	tg, in := det.Tagger(), det.Interner()
	transfers := trace.ExtractInterned(nil, in, res.Receipt)
	tg.TagTransferIDs(transfers)
	rules := simplify.ResolveRules(simplify.Options{WETH: res.Env.WETH}, tg.IDOfTag, in.IDOf)
	appTransfers := simplify.SimplifyInterned(transfers, rules, &simplify.IScratch{})
	borrowers := []types.TagID{tg.TagIDOf(res.AttackContract)}
	arena := core.NewArena()
	var list []types.ITrade
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list = trades.IdentifyInterned(list[:0], appTransfers)
		if len(det.MatchTrades(list, borrowers, arena)) == 0 {
			b.Fatal("no match")
		}
		arena.Rewind()
	}
}

func BenchmarkTaggerConstruction(b *testing.B) {
	c := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tagging.New(c.Env.Chain)
	}
}

// ---------------------------------------------------------------------
// Ablation benches for DESIGN.md's design decisions.
// ---------------------------------------------------------------------

// BenchmarkAblationAmountRepr compares the native uint256 rate comparison
// against a big.Int implementation — the value-semantics amount
// representation is a core substrate choice.
func BenchmarkAblationAmountRepr(b *testing.B) {
	x := uint256.MustFromDecimal("123456789012345678901234567890")
	y := uint256.MustFromDecimal("987654321098765432109876543210")
	u := uint256.MustFromDecimal("111111111111111111111111111111")
	v := uint256.MustFromDecimal("222222222222222222222222222222")
	b.Run("uint256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if uint256.CmpProducts(x, y, u, v) == 0 {
				b.Fatal("unexpected equality")
			}
		}
	})
	b.Run("bigint", func(b *testing.B) {
		bx, _ := new(big.Int).SetString(x.String(), 10)
		by, _ := new(big.Int).SetString(y.String(), 10)
		bu, _ := new(big.Int).SetString(u.String(), 10)
		bv, _ := new(big.Int).SetString(v.String(), 10)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := new(big.Int).Mul(bx, by)
			r := new(big.Int).Mul(bu, bv)
			if l.Cmp(r) == 0 {
				b.Fatal("unexpected equality")
			}
		}
	})
}

// thresholdSweeps are the threshold ablation's settings and what each
// detects on the seed-7, scale-1 corpus: every detection, and the true
// ones — full-threshold attacks and profitable sub-threshold (gray)
// ones, which manual inspection confirms.
var thresholdSweeps = []struct {
	name              string
	th                core.Thresholds
	detected, trueDet int
}{
	{"paper", core.DefaultThresholds(), 180, 142},
	{"krp3", core.Thresholds{KRPMinBuys: 3, SBSMinVolatilityBps: 2800, SBSAmountToleranceBps: 10, MBSMinRounds: 3}, 188, 150},
	{"sbs10pct", core.Thresholds{KRPMinBuys: 5, SBSMinVolatilityBps: 1000, SBSAmountToleranceBps: 10, MBSMinRounds: 3}, 188, 142},
	{"mbs2", core.Thresholds{KRPMinBuys: 5, SBSMinVolatilityBps: 2800, SBSAmountToleranceBps: 10, MBSMinRounds: 2}, 194, 150},
}

// thresholdDetections runs the corpus through a detector with th and
// counts its detections and the true ones among them.
func thresholdDetections(c *world.Corpus, th core.Thresholds) (detected, trueDet int) {
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Thresholds: th,
		Simplify:   simplify.Options{WETH: c.Env.WETH},
	})
	for _, r := range c.Receipts {
		if !det.Inspect(r).IsAttack {
			continue
		}
		detected++
		switch c.Truth[r.TxHash].Kind {
		case world.KindAttack, world.KindGrayAttack:
			trueDet++
		}
	}
	return detected, trueDet
}

// TestAblationThresholds pins EXPERIMENTS.md's threshold ablation:
// lowering any one threshold admits more detections, at the precision
// the table states.
func TestAblationThresholds(t *testing.T) {
	c := benchCorpus(t)
	for _, sw := range thresholdSweeps {
		detected, trueDet := thresholdDetections(c, sw.th)
		if detected != sw.detected || trueDet != sw.trueDet {
			t.Errorf("thresholds=%s: detected %d, true %d; want %d, %d", sw.name, detected, trueDet, sw.detected, sw.trueDet)
		}
	}
}

// BenchmarkAblationThresholds sweeps the pattern thresholds over the
// corpus, quantifying the precision/recall trade-off §VII discusses
// (e.g. KRP with 3 buys instead of 5 admits more detections).
func BenchmarkAblationThresholds(b *testing.B) {
	c := benchCorpus(b)
	for _, sw := range thresholdSweeps {
		b.Run(sw.name, func(b *testing.B) {
			b.ReportAllocs()
			var detected, trueDet int
			for i := 0; i < b.N; i++ {
				detected, trueDet = thresholdDetections(c, sw.th)
			}
			prec := 0.0
			if detected > 0 {
				prec = float64(trueDet) / float64(detected) * 100
			}
			b.Logf("thresholds=%s detected=%d true=%d precision=%.1f%%", sw.name, detected, trueDet, prec)
		})
	}
}

// simplifyVariants switch off one §V-B2 simplification rule each, with
// how many of the 15 known attacks LeiShen detects (Table IV) survive.
var simplifyVariants = []struct {
	name     string
	mod      func(*simplify.Options)
	detected int
}{
	{"all-rules", func(*simplify.Options) {}, 15},
	{"no-intra-app", func(o *simplify.Options) { o.DisableIntraAppRule = true }, 9},
	{"no-weth", func(o *simplify.Options) { o.DisableWETHRule = true }, 10},
	{"no-merge", func(o *simplify.Options) { o.DisableMergeRule = true }, 12},
}

// runKnownAttacks executes every known-attack scenario once.
func runKnownAttacks(tb testing.TB) ([]attacks.Scenario, []*attacks.Result) {
	tb.Helper()
	scenarios := attacks.All()
	results := make([]*attacks.Result, 0, len(scenarios))
	for _, sc := range scenarios {
		res, err := sc.Run()
		if err != nil {
			tb.Fatalf("%s: %v", sc.Name, err)
		}
		results = append(results, res)
	}
	return scenarios, results
}

// knownDetections counts the scenarios LeiShen is expected to detect
// that a detector with mod applied to its simplification options flags.
func knownDetections(scenarios []attacks.Scenario, results []*attacks.Result, mod func(*simplify.Options)) int {
	detected := 0
	for j, res := range results {
		opts := simplify.Options{WETH: res.Env.WETH}
		mod(&opts)
		det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{Simplify: opts})
		if det.Inspect(res.Receipt).IsAttack && scenarios[j].LeiShen {
			detected++
		}
	}
	return detected
}

// TestAblationSimplifyRules pins EXPERIMENTS.md's rule ablation: every
// simplification rule is load-bearing for some known attacks.
func TestAblationSimplifyRules(t *testing.T) {
	scenarios, results := runKnownAttacks(t)
	for _, v := range simplifyVariants {
		if got := knownDetections(scenarios, results, v.mod); got != v.detected {
			t.Errorf("simplify=%s: %d known attacks detected, want %d", v.name, got, v.detected)
		}
	}
}

// BenchmarkAblationSimplifyRules disables each §V-B2 simplification rule
// and counts how many of the 22 known attacks survive detection — the
// rules are load-bearing, not cosmetic.
func BenchmarkAblationSimplifyRules(b *testing.B) {
	scenarios, results := runKnownAttacks(b)
	for _, v := range simplifyVariants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var detected int
			for i := 0; i < b.N; i++ {
				detected = knownDetections(scenarios, results, v.mod)
			}
			b.Logf("simplify=%s known attacks detected: %d/15", v.name, detected)
		})
	}
}

// BenchmarkBaselineDeFiRanger measures the account-level baseline.
func BenchmarkBaselineDeFiRanger(b *testing.B) {
	res := benchHarvest(b)
	dfr := baselines.NewDeFiRanger(res.Env.Registry, res.Env.WETH)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !dfr.Detect(res.Receipt) {
			b.Fatal("DeFiRanger should detect Harvest")
		}
	}
}

// BenchmarkPublicAPI exercises the facade the way a downstream user would.
func BenchmarkPublicAPI(b *testing.B) {
	res := benchHarvest(b)
	det := leishen.NewDetector(res.Env.Chain, res.Env.Registry, leishen.Options{
		Simplify: leishen.SimplifyOptions{WETH: res.Env.WETH},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := det.Inspect(res.Receipt)
		if !rep.HasPattern(leishen.PatternMBS) {
			b.Fatal("regression")
		}
	}
}
