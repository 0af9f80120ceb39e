// Package eval runs the paper's evaluation experiments end to end and
// returns the tables and series of §VI. It is shared by cmd/evalgen (the
// human-readable regeneration harness) and the benchmark suite.
package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"leishen/internal/attacks"
	"leishen/internal/baselines"
	"leishen/internal/core"
	"leishen/internal/pricing"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/stats"
	"leishen/internal/world"
)

// Table1Row is one known attack's row of paper Table I: measured price
// volatility and the patterns it conforms to.
type Table1Row struct {
	ID                 int
	Name               string
	Patterns           string
	PaperVolatilityPct float64
	MeasuredPct        float64
	PrimaryPair        string
	ProfitHuman        string
}

// RunTable1 executes all 22 scenarios and measures their volatility.
func RunTable1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, sc := range attacks.All() {
		res, err := sc.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
			Simplify: simplify.Options{WETH: res.Env.WETH},
		})
		rep := det.Inspect(res.Receipt, nil)
		pair, vol := dominantVolatility(rep)
		var pats []string
		for _, p := range sc.Patterns {
			pats = append(pats, p.String())
		}
		label := strings.Join(pats, "+")
		if label == "" {
			label = "-"
		}
		rows = append(rows, Table1Row{
			ID: sc.ID, Name: sc.Name, Patterns: label,
			PaperVolatilityPct: sc.PaperVolatilityPct,
			MeasuredPct:        vol, PrimaryPair: pair,
			ProfitHuman: res.ProfitToken.Format(res.Profit),
		})
	}
	return rows, nil
}

// dominantVolatility returns the pair with the largest measured price
// volatility in the transaction's trades.
func dominantVolatility(rep *core.Report) (string, float64) {
	vols := baselines.SortedPairVolatilities(rep.Trades)
	if len(vols) == 0 || vols[0].VolatilityPct <= 0 {
		return "-", 0
	}
	return vols[0].Pair, vols[0].VolatilityPct
}

// Table4Row is one known attack's row of paper Table IV.
type Table4Row struct {
	ID                            int
	Name                          string
	DeFiRanger, Explorer, LeiShen bool
	WantDFR, WantExp, WantLS      bool
}

// RunTable4 runs the three detectors over all 22 known attacks.
func RunTable4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, sc := range attacks.All() {
		res, err := sc.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		ls := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
			Simplify: simplify.Options{WETH: res.Env.WETH},
		})
		dfr := baselines.NewDeFiRanger(res.Env.Registry, res.Env.WETH)
		exp := baselines.NewExplorer(res.Env.Chain, res.Env.Registry, core.Thresholds{})
		rows = append(rows, Table4Row{
			ID: sc.ID, Name: sc.Name,
			DeFiRanger: dfr.Detect(res.Receipt),
			Explorer:   len(exp.Detect(res.Receipt)) > 0,
			LeiShen:    ls.Inspect(res.Receipt, nil).IsAttack,
			WantDFR:    sc.DeFiRanger, WantExp: sc.Explorer, WantLS: sc.LeiShen,
		})
	}
	return rows, nil
}

// CorpusEval bundles every corpus-derived experiment result.
type CorpusEval struct {
	// TableV is the per-pattern precision table (paper Table V).
	TableV stats.PrecisionTable
	// TableVHeuristic is the MBS row with the §VI-C heuristic enabled.
	TableVHeuristic stats.PrecisionRow
	// TableVI is the top attacked applications (paper Table VI).
	TableVI []stats.AppRow
	// TableVII is the profit summary over analyzed unknown attacks.
	TableVII stats.ProfitSummary
	// Fig1 is the weekly flash loan counts per provider.
	Fig1 stats.MultiSeries
	// Fig8 is the monthly count of detected unknown attacks.
	Fig8 stats.Series
	// Perf is the detection latency distribution.
	Perf PerfStats
	// FlashLoanTxs is the corpus size; PerProvider its split.
	FlashLoanTxs int
	PerProvider  map[string]int
}

// PerfStats summarizes per-transaction detection latency (§VI-A reports a
// 10 ms mean and 16 ms p75 on the authors' hardware).
type PerfStats struct {
	MeanMicros float64
	P50Micros  float64
	P75Micros  float64
	P99Micros  float64
	Count      int
}

// EvalCorpus runs LeiShen over a generated corpus and assembles every
// table and figure, scanning on a GOMAXPROCS-sized worker pool.
func EvalCorpus(c *world.Corpus) CorpusEval {
	return EvalCorpusWorkers(c, 0)
}

// EvalCorpusWorkers is EvalCorpus with an explicit scan pool size
// (workers <= 0 means GOMAXPROCS). The detection passes run on the
// parallel engine; the engine's ordered output makes every table and
// figure identical for any worker count.
func EvalCorpusWorkers(c *world.Corpus, workers int) CorpusEval {
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
	})
	detH := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify:                 simplify.Options{WETH: c.Env.WETH},
		YieldAggregatorHeuristic: true,
		YieldAggregatorApps:      world.AggregatorApps,
	})
	scanOpts := scan.Options{Workers: workers}
	reports, _ := scan.Scan(det, c.Receipts, scanOpts)
	reportsH, _ := scan.Scan(detH, c.Receipts, scanOpts)

	type counts struct{ n, tp int }
	perPattern := map[core.PatternKind]*counts{
		core.PatternKRP: {}, core.PatternSBS: {}, core.PatternMBS: {},
	}
	heurMBS := &counts{}
	detected, trueDetected := 0, 0
	var latencies []time.Duration
	var fig1 []stats.TimedName
	var fig8Times []time.Time
	var metas []stats.AttackMeta
	type profitRec struct {
		usd   float64
		yield float64
		when  time.Time
	}
	var profits []profitRec
	prices := pricing.NewDefaultTable()
	perProvider := make(map[string]int)

	for i, r := range c.Receipts {
		truth := c.Truth[r.TxHash]
		fig1 = append(fig1, stats.TimedName{Time: truth.Time, Name: truth.Provider.String()})
		perProvider[truth.Provider.String()]++

		rep := reports[i]
		latencies = append(latencies, rep.Elapsed)
		if rep.IsAttack {
			detected++
			got := map[core.PatternKind]bool{}
			for _, m := range rep.Matches {
				got[m.Kind] = true
			}
			truePat := map[core.PatternKind]bool{}
			for _, p := range truth.TruePatterns {
				truePat[p] = true
			}
			if truth.Kind == world.KindAttack {
				trueDetected++
			}
			for kind := range got {
				pc := perPattern[kind]
				pc.n++
				if truth.Kind == world.KindAttack && truePat[kind] {
					pc.tp++
				}
			}
			// Unknown-attack analyses (Fig. 8, Tables VI and VII).
			if truth.Kind == world.KindAttack && !truth.Known && !truth.Repeat {
				fig8Times = append(fig8Times, truth.Time)
				metas = append(metas, stats.AttackMeta{
					App:      truth.App,
					Attacker: truth.Attacker.String(),
					Contract: truth.Contract.String(),
					Asset:    truth.Asset,
				})
				profitUSD := prices.ValueUSD(truth.ProfitToken, truth.Profit, truth.Time)
				borrowedUSD := prices.ValueUSD(truth.BorrowToken, truth.Borrowed, truth.Time)
				profits = append(profits, profitRec{
					usd:   profitUSD,
					yield: pricing.YieldRatePct(profitUSD, borrowedUSD),
					when:  truth.Time,
				})
			}
		}
		// Heuristic pass for the Table V extension row.
		repH := reportsH[i]
		if repH.IsAttack && repH.HasPattern(core.PatternMBS) {
			heurMBS.n++
			if truth.Kind == world.KindAttack {
				for _, p := range truth.TruePatterns {
					if p == core.PatternMBS {
						heurMBS.tp++
					}
				}
			}
		}
	}

	out := CorpusEval{
		FlashLoanTxs: len(c.Receipts),
		PerProvider:  perProvider,
	}
	mk := func(name string, k core.PatternKind) stats.PrecisionRow {
		pc := perPattern[k]
		return stats.PrecisionRow{Pattern: name, N: pc.n, TP: pc.tp, FP: pc.n - pc.tp}
	}
	out.TableV = stats.PrecisionTable{
		Rows: []stats.PrecisionRow{
			mk("KRP", core.PatternKRP),
			mk("SBS", core.PatternSBS),
			mk("MBS", core.PatternMBS),
		},
		Overall: stats.PrecisionRow{Pattern: "overall", N: detected, TP: trueDetected, FP: detected - trueDetected},
	}
	out.TableVHeuristic = stats.PrecisionRow{
		Pattern: "MBS+heur", N: heurMBS.n, TP: heurMBS.tp, FP: heurMBS.n - heurMBS.tp,
	}
	out.TableVI = stats.TopApps(metas)
	out.Fig1 = stats.BucketBy(fig1, stats.WeekKey)
	out.Fig8 = stats.Bucket(fig8Times, stats.MonthKey)

	// Table VII analyzes 97 of the unknown attacks (the paper sets 12
	// aside); we exclude the 12 most recent for the same effect.
	sort.Slice(profits, func(i, j int) bool { return profits[i].when.Before(profits[j].when) })
	analyzed := profits
	if len(analyzed) > 97 {
		analyzed = analyzed[:97]
	}
	usd := make([]float64, len(analyzed))
	yields := make([]float64, len(analyzed))
	for i, p := range analyzed {
		usd[i] = p.usd
		yields[i] = p.yield
	}
	out.TableVII = stats.Summarize(usd, yields)
	out.Perf = perfStats(latencies)
	return out
}

func perfStats(ls []time.Duration) PerfStats {
	if len(ls) == 0 {
		return PerfStats{}
	}
	sorted := append([]time.Duration(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	// Float µs from nanoseconds: detection takes a few µs, so whole-µs
	// truncation would hide most of the spread.
	micros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	at := func(q float64) float64 {
		return micros(sorted[int(q*float64(len(sorted)-1))])
	}
	return PerfStats{
		MeanMicros: micros(total) / float64(len(sorted)),
		P50Micros:  at(0.50),
		P75Micros:  at(0.75),
		P99Micros:  at(0.99),
		Count:      len(sorted),
	}
}
