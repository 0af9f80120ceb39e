// Command evalgen regenerates every table and figure of the paper's
// evaluation section (§VI) against the simulated substrate:
//
//	evalgen -all            # everything (default)
//	evalgen -table1         # Table I:  known attack volatility + patterns
//	evalgen -table4         # Table IV: LeiShen vs DeFiRanger vs Explorer
//	evalgen -table5         # Table V:  wild detection precision
//	evalgen -table6         # Table VI: top attacked applications
//	evalgen -table7         # Table VII: profit analysis
//	evalgen -fig1           # Fig. 1:   weekly flash loans per provider
//	evalgen -fig8           # Fig. 8:   monthly unknown attacks
//	evalgen -perf           # §VI-A:    detection latency (measured on stderr)
//	evalgen -scale 10       # corpus scale percent (default 10)
//	evalgen -seed 7         # corpus seed
//	evalgen -workers 8      # scan worker pool size (0 = GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"leishen/internal/eval"
	"leishen/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evalgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		all     = flag.Bool("all", false, "run every experiment")
		table1  = flag.Bool("table1", false, "Table I: known attack volatility")
		table4  = flag.Bool("table4", false, "Table IV: detector comparison")
		table5  = flag.Bool("table5", false, "Table V: wild precision")
		table6  = flag.Bool("table6", false, "Table VI: top attacked apps")
		table7  = flag.Bool("table7", false, "Table VII: profit analysis")
		fig1    = flag.Bool("fig1", false, "Fig. 1: weekly flash loans")
		fig8    = flag.Bool("fig8", false, "Fig. 8: monthly attacks")
		perf    = flag.Bool("perf", false, "detection latency")
		scale   = flag.Int("scale", 10, "benign corpus scale percent")
		seed    = flag.Int64("seed", 7, "corpus seed")
		workers = flag.Int("workers", 0, "scan worker pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if !(*table1 || *table4 || *table5 || *table6 || *table7 || *fig1 || *fig8 || *perf) {
		*all = true
	}

	if *all || *table1 {
		if err := printTable1(); err != nil {
			return err
		}
	}
	if *all || *table4 {
		if err := printTable4(); err != nil {
			return err
		}
	}
	if *all || *table5 || *table6 || *table7 || *fig1 || *fig8 || *perf {
		fmt.Printf("== generating wild corpus (seed %d, scale %d%%) ==\n", *seed, *scale)
		c, err := world.Generate(world.Config{Seed: *seed, ScalePct: *scale})
		if err != nil {
			return err
		}
		res := eval.EvalCorpusWorkers(c, *workers)
		fmt.Printf("corpus: %d flash loan transactions (paper: 272,984 at 100%%)\n", res.FlashLoanTxs)
		providers := make([]string, 0, len(res.PerProvider))
		for p := range res.PerProvider {
			providers = append(providers, p)
		}
		sort.Strings(providers)
		for _, p := range providers {
			fmt.Printf("  %-8s %d\n", p, res.PerProvider[p])
		}
		fmt.Println()
		if *all || *table5 {
			printTable5(res)
		}
		if *all || *table6 {
			printTable6(res)
		}
		if *all || *table7 {
			printTable7(res)
		}
		if *all || *fig1 {
			fmt.Println("== Fig. 1: weekly flash loan transactions per provider ==")
			for _, name := range res.Fig1.Names {
				fmt.Printf("%-8s %s\n", name, res.Fig1.Sparkline(name))
			}
			fmt.Println()
			fmt.Println(res.Fig1)
		}
		if *all || *fig8 {
			fmt.Println("== Fig. 8: monthly detected unknown flpAttacks (paper: 109 total; ~6.5/mo 2020, ~4.3/mo 2021) ==")
			fmt.Printf("shape    %s\n\n", res.Fig8.Sparkline())
			fmt.Println(res.Fig8)
		}
		if *all || *perf {
			fmt.Println("== §VI-A: per-transaction detection latency ==")
			fmt.Printf("paper: 10 ms mean, 16 ms p75 (2.1 GHz Xeon, 2021)\n")
			// Wall time varies; stderr keeps stdout a function of (seed, scale).
			fmt.Fprintf(os.Stderr, "here:  mean %.1f µs, p50 %.1f µs, p75 %.1f µs, p99 %.1f µs over %d txs\n",
				res.Perf.MeanMicros, res.Perf.P50Micros, res.Perf.P75Micros, res.Perf.P99Micros, res.Perf.Count)
			fmt.Println()
		}
	}
	return nil
}

func printTable1() error {
	fmt.Println("== Table I: real-world flpAttacks (patterns + price volatility) ==")
	rows, err := eval.RunTable1()
	if err != nil {
		return err
	}
	fmt.Printf("%-3s %-18s %-9s %14s %14s  %-14s %s\n",
		"ID", "attack", "patterns", "paper vol%", "measured%", "pair", "profit")
	for _, r := range rows {
		fmt.Printf("%-3d %-18s %-9s %14.4g %14.4g  %-14s %s\n",
			r.ID, r.Name, r.Patterns, r.PaperVolatilityPct, r.MeasuredPct, r.PrimaryPair, r.ProfitHuman)
	}
	fmt.Println()
	return nil
}

func printTable4() error {
	fmt.Println("== Table IV: detection of known flpAttacks ==")
	rows, err := eval.RunTable4()
	if err != nil {
		return err
	}
	mark := func(b bool) string {
		if b {
			return "Y"
		}
		return "."
	}
	fmt.Printf("%-3s %-18s %-12s %-12s %-12s\n", "ID", "attack", "DeFiRanger", "Explorer+LS", "LeiShen")
	var dfr, exp, ls int
	for _, r := range rows {
		fmt.Printf("%-3d %-18s %-12s %-12s %-12s\n", r.ID, r.Name,
			mark(r.DeFiRanger), mark(r.Explorer), mark(r.LeiShen))
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
	fmt.Printf("totals: DeFiRanger %d (paper 9), Explorer+LeiShen %d (paper 4), LeiShen %d (paper 15 of 17 conforming)\n\n", dfr, exp, ls)
	return nil
}

func printTable5(res eval.CorpusEval) {
	fmt.Println("== Table V: detection results on the wild corpus ==")
	fmt.Println("paper: KRP 21/21 (100%), SBS 68/79 (86.1%), MBS 60/107 (56.1%), overall 142/180 (78.9%)")
	fmt.Print(res.TableV)
	fmt.Printf("%s   (paper: heuristic lifts MBS precision to ~80%%)\n\n", res.TableVHeuristic)
}

func printTable6(res eval.CorpusEval) {
	fmt.Println("== Table VI: top attacked applications (unknown attacks) ==")
	fmt.Println("paper: Balancer 31/5/14/13, Uniswap 16/6/8/5, Yearn 11/1/1/1")
	limit := len(res.TableVI)
	if limit > 6 {
		limit = 6
	}
	for _, row := range res.TableVI[:limit] {
		fmt.Println(row)
	}
	fmt.Println()
}

func printTable7(res eval.CorpusEval) {
	s := res.TableVII
	fmt.Println("== Table VII: attack profit analysis (analyzed unknown attacks) ==")
	fmt.Println("paper: mean $3,509*, min $23, max $6,102,198, total >$21M  (*see EXPERIMENTS.md)")
	fmt.Printf("here:  mean $%.0f, min $%.0f, max $%.0f, total $%.0f\n", s.Mean, s.Min, s.Max, s.Total)
	fmt.Printf("       top10%% avg $%.0f, top20%% avg $%.0f\n", s.Top10Avg, s.Top20Avg)
	fmt.Printf("yield: mean %.3f%%, min %.4f%%, max %.1f%%\n\n", s.MeanYield, s.MinYield, s.MaxYield)
}
