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
	"io"
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

// selection is what one evalgen run prints, and on which corpus.
type selection struct {
	all, table1, table4, table5, table6, table7, fig1, fig8, perf bool

	scale   int
	seed    int64
	workers int
}

func run() error {
	var sel selection
	flag.BoolVar(&sel.all, "all", false, "run every experiment")
	flag.BoolVar(&sel.table1, "table1", false, "Table I: known attack volatility")
	flag.BoolVar(&sel.table4, "table4", false, "Table IV: detector comparison")
	flag.BoolVar(&sel.table5, "table5", false, "Table V: wild precision")
	flag.BoolVar(&sel.table6, "table6", false, "Table VI: top attacked apps")
	flag.BoolVar(&sel.table7, "table7", false, "Table VII: profit analysis")
	flag.BoolVar(&sel.fig1, "fig1", false, "Fig. 1: weekly flash loans")
	flag.BoolVar(&sel.fig8, "fig8", false, "Fig. 8: monthly attacks")
	flag.BoolVar(&sel.perf, "perf", false, "detection latency")
	flag.IntVar(&sel.scale, "scale", 10, "benign corpus scale percent")
	flag.Int64Var(&sel.seed, "seed", 7, "corpus seed")
	flag.IntVar(&sel.workers, "workers", 0, "scan worker pool size (0 = GOMAXPROCS)")
	flag.Parse()
	if !(sel.table1 || sel.table4 || sel.table5 || sel.table6 || sel.table7 || sel.fig1 || sel.fig8 || sel.perf) {
		sel.all = true
	}
	return render(os.Stdout, os.Stderr, sel)
}

// render prints the selected tables and figures to w, a pure function
// of the selection, and the measured detection latency, which varies
// from run to run, to latency.
func render(w, latency io.Writer, sel selection) error {
	if sel.all || sel.table1 {
		if err := printTable1(w); err != nil {
			return err
		}
	}
	if sel.all || sel.table4 {
		if err := printTable4(w); err != nil {
			return err
		}
	}
	if sel.all || sel.table5 || sel.table6 || sel.table7 || sel.fig1 || sel.fig8 || sel.perf {
		fmt.Fprintf(w, "== generating wild corpus (seed %d, scale %d%%) ==\n", sel.seed, sel.scale)
		c, err := world.Generate(world.Config{Seed: sel.seed, ScalePct: sel.scale})
		if err != nil {
			return err
		}
		res := eval.EvalCorpusWorkers(c, sel.workers)
		fmt.Fprintf(w, "corpus: %d flash loan transactions (paper: 272,984 at 100%%)\n", res.FlashLoanTxs)
		providers := make([]string, 0, len(res.PerProvider))
		for p := range res.PerProvider {
			providers = append(providers, p)
		}
		sort.Strings(providers)
		for _, p := range providers {
			fmt.Fprintf(w, "  %-8s %d\n", p, res.PerProvider[p])
		}
		fmt.Fprintln(w)
		if sel.all || sel.table5 {
			printTable5(w, res)
		}
		if sel.all || sel.table6 {
			printTable6(w, res)
		}
		if sel.all || sel.table7 {
			printTable7(w, res)
		}
		if sel.all || sel.fig1 {
			fmt.Fprintln(w, "== Fig. 1: weekly flash loan transactions per provider ==")
			for _, name := range res.Fig1.Names {
				fmt.Fprintf(w, "%-8s %s\n", name, res.Fig1.Sparkline(name))
			}
			fmt.Fprintln(w)
			fmt.Fprintln(w, res.Fig1)
		}
		if sel.all || sel.fig8 {
			fmt.Fprintln(w, "== Fig. 8: monthly detected unknown flpAttacks (paper: 109 total; ~6.5/mo 2020, ~4.3/mo 2021) ==")
			fmt.Fprintf(w, "shape    %s\n\n", res.Fig8.Sparkline())
			fmt.Fprintln(w, res.Fig8)
		}
		if sel.all || sel.perf {
			fmt.Fprintln(w, "== §VI-A: per-transaction detection latency ==")
			fmt.Fprintf(w, "paper: 10 ms mean, 16 ms p75 (2.1 GHz Xeon, 2021)\n")
			fmt.Fprintf(latency, "here:  mean %.1f µs, p50 %.1f µs, p75 %.1f µs, p99 %.1f µs over %d txs\n",
				res.Perf.MeanMicros, res.Perf.P50Micros, res.Perf.P75Micros, res.Perf.P99Micros, res.Perf.Count)
			fmt.Fprintln(w)
		}
	}
	return nil
}

func printTable1(w io.Writer) error {
	fmt.Fprintln(w, "== Table I: real-world flpAttacks (patterns + price volatility) ==")
	rows, err := eval.RunTable1()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-3s %-18s %-9s %14s %14s  %-14s %s\n",
		"ID", "attack", "patterns", "paper vol%", "measured%", "pair", "profit")
	for _, r := range rows {
		fmt.Fprintf(w, "%-3d %-18s %-9s %14.4g %14.4g  %-14s %s\n",
			r.ID, r.Name, r.Patterns, r.PaperVolatilityPct, r.MeasuredPct, r.PrimaryPair, r.ProfitHuman)
	}
	fmt.Fprintln(w)
	return nil
}

func printTable4(w io.Writer) error {
	fmt.Fprintln(w, "== Table IV: detection of known flpAttacks ==")
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
	fmt.Fprintf(w, "%-3s %-18s %-12s %-12s %-12s\n", "ID", "attack", "DeFiRanger", "Explorer+LS", "LeiShen")
	var dfr, exp, ls int
	for _, r := range rows {
		fmt.Fprintf(w, "%-3d %-18s %-12s %-12s %-12s\n", r.ID, r.Name,
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
	fmt.Fprintf(w, "totals: DeFiRanger %d (paper 9), Explorer+LeiShen %d (paper 4), LeiShen %d (paper 15 of 17 conforming)\n\n", dfr, exp, ls)
	return nil
}

func printTable5(w io.Writer, res eval.CorpusEval) {
	fmt.Fprintln(w, "== Table V: detection results on the wild corpus ==")
	fmt.Fprintln(w, "paper: KRP 21/21 (100%), SBS 68/79 (86.1%), MBS 60/107 (56.1%), overall 142/180 (78.9%)")
	fmt.Fprint(w, res.TableV)
	fmt.Fprintf(w, "%s   (paper: heuristic lifts MBS precision to ~80%%)\n\n", res.TableVHeuristic)
}

func printTable6(w io.Writer, res eval.CorpusEval) {
	fmt.Fprintln(w, "== Table VI: top attacked applications (unknown attacks) ==")
	fmt.Fprintln(w, "paper: Balancer 31/5/14/13, Uniswap 16/6/8/5, Yearn 11/1/1/1")
	limit := len(res.TableVI)
	if limit > 6 {
		limit = 6
	}
	for _, row := range res.TableVI[:limit] {
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w)
}

func printTable7(w io.Writer, res eval.CorpusEval) {
	s := res.TableVII
	fmt.Fprintln(w, "== Table VII: attack profit analysis (analyzed unknown attacks) ==")
	fmt.Fprintln(w, "paper: mean $3,509*, min $23, max $6,102,198, total >$21M  (*see EXPERIMENTS.md)")
	fmt.Fprintf(w, "here:  mean $%.0f, min $%.0f, max $%.0f, total $%.0f\n", s.Mean, s.Min, s.Max, s.Total)
	fmt.Fprintf(w, "       top10%% avg $%.0f, top20%% avg $%.0f\n", s.Top10Avg, s.Top20Avg)
	fmt.Fprintf(w, "yield: mean %.3f%%, min %.4f%%, max %.1f%%\n\n", s.MeanYield, s.MinYield, s.MaxYield)
}
