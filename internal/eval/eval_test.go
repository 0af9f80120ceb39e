package eval

import (
	"testing"
	"time"

	"leishen/internal/world"
)

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Name == "" || r.Patterns == "" {
			t.Errorf("incomplete row: %+v", r)
		}
		if r.MeasuredPct < 0 {
			t.Errorf("%s: negative volatility", r.Name)
		}
	}
	// The Harvest row reproduces the paper's tiny-volatility point.
	for _, r := range rows {
		if r.Name == "Harvest Finance" {
			if r.MeasuredPct <= 0 || r.MeasuredPct > 2 {
				t.Errorf("Harvest volatility = %.3f%%, want <2%% (paper 0.5%%)", r.MeasuredPct)
			}
		}
	}
}

func TestRunTable4MatchesPaperProfile(t *testing.T) {
	rows, err := RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	var dfr, exp, ls int
	for _, r := range rows {
		if r.DeFiRanger != r.WantDFR {
			t.Errorf("%s: DeFiRanger = %v, want %v", r.Name, r.DeFiRanger, r.WantDFR)
		}
		if r.Explorer != r.WantExp {
			t.Errorf("%s: Explorer = %v, want %v", r.Name, r.Explorer, r.WantExp)
		}
		if r.LeiShen != r.WantLS {
			t.Errorf("%s: LeiShen = %v, want %v", r.Name, r.LeiShen, r.WantLS)
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
	if dfr != 9 || exp != 4 || ls != 15 {
		t.Errorf("totals DFR=%d EXP=%d LS=%d, want 9/4/15", dfr, exp, ls)
	}
}

func TestEvalCorpusTables(t *testing.T) {
	c, err := world.Generate(world.Config{Seed: 11, ScalePct: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := EvalCorpus(c)

	// Table V exact regardless of seed and scale.
	want := map[string][3]int{ // pattern -> {N, TP, FP}
		"KRP": {21, 21, 0},
		"SBS": {79, 68, 11},
		"MBS": {107, 60, 47},
	}
	for _, row := range res.TableV.Rows {
		w := want[row.Pattern]
		if row.N != w[0] || row.TP != w[1] || row.FP != w[2] {
			t.Errorf("%s = %+v, want %v", row.Pattern, row, w)
		}
	}
	if res.TableV.Overall.N != 180 || res.TableV.Overall.TP != 142 {
		t.Errorf("overall = %+v", res.TableV.Overall)
	}
	if res.TableVHeuristic.N >= 107 {
		t.Errorf("heuristic row did not suppress anything: %+v", res.TableVHeuristic)
	}

	// Table VI top three rows are the paper's.
	if len(res.TableVI) < 3 {
		t.Fatalf("TableVI rows = %d", len(res.TableVI))
	}
	top := res.TableVI[0]
	if top.App != "Balancer" || top.Attacks != 31 || top.Attackers != 5 || top.Contracts != 14 || top.Assets != 13 {
		t.Errorf("Balancer row = %+v", top)
	}

	// Table VII: heavy tail over at least three orders of magnitude.
	if res.TableVII.Min <= 0 || res.TableVII.Max/res.TableVII.Min < 1000 {
		t.Errorf("profit spread = [%f, %f]", res.TableVII.Min, res.TableVII.Max)
	}

	// Fig. 8 sums to 109 unknown attacks, none before June 2020.
	total := 0
	for _, k := range res.Fig8.Keys {
		total += res.Fig8.Counts[k]
		if k < "2020-06" {
			t.Errorf("unknown attack before Jun 2020: %s", k)
		}
	}
	if total != 109 {
		t.Errorf("Fig8 total = %d, want 109", total)
	}

	// Fig. 1: Uniswap dominates the corpus (paper: 208k of 273k).
	if res.PerProvider["Uniswap"] <= res.PerProvider["AAVE"]+res.PerProvider["dYdX"] {
		t.Errorf("provider split = %v; Uniswap should dominate", res.PerProvider)
	}
	if res.Perf.Count != len(c.Receipts) || res.Perf.MeanMicros <= 0 {
		t.Errorf("perf = %+v", res.Perf)
	}
}

// TestPerfStatsSubMicrosecond pins the latency summary to nanosecond
// input: detection takes a few µs, so the figures keep their fraction.
func TestPerfStatsSubMicrosecond(t *testing.T) {
	got := perfStats([]time.Duration{2500, 700, 1300, 900})
	want := PerfStats{MeanMicros: 1.35, P50Micros: 0.9, P75Micros: 1.3, P99Micros: 1.3, Count: 4}
	if got != want {
		t.Fatalf("perfStats = %+v, want %+v", got, want)
	}
}

// TestVolatilityBands pins the paper's central discriminating claim: the
// vault-based MBS attacks move prices by a few percent at most while the
// KRP/SBS pump attacks move them far beyond the 28% SBS bar — which is
// why a volatility threshold cannot replace pattern matching.
func TestVolatilityBands(t *testing.T) {
	rows, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	lowBand := []string{"Harvest Finance", "Belt Finance", "PancakeHunny"}
	for _, name := range lowBand {
		if v := byName[name].MeasuredPct; v <= 0 || v >= 10 {
			t.Errorf("%s volatility = %.2f%%, want < 10%%", name, v)
		}
	}
	highBand := []string{"bZx-1", "bZx-2", "Cheese Bank", "Spartan Protocol", "AutoShark-3", "Ploutoz Finance"}
	for _, name := range highBand {
		if v := byName[name].MeasuredPct; v < 28 {
			t.Errorf("%s volatility = %.2f%%, want >= 28%%", name, v)
		}
	}
}
