package core_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/world"
)

// Corpus fixtures and the fmt-based Detail renderer that the
// append-form AppendDetail is pinned against.

var (
	refCorpusOnce sync.Once
	refCorpus     *world.Corpus
	refCorpusErr  error
)

func referenceCorpus(tb testing.TB) *world.Corpus {
	tb.Helper()
	refCorpusOnce.Do(func() {
		refCorpus, refCorpusErr = world.Generate(world.Config{Seed: 7, ScalePct: 1})
	})
	if refCorpusErr != nil {
		tb.Fatalf("corpus: %v", refCorpusErr)
	}
	return refCorpus
}

// fmtDetail is the historical fmt-based Detail rendering, preserved
// verbatim as the reference for AppendDetail's bytes.
func fmtDetail(r *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "transaction %s (block %d)\n", r.TxHash, r.Block)
	fmt.Fprintf(&b, "flash loans: %d\n", len(r.Loans))
	for _, l := range r.Loans {
		fmt.Fprintf(&b, "  %s lends %s of token %s to %s\n", l.Provider, l.Amount, l.Token.Short(), l.Borrower.Short())
	}
	fmt.Fprintf(&b, "account-level transfers: %d\n", len(r.Transfers))
	fmt.Fprintf(&b, "app-level transfers: %d\n", len(r.AppTransfers))
	for _, at := range r.AppTransfers {
		fmt.Fprintf(&b, "  %s\n", at)
	}
	fmt.Fprintf(&b, "trades: %d\n", len(r.Trades))
	for _, t := range r.Trades {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	fmt.Fprintf(&b, "matches: %d\n", len(r.Matches))
	for _, m := range r.Matches {
		fmt.Fprintf(&b, "  %s\n", m)
	}
	fmt.Fprintf(&b, "verdict: attack=%v\n", r.IsAttack)
	return b.String()
}

func mustJSON(tb testing.TB, rep *core.Report) string {
	tb.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		tb.Fatal(err)
	}
	return string(out)
}

// TestArenaReportsSurviveReuse checks the slab ownership guarantee:
// reports carved from an arena stay byte-stable while the same arena
// inspects the whole corpus again.
func TestArenaReportsSurviveReuse(t *testing.T) {
	c := referenceCorpus(t)
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})

	arena := core.NewArena()
	reports := make([]*core.Report, len(c.Receipts))
	first := make([]string, len(c.Receipts))
	for i, r := range c.Receipts {
		reports[i] = det.InspectScratch(r, arena)
		first[i] = mustJSON(t, reports[i]) + reports[i].Detail()
	}
	// Second full pass through the same arena must not disturb the
	// reports returned by the first.
	for _, r := range c.Receipts {
		det.InspectScratch(r, arena)
	}
	for i, rep := range reports {
		if got := mustJSON(t, rep) + rep.Detail(); got != first[i] {
			t.Fatalf("report %d mutated by arena reuse:\n got: %s\nwant: %s", i, got, first[i])
		}
	}
}

// TestMatchAppendString pins Match.AppendString against the fmt form.
func TestMatchAppendString(t *testing.T) {
	m := core.Match{
		Kind:          core.PatternSBS,
		Target:        types.Token{Symbol: "USDC", Decimals: 6},
		Counterparty:  types.AppTag("SushiSwap"),
		Trades:        make([]types.Trade, 3),
		Rounds:        1,
		VolatilityPct: 31.41592,
	}
	want := m.String()
	if got := string(m.AppendString(nil)); got != want {
		t.Fatalf("AppendString = %q, want %q", got, want)
	}
}
