// Command forensics is a post-incident investigation walkthrough: scan a
// generated corpus, pick the most profitable detected attack, and print
// its full money flow the way the paper's Fig. 6 renders the bZx-1 attack
// — account-level transfers, application-level transfers after the three
// simplification rules, the identified trades, and the matched pattern.
package main

import (
	"fmt"
	"log"

	"leishen"
	"leishen/internal/pricing"
	"leishen/internal/tagging"
	"leishen/internal/world"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("generating corpus (seed 7, scale 1%)...")
	c, err := world.Generate(world.Config{Seed: 7, ScalePct: 1})
	if err != nil {
		return err
	}
	det := leishen.NewDetector(c.Env.Chain, c.Env.Registry, leishen.Options{
		Simplify: leishen.SimplifyOptions{WETH: c.Env.WETH},
	})

	// The paper's §V-B1 tagging statistics for this snapshot.
	stats := tagging.New(c.Env.Chain).Stats()
	fmt.Printf("account tagging: %d accounts, %d app-tagged, %d root-tagged, %d conflicted (%.2f%%)\n\n",
		stats.Accounts, stats.AppTagged, stats.RootTagged, stats.Conflicted, stats.ConflictPct())

	// Scan and keep the most profitable detection.
	prices := pricing.NewDefaultTable()
	var bestTx *leishen.Receipt
	bestUSD := 0.0
	detected := 0
	for _, r := range c.Receipts {
		if !det.Inspect(r, nil).IsAttack {
			continue
		}
		detected++
		truth := c.Truth[r.TxHash]
		usd := prices.ValueUSD(truth.ProfitToken, truth.Profit, truth.Time)
		if usd > bestUSD {
			bestUSD = usd
			bestTx = r
		}
	}
	if bestTx == nil {
		return fmt.Errorf("no attacks detected")
	}
	// Trace re-inspects the winner and keeps the transfer histories
	// that the scan's verdicts do not carry.
	best := det.Trace(bestTx)
	fmt.Printf("scanned %d flash loan transactions, %d flagged\n", len(c.Receipts), detected)
	fmt.Printf("most profitable: %s (~$%.0f swept)\n\n", best.TxHash.Short(), bestUSD)

	truth := c.Truth[best.TxHash]
	fmt.Printf("victim application: %s (asset %s)\n", truth.App, truth.Asset)
	fmt.Printf("attacker EOA:       %s\n", truth.Attacker)
	fmt.Printf("attack contract:    %s\n", truth.Contract)
	fmt.Printf("flash loan:         %s of %s from %s\n\n",
		truth.BorrowToken.Format(truth.Borrowed), truth.BorrowToken.Symbol, truth.Provider)

	fmt.Println("== money flow (paper Fig. 6 style) ==")
	fmt.Printf("account-level transfers (%d):\n", len(best.Transfers))
	for _, tr := range best.Transfers {
		fmt.Printf("  %s\n", tr)
	}
	fmt.Printf("\napplication-level transfers after simplification (%d):\n", len(best.AppTransfers))
	for _, at := range best.AppTransfers {
		fmt.Printf("  %s\n", at)
	}
	fmt.Printf("\nidentified trades (%d):\n", len(best.Trades))
	for _, tr := range best.Trades {
		fmt.Printf("  %s\n", tr)
	}
	fmt.Printf("\nmatched patterns:\n")
	for _, m := range best.Matches {
		fmt.Printf("  %s\n", m)
	}
	return nil
}
