// Command harvest reproduces the Harvest Finance attack of October 2020 —
// the canonical Multi-Round Buying and Selling (MBS) attack and the
// paper's showcase for why volatility-threshold detectors fail: the whole
// $24M exploit moved the fUSDC price by only ~0.5%.
//
// Per round, the attacker:
//  1. deposits USDC into the vault at the fair share price (buy fUSDC);
//  2. skews the vault's Curve-style pricing pool, inflating the vault's
//     USDT position valuation;
//  3. withdraws at the inflated share price (sell fUSDC at a profit);
//  4. unskews the pool and repeats.
package main

import (
	"fmt"
	"log"

	"leishen"
	"leishen/internal/attacks"
	"leishen/internal/baselines"
)

func main() {
	scenario, ok := attacks.ByName("Harvest Finance")
	if !ok {
		log.Fatal("scenario not found")
	}
	fmt.Println("reproducing", scenario.Describe())
	result, err := scenario.Run()
	if err != nil {
		log.Fatalf("scenario: %v", err)
	}
	fmt.Printf("attacker profit: %s\n\n", result.ProfitToken.Format(result.Profit))

	det := leishen.NewDetector(result.Env.Chain, result.Env.Registry, leishen.Options{
		Simplify: leishen.SimplifyOptions{WETH: result.Env.WETH},
	})
	rep := det.Inspect(result.Receipt, nil)
	fmt.Println(rep.Summary())

	// The paper's point: volatility is tiny, so the 99%-threshold
	// baseline cannot see this attack while the MBS pattern can.
	fmt.Println("\npair volatilities within the attack transaction:")
	for _, pv := range leishen.SortedPairVolatilities(rep.Trades) {
		fmt.Printf("  %-16s %.3f%%\n", pv.Pair, pv.VolatilityPct)
	}
	var volDet baselines.VolatilityDetector
	fmt.Printf("\nvolatility-threshold detector (99%%): flagged=%v\n", volDet.Detect(rep.Trades))
	fmt.Printf("LeiShen MBS pattern:                 flagged=%v\n", rep.HasPattern(leishen.PatternMBS))
	if !rep.HasPattern(leishen.PatternMBS) || volDet.Detect(rep.Trades) {
		log.Fatal("unexpected detection outcome")
	}
}
