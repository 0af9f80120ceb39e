// Command quickstart is the smallest end-to-end use of the public API:
// reproduce one real-world attack (bZx-1, the paper's motivating example)
// and run the LeiShen detector on its transaction.
package main

import (
	"fmt"
	"log"

	"leishen"
	"leishen/internal/attacks"
)

func main() {
	// Reproduce the bZx-1 attack on the simulated substrate.
	scenario, ok := attacks.ByName("bZx-1")
	if !ok {
		log.Fatal("scenario not found")
	}
	result, err := scenario.Run()
	if err != nil {
		log.Fatalf("run scenario: %v", err)
	}
	fmt.Printf("attack executed: profit %s\n\n", result.ProfitToken.Format(result.Profit))

	// Build a detector over the chain snapshot and trace the receipt:
	// the verdict plus the transfer histories behind it.
	detector := leishen.NewDetector(result.Env.Chain, result.Env.Registry, leishen.Options{
		Simplify: leishen.SimplifyOptions{WETH: result.Env.WETH},
	})
	report := detector.Trace(result.Receipt)

	fmt.Println(report.Summary())
	fmt.Println()
	fmt.Println(report.Detail())
}
