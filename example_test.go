package leishen_test

import (
	"fmt"
	"log"

	"leishen"
	"leishen/internal/attacks"
)

// ExampleNewDetector reproduces the bZx-1 attack (the paper's motivating
// example) on the simulated substrate and inspects it through the public
// API. Everything is deterministic, including the transaction hash.
func ExampleNewDetector() {
	scenario, ok := attacks.ByName("bZx-1")
	if !ok {
		log.Fatal("scenario not found")
	}
	result, err := scenario.Run()
	if err != nil {
		log.Fatal(err)
	}

	detector := leishen.NewDetector(result.Env.Chain, result.Env.Registry, leishen.Options{
		Simplify: leishen.SimplifyOptions{WETH: result.Env.WETH},
	})
	report := detector.Inspect(result.Receipt, nil)

	fmt.Println(report.Summary())
	fmt.Println("SBS detected:", report.HasPattern(leishen.PatternSBS))
	// Output:
	// 0x7d7a3838: flpAttack [SBS on WBTC vs Compound (3 trades, volatility 132.65%)]
	// SBS detected: true
}
