package leishen_test

import (
	"testing"

	"leishen"
	"leishen/internal/attacks"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// TestFacadeDetectsKnownAttack exercises the public API end to end: a
// downstream user reproduces an attack and inspects it through the
// facade only.
func TestFacadeDetectsKnownAttack(t *testing.T) {
	sc, ok := attacks.ByName("bZx-1")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	det := leishen.NewDetector(res.Env.Chain, res.Env.Registry, leishen.Options{
		Simplify: leishen.SimplifyOptions{WETH: res.Env.WETH},
	})
	rep := det.Trace(res.Receipt)
	if !rep.IsAttack || !rep.HasPattern(leishen.PatternSBS) {
		t.Fatalf("facade detection failed:\n%s", rep.Detail())
	}
	vols := leishen.PairVolatilities(rep.Trades)
	if len(vols) == 0 {
		t.Error("no volatilities")
	}
	// Paper Table I: ETH-WBTC ~125%.
	if v := vols["ETH-WBTC"]; v < 100 || v > 170 {
		t.Errorf("ETH-WBTC volatility = %.1f%%, want ~125%%", v)
	}
}

func TestFacadeDefaults(t *testing.T) {
	th := leishen.DefaultThresholds()
	if th.KRPMinBuys != 5 || th.SBSMinVolatilityBps != 2800 || th.MBSMinRounds != 3 {
		t.Errorf("thresholds = %+v", th)
	}
	if leishen.PatternKRP.String() != "KRP" {
		t.Error("pattern re-export broken")
	}
	var a leishen.Address
	if a != (types.Address{}) {
		t.Error("address alias broken")
	}
	var amt uint256.Int
	_ = amt
}
