package baselines

import (
	"testing"

	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// TestTableIVKnownAttacks reproduces paper Table IV: for each of the 22
// known attacks, DeFiRanger and Explorer+LeiShen must detect exactly the
// attacks the paper reports them detecting.
func TestTableIVKnownAttacks(t *testing.T) {
	for _, sc := range attacks.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := sc.Run()
			if err != nil {
				t.Fatalf("scenario: %v", err)
			}
			dfr := NewDeFiRanger(res.Env.Registry, res.Env.WETH)
			if got := dfr.Detect(res.Receipt); got != sc.DeFiRanger {
				t.Errorf("DeFiRanger = %v, want %v", got, sc.DeFiRanger)
			}
			exp := NewExplorer(res.Env.Chain, res.Env.Registry, core.Thresholds{})
			if got := len(exp.Detect(res.Receipt)) > 0; got != sc.Explorer {
				t.Errorf("Explorer+LeiShen = %v, want %v (trades: %v)", got, sc.Explorer, exp.Trades(res.Receipt))
			}
		})
	}
}

func mkTrade(buyer, seller types.Tag, sellAmt uint64, sellTok types.Token, buyAmt uint64, buyTok types.Token) types.Trade {
	return types.Trade{
		Kind: types.TradeSwap, Buyer: buyer, Seller: seller,
		AmountSell: uint256.FromUint64(sellAmt), TokenSell: sellTok,
		AmountBuy: uint256.FromUint64(buyAmt), TokenBuy: buyTok,
	}
}

func TestPairVolatilities(t *testing.T) {
	a := types.Token{Address: types.Address{1}, Symbol: "AAA", Decimals: 18}
	b := types.Token{Address: types.Address{2}, Symbol: "BBB", Decimals: 18}
	buyer := types.RootTag(types.Address{9})
	seller := types.AppTag("DEX")
	list := []types.Trade{
		mkTrade(buyer, seller, 100, a, 100, b), // BBB price 1.0 AAA
		mkTrade(buyer, seller, 200, a, 100, b), // BBB price 2.0 AAA
	}
	vols := PairVolatilities(list)
	if got := vols["AAA-BBB"]; got < 99.9 || got > 100.1 {
		t.Errorf("volatility = %f, want 100", got)
	}
	// Direction normalization: selling BBB for AAA contributes the same pair.
	list = append(list, mkTrade(buyer, seller, 100, b, 300, a)) // price 3.0
	vols = PairVolatilities(list)
	if got := vols["AAA-BBB"]; got < 199.9 || got > 200.1 {
		t.Errorf("volatility with reverse trade = %f, want 200", got)
	}
}

func TestVolatilityDetector(t *testing.T) {
	a := types.Token{Address: types.Address{1}, Symbol: "AAA", Decimals: 18}
	b := types.Token{Address: types.Address{2}, Symbol: "BBB", Decimals: 18}
	buyer := types.RootTag(types.Address{9})
	seller := types.AppTag("DEX")
	small := []types.Trade{
		mkTrade(buyer, seller, 1000, a, 1000, b),
		mkTrade(buyer, seller, 1004, a, 1000, b), // 0.4% move: Harvest-like
	}
	big := []types.Trade{
		mkTrade(buyer, seller, 1000, a, 1000, b),
		mkTrade(buyer, seller, 2500, a, 1000, b), // 150% move
	}
	var det VolatilityDetector
	if det.Detect(small) {
		t.Error("0.4% move flagged at 99% threshold")
	}
	if !det.Detect(big) {
		t.Error("150% move not flagged")
	}
	// A tight threshold catches the slight movement (and would flood with
	// false positives in the wild, which is the paper's point).
	if !(VolatilityDetector{ThresholdPct: 0.1}).Detect(small) {
		t.Error("0.4% move not flagged at 0.1% threshold")
	}
}

// TestVolatilityBaselineMissesHarvest shows the paper's §I critique: the
// volatility-threshold detector cannot see the Harvest attack (0.5% price
// movement) that LeiShen's MBS pattern catches.
func TestVolatilityBaselineMissesHarvest(t *testing.T) {
	sc, ok := attacks.ByName("Harvest Finance")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{})
	rep := det.Inspect(res.Receipt, nil)
	if !rep.IsAttack {
		t.Fatal("LeiShen should catch Harvest")
	}
	var vol VolatilityDetector
	if vol.Detect(rep.Trades) {
		t.Error("99% volatility threshold flagged the Harvest attack; its movement should be far below")
	}
}
