package core

import (
	"encoding/json"
	"math/rand"
	"testing"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

// krpTrades is a canonical KRP-positive trade list (from the unit tests).
func krpTrades() []types.ITrade {
	return []types.ITrade{
		buy(victim, 20, 5200), buy(victim, 20, 4600), buy(victim, 20, 4000),
		buy(victim, 20, 3400), buy(victim, 20, 2800), buy(victim, 20, 2300),
		sell(victim2, 20000, 124),
	}
}

// mbsTrades is a canonical MBS-positive trade list.
func mbsTrades() []types.ITrade {
	return []types.ITrade{
		buy(victim, 1000, 1030), sell(victim, 1030, 1010),
		buy(victim, 1000, 1030), sell(victim, 1030, 1010),
		buy(victim, 1000, 1030), sell(victim, 1030, 1010),
	}
}

// noiseTrade builds a trade on an unrelated token pair by an unrelated
// party — the benign traffic surrounding an attack inside a transaction.
func noiseTrade(rng *rand.Rand) types.ITrade {
	tokA := types.Token{Address: types.Address{0xA0, byte(rng.Intn(200))}}
	tokB := types.Token{Address: types.Address{0xA1, byte(rng.Intn(200) + 1)}}
	return types.ITrade{
		Kind:       types.TradeSwap,
		Buyer:      patternDet.tagger.TagIDOf(types.Address{0xB0, byte(rng.Intn(200) + 2)}),
		Seller:     tid(types.AppTag("Noise")),
		AmountSell: uint256.FromUint64(rng.Uint64()%10000 + 1),
		TokenSell:  tok(tokA),
		AmountBuy:  uint256.FromUint64(rng.Uint64()%10000 + 1),
		TokenBuy:   tok(tokB),
	}
}

// TestPropertyNoiseInvariance: inserting unrelated trades anywhere in the
// list never destroys an existing match (detection must survive busy
// transactions — real attacks interleave with routing and fee transfers).
func TestPropertyNoiseInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[PatternKind][]types.ITrade{
		PatternKRP: krpTrades(),
		PatternMBS: mbsTrades(),
	}
	for kind, base := range cases {
		for trial := 0; trial < 100; trial++ {
			noisy := make([]types.ITrade, 0, len(base)+4)
			for _, tr := range base {
				for rng.Intn(3) == 0 {
					noisy = append(noisy, noiseTrade(rng))
				}
				noisy = append(noisy, tr)
			}
			ms := match(noisy, borrower, DefaultThresholds())
			if !kinds(ms)[kind] {
				t.Fatalf("%s lost under noise (trial %d): %v", kind, trial, noisy)
			}
		}
	}
}

// TestPropertyScaleInvariance: multiplying all amounts by a constant
// preserves every match — the matchers are pure rate conditions.
func TestPropertyScaleInvariance(t *testing.T) {
	scale := func(list []types.ITrade, k uint64) []types.ITrade {
		out := make([]types.ITrade, len(list))
		for i, tr := range list {
			tr.AmountSell = tr.AmountSell.MustMul(uint256.FromUint64(k))
			tr.AmountBuy = tr.AmountBuy.MustMul(uint256.FromUint64(k))
			out[i] = tr
		}
		return out
	}
	for _, k := range []uint64{2, 1000, 1_000_000_000_000} {
		for name, base := range map[PatternKind][]types.ITrade{
			PatternKRP: krpTrades(),
			PatternMBS: mbsTrades(),
		} {
			ms := match(scale(base, k), borrower, DefaultThresholds())
			if !kinds(ms)[name] {
				t.Errorf("%s lost at scale %d", name, k)
			}
		}
	}
}

// TestPropertyPrefixSafety: a prefix of an attack (the attack cut short
// before its sell leg) never matches — matchers require the completed
// shape.
func TestPropertyPrefixSafety(t *testing.T) {
	krp := krpTrades()
	for cut := 0; cut < len(krp); cut++ {
		ms := match(krp[:cut], borrower, DefaultThresholds())
		if len(ms) != 0 {
			t.Errorf("KRP prefix of %d trades matched: %v", cut, ms)
		}
	}
	mbs := mbsTrades()
	for cut := 0; cut < 5; cut++ { // below 3 complete rounds
		ms := match(mbs[:cut], borrower, DefaultThresholds())
		if len(ms) != 0 {
			t.Errorf("MBS prefix of %d trades matched: %v", cut, ms)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	ms := match(krpTrades(), borrower, DefaultThresholds())
	if len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
	rep := &Report{
		TxHash:   types.HashFromData([]byte("x")),
		Block:    7,
		IsAttack: true,
		Trades:   ms[0].Trades,
		Matches:  ms,
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ReportJSON
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.IsAttack || decoded.Block != 7 {
		t.Errorf("decoded = %+v", decoded)
	}
	if len(decoded.Matches) != 1 || decoded.Matches[0].Pattern != "KRP" || decoded.Matches[0].Trades != 7 {
		t.Errorf("matches = %+v", decoded.Matches)
	}
	if len(decoded.Trades) != 7 || decoded.Trades[0].AmountSell.Uint64() != 20 {
		t.Errorf("trades = %+v", decoded.Trades)
	}
}
