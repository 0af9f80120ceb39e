package core

import (
	"bytes"
	"slices"
	"testing"

	"leishen/internal/evm"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

var (
	borrower = types.RootTag(types.Address{0xA7})
	victim   = types.AppTag("Uniswap")
	victim2  = types.AppTag("bZx")
	ethT     = types.ETH
	susdT    = types.Token{Address: types.Address{0x5D}, Symbol: "sUSD", Decimals: 18}
	wbtcT    = types.Token{Address: types.Address{0xBB}, Symbol: "WBTC", Decimals: 8}
)

// labelView is a chain snapshot of labeled accounts without creation
// edges: each account tags as its label's application.
type labelView map[types.Address]string

func (v labelView) Labels() map[types.Address]string { return v }

func (labelView) CreationOf(types.Address) (evm.CreationInfo, bool) {
	return evm.CreationInfo{}, false
}

func (v labelView) Accounts() []types.Address {
	out := make([]types.Address, 0, len(v))
	for a := range v {
		out = append(out, a)
	}
	slices.SortFunc(out, func(a, b types.Address) int { return bytes.Compare(a[:], b[:]) })
	return out
}

type tokenTable map[types.Address]types.Token

func (t tokenTable) Resolve(a types.Address) (types.Token, bool) {
	tok, ok := t[a]
	return tok, ok
}

// The pattern tests build interned trades by hand. Each party is one
// account — the borrower an unlabeled one outside the snapshot, so it
// tags as its own root — and patternDet's tagger and interner issue the
// ids, so matches materialize with the tags and tokens the tests name.
var (
	partyAccounts = map[types.Tag]types.Address{
		borrower:              {0xA7},
		victim:                {0x01},
		victim2:               {0x02},
		types.AppTag("Sushi"): {0x03},
		types.AppTag("Noise"): {0x04},
	}
	patternDet = NewDetector(
		labelView{{0x01}: "Uniswap", {0x02}: "bZx", {0x03}: "Sushi", {0x04}: "Noise"},
		tokenTable{susdT.Address: susdT, wbtcT.Address: wbtcT},
		Options{})
)

// tid interns a party's tag through the account that carries it.
func tid(tag types.Tag) types.TagID {
	if tag.IsNone() {
		return types.NoTagID
	}
	addr, ok := partyAccounts[tag]
	if !ok {
		panic("no account carries tag " + tag.String())
	}
	return patternDet.tagger.TagIDOf(addr)
}

// tok interns a token.
func tok(t types.Token) types.TokenID { return patternDet.interner.IDOf(t.Address) }

// swap makes a swap trade where buyer pays sellAmt of sellTok to seller
// for buyAmt of buyTok.
func swap(buyer, seller types.Tag, sellAmt uint64, sellTok types.Token, buyAmt uint64, buyTok types.Token) types.ITrade {
	return types.ITrade{
		Kind: types.TradeSwap, Buyer: tid(buyer), Seller: tid(seller),
		AmountSell: uint256.FromUint64(sellAmt), TokenSell: tok(sellTok),
		AmountBuy: uint256.FromUint64(buyAmt), TokenBuy: tok(buyTok),
	}
}

// buy makes a swap where the borrower pays `sell` ETH for `get` sUSD.
func buy(seller types.Tag, sell, get uint64) types.ITrade {
	return swap(borrower, seller, sell, ethT, get, susdT)
}

// sell makes a swap where the borrower sells `sell` sUSD for `get` ETH.
func sell(seller types.Tag, sellAmt, get uint64) types.ITrade {
	return swap(borrower, seller, sellAmt, susdT, get, ethT)
}

// match runs the detector's one matcher for a single borrower under th.
func match(trades []types.ITrade, borrower types.Tag, th Thresholds) []Match {
	d := *patternDet
	d.opts.Thresholds = th
	return d.MatchTrades(trades, []types.TagID{tid(borrower)}, nil)
}

func kinds(ms []Match) map[PatternKind]bool {
	out := make(map[PatternKind]bool)
	for _, m := range ms {
		out[m.Kind] = true
	}
	return out
}

func TestKRPDetected(t *testing.T) {
	// bZx-2 shape: repeated 20 ETH buys at rising prices, then one sell.
	trades := []types.ITrade{
		buy(victim, 20, 5200), // 0.00385 ETH each
		buy(victim, 20, 4600),
		buy(victim, 20, 4000),
		buy(victim, 20, 3400),
		buy(victim, 20, 2800),
		buy(victim, 20, 2300), // price keeps rising (less sUSD per ETH)
		sell(victim2, 20000, 124),
	}
	ms := match(trades, borrower, DefaultThresholds())
	if !kinds(ms)[PatternKRP] {
		t.Fatalf("KRP not detected: %v", ms)
	}
	var m Match
	for _, c := range ms {
		if c.Kind == PatternKRP {
			m = c
		}
	}
	if m.Rounds < 5 || m.Target.Symbol != "sUSD" || m.Counterparty != victim {
		t.Errorf("match = %+v", m)
	}
	if m.VolatilityPct <= 0 {
		t.Errorf("volatility = %f", m.VolatilityPct)
	}
}

func TestKRPRequiresFiveBuys(t *testing.T) {
	trades := []types.ITrade{
		buy(victim, 20, 5200),
		buy(victim, 20, 4600),
		buy(victim, 20, 4000),
		buy(victim, 20, 3400),
		sell(victim2, 17200, 90),
	}
	ms := match(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternKRP] {
		t.Errorf("KRP detected with only 4 buys: %v", ms)
	}
	// Exactly five rising buys reach the threshold.
	five := append(slices.Clone(trades[:4]), buy(victim, 20, 2800), sell(victim2, 20000, 124))
	if ms := match(five, borrower, DefaultThresholds()); !kinds(ms)[PatternKRP] {
		t.Errorf("KRP missed with exactly 5 buys: %v", ms)
	}
	// Lowering the threshold to 3 (the paper's §VII relaxation) detects it.
	th := DefaultThresholds()
	th.KRPMinBuys = 3
	ms = match(trades, borrower, th)
	if !kinds(ms)[PatternKRP] {
		t.Errorf("relaxed KRP missed: %v", ms)
	}
}

func TestKRPRequiresSameSeller(t *testing.T) {
	other := types.AppTag("Sushi")
	trades := []types.ITrade{
		buy(victim, 20, 5200),
		buy(victim, 20, 4600),
		buy(other, 20, 4000), // breaks the run
		buy(victim, 20, 3400),
		buy(victim, 20, 2800),
		buy(victim, 20, 2300),
		sell(victim2, 20300, 124),
	}
	ms := match(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternKRP] {
		t.Errorf("KRP detected across different sellers: %v", ms)
	}
}

func TestKRPRequiresRisingPrice(t *testing.T) {
	trades := []types.ITrade{
		buy(victim, 20, 5200),
		buy(victim, 20, 5200), // flat, not rising
		buy(victim, 20, 5200),
		buy(victim, 20, 5200),
		buy(victim, 20, 5200),
		buy(victim, 20, 5200),
		sell(victim2, 31200, 120),
	}
	ms := match(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternKRP] {
		t.Errorf("KRP detected with flat prices: %v", ms)
	}
}

func TestSBSDetected(t *testing.T) {
	// bZx-1 shape: borrower buys 112 WBTC for 5500 ETH, victim pumps
	// (buys at a much higher rate), borrower sells the same 112 WBTC.
	t1 := swap(borrower, victim2, 5500, ethT, 112, wbtcT)
	t2 := swap(victim2, victim, 5637, ethT, 51, wbtcT)   // 110.5 ETH/WBTC
	t3 := swap(borrower, victim, 112, wbtcT, 6871, ethT) // 61.3 ETH/WBTC
	ms := match([]types.ITrade{t1, t2, t3}, borrower, DefaultThresholds())
	if !kinds(ms)[PatternSBS] {
		t.Fatalf("SBS not detected: %v", ms)
	}
}

func TestSBSRejectsAsymmetricAmounts(t *testing.T) {
	t1 := swap(borrower, victim2, 5500, ethT, 112, wbtcT)
	t2 := swap(victim2, victim, 5637, ethT, 51, wbtcT)
	// Sells far less than bought: not symmetric.
	t3 := swap(borrower, victim, 50, wbtcT, 3067, ethT)
	ms := match([]types.ITrade{t1, t2, t3}, borrower, DefaultThresholds())
	if kinds(ms)[PatternSBS] {
		t.Errorf("SBS detected without symmetric amounts: %v", ms)
	}
}

func TestSBSVolatilityThreshold(t *testing.T) {
	mk := func(pumpSell uint64) []types.ITrade {
		return []types.ITrade{
			swap(borrower, victim2, 49100, ethT, 1000, wbtcT),  // 49.1
			swap(victim2, victim, pumpSell, ethT, 1000, wbtcT), // the pump
			swap(borrower, victim, 1000, wbtcT, 55000, ethT),   // 55.0
		}
	}
	// Pump to 49.1 * 1.28 = 62.848 exactly (49100·12800 = 62848·10⁴):
	// at threshold.
	ms := match(mk(62848), borrower, DefaultThresholds())
	if !kinds(ms)[PatternSBS] {
		t.Errorf("SBS at 28%% volatility not detected")
	}
	// One unit below 28%, and a pump of only 10%: below threshold. (Sell
	// rate must stay between.)
	for _, pump := range []uint64{62847, 56000} {
		if ms := match(mk(pump), borrower, DefaultThresholds()); kinds(ms)[PatternSBS] {
			t.Errorf("SBS below volatility threshold detected (pump %d)", pump)
		}
	}
}

func TestMBSDetected(t *testing.T) {
	// Harvest shape: three profitable buy/sell rounds against one seller.
	trades := []types.ITrade{
		buy(victim, 49977468, 51456280),
		sell(victim, 51456280, 50298684),
		buy(victim, 49977468, 51456280),
		sell(victim, 51456280, 50298684),
		buy(victim, 49977468, 51456280),
		sell(victim, 51456280, 50298684),
	}
	ms := match(trades, borrower, DefaultThresholds())
	if !kinds(ms)[PatternMBS] {
		t.Fatalf("MBS not detected: %v", ms)
	}
	for _, m := range ms {
		if m.Kind == PatternMBS {
			if m.Rounds != 3 || m.Counterparty != victim {
				t.Errorf("match = %+v", m)
			}
			// Harvest's famous tiny volatility: < 5%.
			if m.VolatilityPct <= 0 || m.VolatilityPct > 5 {
				t.Errorf("volatility = %f%%, want small", m.VolatilityPct)
			}
		}
	}
}

func TestMBSRequiresThreeProfitableRounds(t *testing.T) {
	trades := []types.ITrade{
		buy(victim, 1000, 1030),
		sell(victim, 1030, 1010),
		buy(victim, 1000, 1030),
		sell(victim, 1030, 1010),
	}
	ms := match(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternMBS] {
		t.Errorf("MBS with 2 rounds detected: %v", ms)
	}
	// Unprofitable rounds never count, no matter how many.
	lossy := []types.ITrade{
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
		buy(victim, 1000, 1000), sell(victim, 1000, 990),
	}
	ms = match(lossy, borrower, DefaultThresholds())
	if kinds(ms)[PatternMBS] {
		t.Errorf("MBS with lossy rounds detected: %v", ms)
	}
}

func TestMBSRequiresSameSeller(t *testing.T) {
	other := types.AppTag("Sushi")
	trades := []types.ITrade{
		buy(victim, 1000, 1030), sell(other, 1030, 1010),
		buy(victim, 1000, 1030), sell(other, 1030, 1010),
		buy(victim, 1000, 1030), sell(other, 1030, 1010),
	}
	ms := match(trades, borrower, DefaultThresholds())
	if kinds(ms)[PatternMBS] {
		t.Errorf("MBS across different sellers detected: %v", ms)
	}
}

func TestNoTagBorrowerMatchesNothing(t *testing.T) {
	trades := []types.ITrade{
		buy(victim, 1000, 1030), sell(victim, 1030, 1010),
	}
	if ms := match(trades, types.NoTag(), DefaultThresholds()); len(ms) != 0 {
		t.Errorf("matches for untaggable borrower: %v", ms)
	}
}

func TestBenignTradesNoMatch(t *testing.T) {
	// A simple arbitrage: buy once, sell once, profit — none of the
	// patterns (no pump, one round, no batch).
	trades := []types.ITrade{
		buy(victim, 1000, 1030),
		sell(victim2, 1030, 1020),
	}
	if ms := match(trades, borrower, DefaultThresholds()); len(ms) != 0 {
		t.Errorf("benign arb matched: %v", ms)
	}
}

func TestVolatilityFormula(t *testing.T) {
	// Two trades at rates 0.0038 and 0.009 ETH/sUSD: volatility ~136%.
	trades := []types.ITrade{
		buy(victim, 38, 10000),
		buy(victim, 90, 10000),
	}
	got := tradeVolatilityPct(trades, tok(susdT))
	if got < 130 || got > 142 {
		t.Errorf("volatility = %f, want ~136", got)
	}
	if v := tradeVolatilityPct(nil, tok(susdT)); v != 0 {
		t.Errorf("empty volatility = %f", v)
	}
}

func TestPatternKindString(t *testing.T) {
	if PatternKRP.String() != "KRP" || PatternSBS.String() != "SBS" || PatternMBS.String() != "MBS" {
		t.Error("pattern names wrong")
	}
	if PatternKind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}
