package trades

import (
	"testing"
	"testing/quick"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

// The tests' parties and tokens, as ids the tagger and the token
// interner would issue (ETH at its reserved id).
const (
	tagA types.TagID = iota + 1 // the attacker
	tagB                        // Uniswap
	tagC                        // another application
)

const (
	ethT = types.ETHTokenID
	btcT = types.TokenID(1)
	lpT  = types.TokenID(2)
	sndT = types.TokenID(3)
)

func at(seq uint64, from, to types.TagID, amount uint64, tok types.TokenID) types.ITransfer {
	return types.ITransfer{Seq: seq, SenderTag: from, ReceiverTag: to, Amount: uint256.FromUint64(amount), Token: tok}
}

func mint(seq uint64, to types.TagID, amount uint64, tok types.TokenID) types.ITransfer {
	return types.ITransfer{Seq: seq, ReceiverTag: to, FromBlackHole: true, Amount: uint256.FromUint64(amount), Token: tok}
}

func burn(seq uint64, from types.TagID, amount uint64, tok types.TokenID) types.ITransfer {
	return types.ITransfer{Seq: seq, SenderTag: from, ToBlackHole: true, Amount: uint256.FromUint64(amount), Token: tok}
}

// identify runs trade identification into a fresh slice.
func identify(ts []types.ITransfer) []types.ITrade { return IdentifyInterned(nil, ts) }

func TestSwapTwoTransfers(t *testing.T) {
	in := []types.ITransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 2, btcT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeSwap || tr.Buyer != tagA || tr.Seller != tagB {
		t.Errorf("trade = %+v", tr)
	}
	if tr.AmountSell.Uint64() != 100 || tr.AmountBuy.Uint64() != 2 {
		t.Errorf("amounts = %s / %s", tr.AmountSell, tr.AmountBuy)
	}
	if tr.TokenSell != ethT || tr.TokenBuy != btcT {
		t.Errorf("tokens = %d / %d", tr.TokenSell, tr.TokenBuy)
	}
}

func TestSwapThreeTransfers(t *testing.T) {
	in := []types.ITransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 2, btcT),
		at(2, tagB, tagA, 7, sndT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeSwap || tr.SecondaryKind != types.SecondaryIsBuy {
		t.Fatalf("trade = %+v", tr)
	}
	if tr.Secondary.Amount.Uint64() != 7 || tr.Secondary.Token != sndT {
		t.Errorf("secondary = %+v", tr.Secondary)
	}
}

func TestMintTwoAndReversed(t *testing.T) {
	in := []types.ITransfer{
		at(0, tagA, tagB, 100, ethT),
		mint(1, tagA, 50, lpT),
	}
	got := identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeMint {
		t.Fatalf("trades = %v", got)
	}
	if got[0].TokenBuy != lpT || got[0].AmountBuy.Uint64() != 50 {
		t.Errorf("mint = %+v", got[0])
	}
	// Reversed order condition from Table III.
	in = []types.ITransfer{
		mint(0, tagA, 50, lpT),
		at(1, tagA, tagB, 100, ethT),
	}
	got = identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeMint {
		t.Fatalf("reversed mint = %v", got)
	}
}

func TestMintThreeTransfers(t *testing.T) {
	in := []types.ITransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagA, tagB, 2, btcT),
		mint(2, tagA, 50, lpT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeMint || tr.SecondaryKind != types.SecondaryIsSell {
		t.Fatalf("trade = %+v", tr)
	}
	if tr.Secondary.Token != btcT {
		t.Errorf("secondary sell = %+v", tr.Secondary)
	}
	if tr.TokenBuy != lpT {
		t.Errorf("buy = %d", tr.TokenBuy)
	}
}

func TestRemoveTwoAndReversed(t *testing.T) {
	in := []types.ITransfer{
		burn(0, tagA, 50, lpT),
		at(1, tagB, tagA, 100, ethT),
	}
	got := identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeRemove {
		t.Fatalf("trades = %v", got)
	}
	if got[0].Seller != tagB || got[0].TokenSell != lpT {
		t.Errorf("remove = %+v", got[0])
	}
	// Reversed.
	in = []types.ITransfer{
		at(0, tagB, tagA, 100, ethT),
		burn(1, tagA, 50, lpT),
	}
	got = identify(in)
	if len(got) != 1 || got[0].Kind != types.TradeRemove {
		t.Fatalf("reversed remove = %v", got)
	}
}

func TestRemoveThreeTransfers(t *testing.T) {
	in := []types.ITransfer{
		burn(0, tagA, 50, lpT),
		at(1, tagB, tagA, 100, ethT),
		at(2, tagB, tagA, 2, btcT),
	}
	got := identify(in)
	if len(got) != 1 {
		t.Fatalf("trades = %v", got)
	}
	tr := got[0]
	if tr.Kind != types.TradeRemove || tr.SecondaryKind != types.SecondaryIsBuy {
		t.Fatalf("trade = %+v", tr)
	}
	if tr.Secondary.Token != btcT {
		t.Errorf("secondary = %+v", tr.Secondary)
	}
}

func TestGreedyConsumption(t *testing.T) {
	// Two back-to-back swaps: each consumes its own transfers.
	in := []types.ITransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 2, btcT),
		at(2, tagA, tagB, 200, ethT),
		at(3, tagB, tagA, 3, btcT),
	}
	got := identify(in)
	if len(got) != 2 {
		t.Fatalf("trades = %v", got)
	}
	if got[0].AmountSell.Uint64() != 100 || got[1].AmountSell.Uint64() != 200 {
		t.Errorf("order wrong: %v", got)
	}
}

func TestSameTokenNoTrade(t *testing.T) {
	in := []types.ITransfer{
		at(0, tagA, tagB, 100, ethT),
		at(1, tagB, tagA, 90, ethT), // same token both ways: no swap
	}
	if got := identify(in); len(got) != 0 {
		t.Errorf("trades = %v", got)
	}
}

func TestUntaggablepartiesBlockTrades(t *testing.T) {
	// The JulSwap / PancakeHunny failure mode: untaggable endpoints.
	in := []types.ITransfer{
		at(0, types.NoTagID, tagB, 100, ethT),
		at(1, tagB, types.NoTagID, 2, btcT),
	}
	if got := identify(in); len(got) != 0 {
		t.Errorf("trades with untaggable parties = %v", got)
	}
}

func TestUnmatchedTransfersSkipped(t *testing.T) {
	in := []types.ITransfer{
		at(0, tagA, tagB, 100, ethT), // no reply: plain payment
		at(1, tagC, tagA, 5, btcT),   // unrelated
		at(2, tagA, tagB, 100, ethT), // swap starts here
		at(3, tagB, tagA, 2, btcT),
	}
	got := identify(in)
	if len(got) != 1 || got[0].Seq != 2 {
		t.Errorf("trades = %v", got)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := identify(nil); len(got) != 0 {
		t.Errorf("nil input: %v", got)
	}
	if got := identify([]types.ITransfer{at(0, tagA, tagB, 1, ethT)}); len(got) != 0 {
		t.Errorf("single transfer: %v", got)
	}
}

// TestQuickIdentifyProperties fuzzes random transfer lists: identification
// never panics, never produces more trades than transfers/2, and every
// trade's seq comes from an input transfer.
func TestQuickIdentifyProperties(t *testing.T) {
	tags := []types.TagID{tagA, tagB, tagC, types.NoTagID}
	toks := []types.TokenID{ethT, btcT, lpT, sndT}
	f := func(raw []uint16) bool {
		var in []types.ITransfer
		for i, r := range raw {
			if i >= 30 {
				break
			}
			tr := at(uint64(i), tags[int(r)%len(tags)], tags[int(r>>2)%len(tags)],
				uint64(r)%500+1, toks[int(r>>4)%len(toks)])
			switch r % 11 {
			case 0:
				tr.FromBlackHole = true
			case 1:
				tr.ToBlackHole = true
			}
			in = append(in, tr)
		}
		out := identify(in)
		if len(out) > len(in)/2 {
			return false
		}
		seqs := map[uint64]bool{}
		for _, tr := range in {
			seqs[tr.Seq] = true
		}
		for _, tr := range out {
			if !seqs[tr.Seq] {
				return false
			}
			if tr.AmountSell.IsZero() && tr.AmountBuy.IsZero() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
