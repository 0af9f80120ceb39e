// Package baselines reimplements the detectors paper Table IV compares
// LeiShen against:
//
//   - DeFiRanger (Wu et al.): price manipulation detection on
//     account-level asset transfers — no application tagging, no
//     inter-app merging — so trades routed through intermediaries or
//     executed by victim platforms on the attacker's behalf are invisible
//     to it.
//   - Explorer+LeiShen: LeiShen's pattern matching over the normalized
//     trade actions explorers derive from event logs; venues that emit no
//     trade events are invisible to it.
//   - Volatility threshold (Xue et al.): flag any transaction moving a
//     pair's price beyond a fixed threshold; attacks with slight price
//     movements (Harvest's 0.5%) escape it.
package baselines

import (
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/trace"
	"leishen/internal/trades"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// DeFiRanger detects price manipulation on account-level transfers.
type DeFiRanger struct {
	tokens *trace.Interner
	weth   types.Address
}

// NewDeFiRanger builds the baseline over a token resolver.
func NewDeFiRanger(tokens trace.TokenResolver, weth types.Token) *DeFiRanger {
	return &DeFiRanger{tokens: trace.NewInterner(tokens), weth: weth.Address}
}

// Detect reports whether the transaction contains a profitable
// buy-then-sell round of one token by the flash loan borrower against a
// single counterparty account.
func (d *DeFiRanger) Detect(r *evm.Receipt) bool {
	loans := flashloan.Identify(r)
	if len(loans) == 0 {
		return false
	}
	transfers := trace.ExtractInterned(nil, d.tokens, r)

	// Account-level lifting: every account is its own party (ids issued
	// per address, never NoTagID), WETH unified with ETH and wrap/unwrap
	// legs against the WETH contract dropped (DeFiRanger understands
	// WETH), but no application tagging and no merging.
	accounts := make(map[types.Address]types.TagID)
	party := func(a types.Address) types.TagID {
		id, ok := accounts[a]
		if !ok {
			id = types.TagID(len(accounts) + 1)
			accounts[a] = id
		}
		return id
	}
	weth := d.tokens.IDOf(d.weth)
	lifted := transfers[:0]
	for _, t := range transfers {
		if t.Sender == d.weth || t.Receiver == d.weth {
			continue
		}
		if t.Token == weth {
			t.Token = types.ETHTokenID
		}
		t.SenderTag, t.ReceiverTag = party(t.Sender), party(t.Receiver)
		t.FromBlackHole, t.ToBlackHole = t.Sender.IsZero(), t.Receiver.IsZero()
		lifted = append(lifted, t)
	}
	tradeList := trades.IdentifyInterned(nil, lifted)

	for _, loan := range loans {
		if profitableRound(tradeList, party(loan.Borrower)) {
			return true
		}
	}
	return false
}

// profitableRound looks for buy trade b and later sell trade s of the
// same token, by the borrower, against the same counterparty account,
// with sell rate above buy rate.
func profitableRound(list []types.ITrade, borrower types.TagID) bool {
	for i, b := range list {
		if b.Buyer != borrower {
			continue
		}
		for _, s := range list[i+1:] {
			if s.Buyer != borrower || s.Seller != b.Seller || s.TokenSell != b.TokenBuy {
				continue
			}
			// buyRate = b.AmountSell/b.AmountBuy < sellRate = s.AmountBuy/s.AmountSell
			if uint256.CmpProducts(b.AmountSell, s.AmountSell, s.AmountBuy, b.AmountBuy) < 0 {
				return true
			}
		}
	}
	return false
}
