package baselines

import (
	"slices"

	"leishen/internal/core"
	"leishen/internal/dex"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/tagging"
	"leishen/internal/trace"
	"leishen/internal/types"
)

// Explorer is the Explorer+LeiShen baseline: LeiShen's pattern matchers
// fed only with the normalized trade actions venues emit as events —
// modeling Etherscan/BscScan "transaction action" rows. Venues without
// trade events contribute nothing, which caps its recall at 4 of the 22
// known attacks in the paper.
type Explorer struct {
	det *core.Detector
}

// NewExplorer builds the baseline over a chain snapshot.
func NewExplorer(view tagging.ChainView, tokens trace.TokenResolver, th core.Thresholds) *Explorer {
	return &Explorer{det: core.NewDetector(view, tokens, core.Options{Thresholds: th})}
}

// Trades extracts the explorer-visible trade list of a transaction, with
// parties and tokens interned by the baseline's tagger and interner.
func (e *Explorer) Trades(r *evm.Receipt) []types.ITrade {
	if r == nil || !r.Success {
		return nil
	}
	tagger, tokens := e.det.Tagger(), e.det.Interner()
	var out []types.ITrade
	for _, lg := range r.Logs {
		if lg.Event != dex.TradeActionEvent || len(lg.Addrs) != 3 || len(lg.Amounts) != 2 {
			continue
		}
		out = append(out, types.ITrade{
			Kind:       types.TradeSwap,
			Buyer:      tagger.TagIDOf(lg.Addrs[0]),
			Seller:     tagger.TagIDOf(lg.Address),
			AmountSell: lg.Amounts[0],
			TokenSell:  tokens.IDOf(lg.Addrs[1]),
			AmountBuy:  lg.Amounts[1],
			TokenBuy:   tokens.IDOf(lg.Addrs[2]),
			Seq:        lg.Seq,
		})
	}
	return out
}

// Detect runs the LeiShen patterns over the explorer trade list, once
// per distinct flash loan borrower tag.
func (e *Explorer) Detect(r *evm.Receipt) []core.Match {
	loans := flashloan.Identify(r)
	if len(loans) == 0 {
		return nil
	}
	var borrowers []types.TagID
	for _, loan := range loans {
		if id := e.det.Tagger().TagIDOf(loan.Borrower); !slices.Contains(borrowers, id) {
			borrowers = append(borrowers, id)
		}
	}
	return e.det.MatchTrades(e.Trades(r), borrowers, nil)
}
