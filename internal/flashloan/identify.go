// Package flashloan identifies flash loan transactions from the three
// providers of paper Table II:
//
//	Uniswap:  swap call followed by a uniswapV2Call callback
//	AAVE:     flashLoan call emitting a FlashLoan event
//	dYdX:     Operate composing Withdraw/Call/Deposit, emitting
//	          LogOperation, LogWithdraw, LogCall, LogDeposit
//
// Identification is the entry gate of the pipeline: only transactions with
// at least one identified flash loan proceed to transfer extraction.
package flashloan

import (
	"fmt"
	"sync"

	"leishen/internal/evm"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// Provider enumerates flash loan sources.
type Provider int

// Providers.
const (
	// ProviderUniswap is a Uniswap V2-style flash swap.
	ProviderUniswap Provider = iota + 1
	// ProviderAave is an AAVE-style flashLoan call.
	ProviderAave
	// ProviderDydx is a dYdX solo-margin operate composition.
	ProviderDydx
)

// String names the provider.
func (p Provider) String() string {
	switch p {
	case ProviderUniswap:
		return "Uniswap"
	case ProviderAave:
		return "AAVE"
	case ProviderDydx:
		return "dYdX"
	default:
		return fmt.Sprintf("Provider(%d)", int(p))
	}
}

// Loan describes one identified flash loan inside a transaction.
type Loan struct {
	// Provider is the lending venue.
	Provider Provider
	// Lender is the providing contract (pair / pool / solo margin).
	Lender types.Address
	// Borrower is the receiving contract (the flash loan borrower whose
	// trades the attack patterns are matched against).
	Borrower types.Address
	// Token is the borrowed asset's contract address.
	Token types.Address
	// Amount is the borrowed quantity in base units.
	Amount uint256.Int
	// Seq is the happened-before position of the lending transfer.
	Seq uint64
}

// Identify scans a receipt for flash loans from all three providers. A
// transaction may contain several (seven of the 44 studied attacks
// borrowed from more than one provider at once).
//
// The marker pre-scan makes the non-flash-loan majority allocation-free:
// a receipt with no provider marker returns nil without building any
// intermediate state, which is what keeps corpus scanning cheap.
func Identify(r *evm.Receipt) []Loan {
	if r == nil || !r.Success {
		return nil
	}
	uniswap, aave, dydx := markers(r)
	if !uniswap && !aave && !dydx {
		return nil
	}
	var loans []Loan
	if uniswap {
		loans = identifyUniswapInto(loans, r)
	}
	if aave {
		loans = identifyAaveInto(loans, r)
	}
	if dydx {
		loans = append(loans, identifyDydx(r)...)
	}
	return loans
}

// markers reports, without allocating, which providers' entry markers
// appear in the receipt: a uniswapV2Call callback frame, a FlashLoan
// event, or a LogOperation event.
func markers(r *evm.Receipt) (uniswap, aave, dydx bool) {
	for i := range r.InternalTxs {
		if r.InternalTxs[i].Method == "uniswapV2Call" {
			uniswap = true
			break
		}
	}
	for i := range r.Logs {
		switch r.Logs[i].Event {
		case "FlashLoan":
			aave = true
		case "LogOperation":
			dydx = true
		}
		if aave && dydx {
			break
		}
	}
	return uniswap, aave, dydx
}

// HasMarker reports, without allocating or identifying, whether a
// successful receipt carries any provider's entry marker — the cheap
// superset screen in front of full identification. Every receipt
// IsFlashLoanTx accepts has a marker; a marker alone (a callback
// without its swap frame, a FlashLoan event with too few arguments)
// does not make a loan, so a caller that needs loans still identifies.
func HasMarker(r *evm.Receipt) bool {
	if r == nil || !r.Success {
		return false
	}
	uniswap, aave, dydx := markers(r)
	return uniswap || aave || dydx
}

// IsFlashLoanTx reports whether the transaction contains any flash loan.
// It identifies into a pooled Scratch, so screening a block allocates
// nothing per receipt.
func IsFlashLoanTx(r *evm.Receipt) bool {
	s := screenScratch.Get().(*Scratch)
	found := len(IdentifyScratch(r, s)) > 0
	screenScratch.Put(s)
	return found
}

// screenScratch pools IsFlashLoanTx's working buffers. A Scratch holds
// no pointers into a receipt, so a pooled one retains nothing.
var screenScratch = sync.Pool{New: func() any { return new(Scratch) }}

// identifyUniswapInto finds swap frames whose recipient is called back
// via uniswapV2Call within the same pair call, and recovers the
// borrowed amount from the Transfer logs emitted between the two
// frames, appending the loans to dst.
func identifyUniswapInto(loans []Loan, r *evm.Receipt) []Loan {
	for i := range r.InternalTxs {
		it := &r.InternalTxs[i]
		if it.Method != "uniswapV2Call" {
			continue
		}
		// The caller of uniswapV2Call is the pair; the callee is the
		// borrower. Find the swap frame on the same pair that precedes
		// this callback.
		pair, borrower := it.From, it.To
		var swapSeq uint64
		var found bool
		for j := range r.InternalTxs {
			s := &r.InternalTxs[j]
			if s.Method == "swap" && s.To == pair && s.Seq < it.Seq {
				swapSeq, found = s.Seq, true
			}
		}
		if !found {
			continue
		}
		// Borrowed assets: Transfer logs from the pair to the borrower
		// between the swap call and the callback.
		for j := range r.Logs {
			lg := &r.Logs[j]
			if lg.Event != "Transfer" || lg.Seq <= swapSeq || lg.Seq >= it.Seq {
				continue
			}
			if len(lg.Addrs) == 2 && lg.Addrs[0] == pair && lg.Addrs[1] == borrower && len(lg.Amounts) == 1 {
				loans = append(loans, Loan{
					Provider: ProviderUniswap,
					Lender:   pair,
					Borrower: borrower,
					Token:    lg.Address,
					Amount:   lg.Amounts[0],
					Seq:      lg.Seq,
				})
			}
		}
	}
	return loans
}

// identifyAaveInto matches FlashLoan events, appending to dst.
func identifyAaveInto(loans []Loan, r *evm.Receipt) []Loan {
	for i := range r.Logs {
		lg := &r.Logs[i]
		if lg.Event != "FlashLoan" || len(lg.Addrs) < 2 || len(lg.Amounts) < 1 {
			continue
		}
		loans = append(loans, Loan{
			Provider: ProviderAave,
			Lender:   lg.Address,
			Borrower: lg.Addrs[0],
			Token:    lg.Addrs[1],
			Amount:   lg.Amounts[0],
			Seq:      lg.Seq,
		})
	}
	return loans
}

// identifyDydx matches the LogOperation / LogWithdraw / LogCall /
// LogDeposit sequence emitted by the same solo-margin contract.
func identifyDydx(r *evm.Receipt) []Loan {
	// Group the four log kinds by emitting contract, in order.
	type pending struct {
		withdraw *evm.Log
		sawCall  bool
	}
	state := make(map[types.Address]*pending)
	var loans []Loan
	for i := range r.Logs {
		lg := &r.Logs[i]
		switch lg.Event {
		case "LogOperation":
			state[lg.Address] = &pending{}
		case "LogWithdraw":
			if p, ok := state[lg.Address]; ok {
				p.withdraw = lg
				p.sawCall = false
			}
		case "LogCall":
			if p, ok := state[lg.Address]; ok && p.withdraw != nil {
				p.sawCall = true
			}
		case "LogDeposit":
			p, ok := state[lg.Address]
			if !ok || p.withdraw == nil || !p.sawCall {
				continue
			}
			w := p.withdraw
			if len(w.Addrs) >= 2 && len(w.Amounts) >= 1 {
				loans = append(loans, Loan{
					Provider: ProviderDydx,
					Lender:   lg.Address,
					Borrower: w.Addrs[0],
					Token:    w.Addrs[1],
					Amount:   w.Amounts[0],
					Seq:      w.Seq,
				})
			}
			p.withdraw = nil
			p.sawCall = false
		}
	}
	return loans
}
