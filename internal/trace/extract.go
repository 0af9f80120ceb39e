// Package trace extracts the account-level asset transfer history of a
// transaction (paper §V-A).
//
// Ether transfers live in internal transactions and ERC20 transfers live
// in event logs; the paper's authors patched Geth v1.10.14 to record the
// happened-before relationship between the two streams. Our EVM substrate
// stamps both with one global sequence counter, so extraction is a
// sequence-ordered merge.
package trace

import (
	"slices"

	"leishen/internal/evm"
	"leishen/internal/types"
)

// TokenResolver maps token contract addresses to metadata; the token
// registry implements it.
type TokenResolver interface {
	Resolve(addr types.Address) (types.Token, bool)
}

// ExtractInterned appends the transaction's asset transfers to dst in
// happened-before order, T_i = (sender, receiver, amount, token), with
// token identities interned by in, and returns the grown slice (pass dst[:0]
// to recycle a buffer). Failed transactions have no committed
// transfers. The substrate records internal transactions and logs
// each in ascending sequence order, so the two streams merge with two
// pointers instead of a sort; a defensive sortedness check falls back
// to the sort if a receipt ever violates that (the sequence counter is
// unique per transaction, so any comparison sort yields one order).
func ExtractInterned(dst []types.ITransfer, in *Interner, r *evm.Receipt) []types.ITransfer {
	if r == nil || !r.Success {
		return dst
	}
	start := len(dst)
	out := slices.Grow(dst, len(r.Logs)+len(r.InternalTxs))
	its, lgs := r.InternalTxs, r.Logs
	i, j := 0, 0
	for {
		// Skip entries that do not move assets: zero-value internal
		// transactions and non-Transfer logs.
		for i < len(its) && its[i].Value.IsZero() {
			i++
		}
		for j < len(lgs) && !isERC20Transfer(&lgs[j]) {
			j++
		}
		if i >= len(its) && j >= len(lgs) {
			break
		}
		if j >= len(lgs) || (i < len(its) && its[i].Seq < lgs[j].Seq) {
			it := &its[i]
			out = append(out, types.ITransfer{
				Seq:      it.Seq,
				Sender:   it.From,
				Receiver: it.To,
				Amount:   it.Value,
				Token:    types.ETHTokenID,
			})
			i++
		} else {
			lg := &lgs[j]
			out = append(out, types.ITransfer{
				Seq:      lg.Seq,
				Sender:   lg.Addrs[0],
				Receiver: lg.Addrs[1],
				Amount:   lg.Amounts[0],
				Token:    in.IDOf(lg.Address),
			})
			j++
		}
	}
	tail := out[start:]
	for k := 1; k < len(tail); k++ {
		if tail[k].Seq < tail[k-1].Seq {
			slices.SortFunc(tail, func(a, b types.ITransfer) int {
				switch {
				case a.Seq < b.Seq:
					return -1
				case a.Seq > b.Seq:
					return 1
				default:
					return 0
				}
			})
			break
		}
	}
	return out
}

func isERC20Transfer(lg *evm.Log) bool {
	return lg.Event == "Transfer" && len(lg.Addrs) == 2 && len(lg.Amounts) == 1
}
