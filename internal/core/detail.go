package core

import (
	"strconv"
)

// Append-form report rendering. AppendDetail produces exactly the bytes
// of the historical fmt-based Detail, but into a caller-owned buffer so
// steady-state scanning and serving render reports without per-fragment
// allocations (Arena.DetailInto reuses one buffer across transactions).
// TestCorpusDetailGolden pins byte equality against an fmt
// re-rendering (fmtDetail) over a full corpus.

// AppendString appends the match's report line (String).
func (m Match) AppendString(dst []byte) []byte {
	dst = append(dst, m.Kind.String()...)
	dst = append(dst, " on "...)
	dst = append(dst, m.Target.Symbol...)
	dst = append(dst, " vs "...)
	dst = m.Counterparty.AppendString(dst)
	dst = append(dst, " ("...)
	dst = strconv.AppendInt(dst, int64(len(m.Trades)), 10)
	dst = append(dst, " trades, volatility "...)
	dst = strconv.AppendFloat(dst, m.VolatilityPct, 'f', 2, 64)
	return append(dst, '%', ')')
}

// AppendDetail appends the full multi-section report text (Detail).
func (r *Report) AppendDetail(dst []byte) []byte {
	dst = append(dst, "transaction "...)
	dst = r.TxHash.AppendHex(dst)
	dst = append(dst, " (block "...)
	dst = strconv.AppendUint(dst, r.Block, 10)
	dst = append(dst, ")\n"...)

	dst = append(dst, "flash loans: "...)
	dst = strconv.AppendInt(dst, int64(len(r.Loans)), 10)
	dst = append(dst, '\n')
	for i := range r.Loans {
		l := &r.Loans[i]
		dst = append(dst, ' ', ' ')
		dst = append(dst, l.Provider.String()...)
		dst = append(dst, " lends "...)
		dst = l.Amount.AppendDecimal(dst)
		dst = append(dst, " of token "...)
		dst = l.Token.AppendShort(dst)
		dst = append(dst, " to "...)
		dst = l.Borrower.AppendShort(dst)
		dst = append(dst, '\n')
	}

	dst = append(dst, "account-level transfers: "...)
	dst = strconv.AppendInt(dst, int64(len(r.Transfers)), 10)
	dst = append(dst, '\n')

	dst = append(dst, "app-level transfers: "...)
	dst = strconv.AppendInt(dst, int64(len(r.AppTransfers)), 10)
	dst = append(dst, '\n')
	for i := range r.AppTransfers {
		dst = append(dst, ' ', ' ')
		dst = r.AppTransfers[i].AppendString(dst)
		dst = append(dst, '\n')
	}

	dst = append(dst, "trades: "...)
	dst = strconv.AppendInt(dst, int64(len(r.Trades)), 10)
	dst = append(dst, '\n')
	for i := range r.Trades {
		dst = append(dst, ' ', ' ')
		dst = r.Trades[i].AppendString(dst)
		dst = append(dst, '\n')
	}

	dst = append(dst, "matches: "...)
	dst = strconv.AppendInt(dst, int64(len(r.Matches)), 10)
	dst = append(dst, '\n')
	for i := range r.Matches {
		dst = append(dst, ' ', ' ')
		dst = r.Matches[i].AppendString(dst)
		dst = append(dst, '\n')
	}

	dst = append(dst, "verdict: attack="...)
	dst = strconv.AppendBool(dst, r.IsAttack)
	return append(dst, '\n')
}
