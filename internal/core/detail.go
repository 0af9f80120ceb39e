package core

import (
	"strconv"
)

// Append-form report rendering. AppendDetail produces exactly the bytes
// of the historical fmt-based Detail, into a caller-owned buffer.
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

// Detail renders the full multi-section report the paper's pipeline
// returns ("a detailed report regarding attack patterns"), transfer
// histories included. It is the one-shot form of AppendDetail.
func (t *Trace) Detail() string {
	return string(t.AppendDetail(nil))
}

// AppendDetail appends the full multi-section report text (Detail).
func (t *Trace) AppendDetail(dst []byte) []byte {
	dst = append(dst, "transaction "...)
	dst = t.TxHash.AppendHex(dst)
	dst = append(dst, " (block "...)
	dst = strconv.AppendUint(dst, t.Block, 10)
	dst = append(dst, ")\n"...)

	dst = append(dst, "flash loans: "...)
	dst = strconv.AppendInt(dst, int64(len(t.Loans)), 10)
	dst = append(dst, '\n')
	for i := range t.Loans {
		l := &t.Loans[i]
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
	dst = strconv.AppendInt(dst, int64(len(t.Transfers)), 10)
	dst = append(dst, '\n')

	dst = append(dst, "app-level transfers: "...)
	dst = strconv.AppendInt(dst, int64(len(t.AppTransfers)), 10)
	dst = append(dst, '\n')
	for i := range t.AppTransfers {
		dst = append(dst, ' ', ' ')
		dst = t.AppTransfers[i].AppendString(dst)
		dst = append(dst, '\n')
	}

	dst = append(dst, "trades: "...)
	dst = strconv.AppendInt(dst, int64(len(t.Trades)), 10)
	dst = append(dst, '\n')
	for i := range t.Trades {
		dst = append(dst, ' ', ' ')
		dst = t.Trades[i].AppendString(dst)
		dst = append(dst, '\n')
	}

	dst = append(dst, "matches: "...)
	dst = strconv.AppendInt(dst, int64(len(t.Matches)), 10)
	dst = append(dst, '\n')
	for i := range t.Matches {
		dst = append(dst, ' ', ' ')
		dst = t.Matches[i].AppendString(dst)
		dst = append(dst, '\n')
	}

	dst = append(dst, "verdict: attack="...)
	dst = strconv.AppendBool(dst, t.IsAttack)
	return append(dst, '\n')
}
