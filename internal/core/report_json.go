package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

// ReportJSON is the wire form of a detection report: the schema
// DecodeReportJSON reads back. Every writer (the archive, the HTTP
// monitor, leishen -scan -json) uses Report.AppendJSON, which writes
// the same bytes without building it. Amounts
// are decimal strings (they exceed JSON-number precision).
type ReportJSON struct {
	TxHash                string      `json:"txHash"`
	Block                 uint64      `json:"block"`
	Time                  time.Time   `json:"time"`
	IsFlashLoanTx         bool        `json:"isFlashLoanTx"`
	IsAttack              bool        `json:"isAttack"`
	SuppressedByHeuristic bool        `json:"suppressedByHeuristic,omitempty"`
	Loans                 []LoanJSON  `json:"loans,omitempty"`
	BorrowerTags          []string    `json:"borrowerTags,omitempty"`
	Trades                []TradeJSON `json:"trades,omitempty"`
	Matches               []MatchJSON `json:"matches,omitempty"`
	Error                 string      `json:"error,omitempty"`
	ElapsedMicros         int64       `json:"elapsedMicros"`
}

// LoanJSON is one identified flash loan.
type LoanJSON struct {
	Provider string        `json:"provider"`
	Lender   types.Address `json:"lender"`
	Borrower types.Address `json:"borrower"`
	Token    types.Address `json:"token"`
	Amount   uint256.Int   `json:"amount"`
}

// TradeJSON is one identified trade.
type TradeJSON struct {
	Kind       string      `json:"kind"`
	Buyer      string      `json:"buyer"`
	Seller     string      `json:"seller"`
	AmountSell uint256.Int `json:"amountSell"`
	TokenSell  string      `json:"tokenSell"`
	AmountBuy  uint256.Int `json:"amountBuy"`
	TokenBuy   string      `json:"tokenBuy"`
}

// MatchJSON is one detected pattern instance.
type MatchJSON struct {
	Pattern       string  `json:"pattern"`
	Target        string  `json:"target"`
	Counterparty  string  `json:"counterparty"`
	Rounds        int     `json:"rounds"`
	Trades        int     `json:"trades"`
	VolatilityPct float64 `json:"volatilityPct"`
}

// JSON converts the report to its wire form.
func (r *Report) JSON() ReportJSON {
	out := ReportJSON{
		TxHash:                r.TxHash.String(),
		Block:                 r.Block,
		Time:                  r.Time,
		IsFlashLoanTx:         len(r.Loans) > 0,
		IsAttack:              r.IsAttack,
		SuppressedByHeuristic: r.SuppressedByHeuristic,
		Error:                 r.Error,
		ElapsedMicros:         r.Elapsed.Microseconds(),
	}
	for _, l := range r.Loans {
		out.Loans = append(out.Loans, LoanJSON{
			Provider: l.Provider.String(),
			Lender:   l.Lender,
			Borrower: l.Borrower,
			Token:    l.Token,
			Amount:   l.Amount,
		})
	}
	for _, tag := range r.BorrowerTags {
		out.BorrowerTags = append(out.BorrowerTags, tag.String())
	}
	for _, t := range r.Trades {
		out.Trades = append(out.Trades, TradeJSON{
			Kind:       t.Kind.String(),
			Buyer:      t.Buyer.String(),
			Seller:     t.Seller.String(),
			AmountSell: t.AmountSell,
			TokenSell:  t.TokenSell.Symbol,
			AmountBuy:  t.AmountBuy,
			TokenBuy:   t.TokenBuy.Symbol,
		})
	}
	for _, m := range r.Matches {
		out.Matches = append(out.Matches, MatchJSON{
			Pattern:       m.Kind.String(),
			Target:        m.Target.Symbol,
			Counterparty:  m.Counterparty.String(),
			Rounds:        m.Rounds,
			Trades:        len(m.Trades),
			VolatilityPct: m.VolatilityPct,
		})
	}
	return out
}

// MarshalJSON marshals the report via AppendJSON.
func (r *Report) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

// AppendJSON appends the report's wire form to dst and returns the
// extended slice. The bytes are exactly json.Marshal(r.JSON()) — same
// field order, omitempty rules, HTML-safe string escaping and float
// formatting — but written field by field into the caller's buffer, so
// a presized dst costs no allocation. It fails where json.Marshal
// would: a NaN or infinite volatility, or a time that has no RFC 3339
// form (year outside [0,9999], zone offset of 24 h or more); on error
// dst is returned unextended.
// TestReportAppendJSONParity pins the bytes against encoding/json.
func (r *Report) AppendJSON(dst []byte) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"txHash":"`...)
	dst = r.TxHash.AppendHex(dst)
	dst = append(dst, `","block":`...)
	dst = strconv.AppendUint(dst, r.Block, 10)
	dst = append(dst, `,"time":"`...)
	withTime := r.Time.AppendFormat(dst, time.RFC3339Nano)
	if err := strictRFC3339(withTime[len(dst):]); err != nil {
		return dst[:start], fmt.Errorf("report json: time: %w", err)
	}
	dst = append(withTime, `","isFlashLoanTx":`...)
	dst = strconv.AppendBool(dst, len(r.Loans) > 0)
	dst = append(dst, `,"isAttack":`...)
	dst = strconv.AppendBool(dst, r.IsAttack)
	if r.SuppressedByHeuristic {
		dst = append(dst, `,"suppressedByHeuristic":true`...)
	}
	if len(r.Loans) > 0 {
		dst = append(dst, `,"loans":[`...)
		for i := range r.Loans {
			l := &r.Loans[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"provider":`...)
			dst = appendJSONString(dst, l.Provider.String())
			dst = append(dst, `,"lender":"`...)
			dst = l.Lender.AppendHex(dst)
			dst = append(dst, `","borrower":"`...)
			dst = l.Borrower.AppendHex(dst)
			dst = append(dst, `","token":"`...)
			dst = l.Token.AppendHex(dst)
			dst = append(dst, `","amount":"`...)
			dst = l.Amount.AppendDecimal(dst)
			dst = append(dst, `"}`...)
		}
		dst = append(dst, ']')
	}
	if len(r.BorrowerTags) > 0 {
		dst = append(dst, `,"borrowerTags":[`...)
		for i, tag := range r.BorrowerTags {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONTag(dst, tag)
		}
		dst = append(dst, ']')
	}
	if len(r.Trades) > 0 {
		dst = append(dst, `,"trades":[`...)
		for i := range r.Trades {
			t := &r.Trades[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"kind":`...)
			dst = appendJSONString(dst, t.Kind.String())
			dst = append(dst, `,"buyer":`...)
			dst = appendJSONTag(dst, t.Buyer)
			dst = append(dst, `,"seller":`...)
			dst = appendJSONTag(dst, t.Seller)
			dst = append(dst, `,"amountSell":"`...)
			dst = t.AmountSell.AppendDecimal(dst)
			dst = append(dst, `","tokenSell":`...)
			dst = appendJSONString(dst, t.TokenSell.Symbol)
			dst = append(dst, `,"amountBuy":"`...)
			dst = t.AmountBuy.AppendDecimal(dst)
			dst = append(dst, `","tokenBuy":`...)
			dst = appendJSONString(dst, t.TokenBuy.Symbol)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.Matches) > 0 {
		dst = append(dst, `,"matches":[`...)
		for i := range r.Matches {
			m := &r.Matches[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"pattern":`...)
			dst = appendJSONString(dst, m.Kind.String())
			dst = append(dst, `,"target":`...)
			dst = appendJSONString(dst, m.Target.Symbol)
			dst = append(dst, `,"counterparty":`...)
			dst = appendJSONTag(dst, m.Counterparty)
			dst = append(dst, `,"rounds":`...)
			dst = strconv.AppendInt(dst, int64(m.Rounds), 10)
			dst = append(dst, `,"trades":`...)
			dst = strconv.AppendInt(dst, int64(len(m.Trades)), 10)
			dst = append(dst, `,"volatilityPct":`...)
			var err error
			if dst, err = appendJSONFloat(dst, m.VolatilityPct); err != nil {
				return dst[:start], err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Error)
	}
	dst = append(dst, `,"elapsedMicros":`...)
	dst = strconv.AppendInt(dst, r.Elapsed.Microseconds(), 10)
	return append(dst, '}'), nil
}

// appendJSONTag appends the tag's display form (Tag.String) as a JSON
// string without building that string: the untagged marker's escaped
// form is a constant, and a root tag's "root:" prefix needs no escaping.
func appendJSONTag(dst []byte, g types.Tag) []byte {
	switch g.Kind {
	case types.TagApp:
		return appendJSONString(dst, g.Name)
	case types.TagRoot:
		dst = append(dst, `"root:`...)
		dst = appendJSONEscaped(dst, g.Name)
		return append(dst, '"')
	default:
		return append(dst, `"\u003cuntagged\u003e"`...)
	}
}

// appendJSONString appends s as a JSON string literal, escaped the way
// encoding/json escapes with HTML escaping on (its default).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONEscaped(dst, s)
	return append(dst, '"')
}

// appendJSONEscaped appends the body of s's JSON string literal,
// following encoding/json byte for byte: quote and backslash are
// backslash-escaped; \b \f \n \r \t take their short forms; other
// control characters and the HTML-sensitive <, > and & become \u00XX;
// U+2028 and U+2029 become \u2028 and \u2029; and every byte of
// invalid UTF-8 becomes \ufffd.
func appendJSONEscaped(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// appendJSONFloat appends f the way encoding/json renders a float64:
// the shortest 'f' form, switching to 'e' below 1e-6 or at/above 1e21
// with a two-digit negative exponent trimmed (1e-07 → 1e-7). NaN and
// ±Inf have no JSON form and are an error, as in json.Marshal.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("report json: unsupported float value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// strictRFC3339 rejects an RFC3339Nano rendering that is not valid RFC
// 3339 — the checks time.Time's JSON and text marshalers apply: the
// year must be exactly four digits wide, and a zone offset must be
// under 24 hours.
func strictRFC3339(ts []byte) error {
	if ts[len("9999")] != '-' {
		return errors.New("year outside of range [0,9999]")
	}
	if n := len(ts); ts[n-1] != 'Z' {
		c := ts[n-len("Z07:00")]
		if ('0' <= c && c <= '9') || 10*(ts[n-5]-'0')+(ts[n-4]-'0') >= 24 {
			return errors.New("timezone hour outside of range [0,23]")
		}
	}
	return nil
}

// DecodeReportJSON parses a report's wire form back into ReportJSON —
// the codec the archive uses to resurface stored verdicts. Decoding is
// strict: unknown fields mean the bytes are not a report this version
// wrote, and the caller should treat them as corruption, not data.
func DecodeReportJSON(data []byte) (*ReportJSON, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out ReportJSON
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("report json: %w", err)
	}
	return &out, nil
}
