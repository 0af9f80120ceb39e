package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"

	"leishen/internal/flashloan"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// syntheticReport builds a report exercising every wire field.
func syntheticReport() *Report {
	usdc := types.Token{Address: types.Address{0xA0, 0xB8}, Symbol: "USDC", Decimals: 6}
	weth := types.Token{Address: types.Address{0xC0, 0x2A}, Symbol: "WETH", Decimals: 18}
	attacker := types.AppTag("Attacker Contract")
	pool := types.AppTag("Uniswap")
	return &Report{
		TxHash: types.HashFromData([]byte("synthetic-report")),
		Time:   time.Date(2020, 10, 26, 2, 1, 35, 0, time.UTC),
		Block:  11129473,
		Loans: []flashloan.Loan{{
			Provider: flashloan.ProviderUniswap,
			Lender:   types.Address{1},
			Borrower: types.Address{2},
			Token:    usdc.Address,
			Amount:   uint256.FromUint64(50_000_000_000),
		}},
		BorrowerTags: []types.Tag{attacker},
		Trades: []types.Trade{{
			Kind:       types.TradeSwap,
			Buyer:      attacker,
			Seller:     pool,
			AmountSell: uint256.FromUint64(50_000_000_000),
			TokenSell:  usdc,
			AmountBuy:  uint256.FromUint64(17 * 1e18),
			TokenBuy:   weth,
		}},
		Matches: []Match{{
			Kind:          PatternMBS,
			Target:        weth,
			Counterparty:  pool,
			Rounds:        4,
			Trades:        make([]types.Trade, 8),
			VolatilityPct: 31.4,
		}},
		IsAttack:              true,
		SuppressedByHeuristic: false,
		Elapsed:               1500 * time.Microsecond,
	}
}

// TestReportJSONRoundTripBytes checks that Report.MarshalJSON output
// decodes back into ReportJSON and re-encodes to the identical bytes —
// i.e. the wire form is self-consistent and loses nothing a client could
// need. (TestReportJSONRoundTrip in properties_test.go covers decoding
// of generated trades; this one exercises every wire field.)
func TestReportJSONRoundTripBytes(t *testing.T) {
	rep := syntheticReport()
	first, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ReportJSON
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("unmarshal wire form: %v", err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip changed bytes:\n first: %s\nsecond: %s", first, second)
	}

	if decoded.TxHash != rep.TxHash.String() {
		t.Errorf("txHash = %q, want %q", decoded.TxHash, rep.TxHash.String())
	}
	if !decoded.IsFlashLoanTx || !decoded.IsAttack {
		t.Errorf("flags = %+v", decoded)
	}
	if len(decoded.Loans) != 1 || decoded.Loans[0].Provider != "Uniswap" {
		t.Errorf("loans = %+v", decoded.Loans)
	}
	if got := decoded.Loans[0].Amount.String(); got != "50000000000" {
		t.Errorf("loan amount = %s", got)
	}
	if len(decoded.Matches) != 1 || decoded.Matches[0].Pattern != "MBS" ||
		decoded.Matches[0].Trades != 8 {
		t.Errorf("matches = %+v", decoded.Matches)
	}
	if decoded.ElapsedMicros != 1500 {
		t.Errorf("elapsedMicros = %d", decoded.ElapsedMicros)
	}
}

// TestReportJSONEmpty checks the wire form of a non-flash-loan report:
// all optional sections must be omitted, not emitted as null/empty.
func TestReportJSONEmpty(t *testing.T) {
	rep := &Report{TxHash: types.HashFromData([]byte("benign")), Block: 1}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"loans", "borrowerTags", "trades", "matches", "suppressedByHeuristic"} {
		if bytes.Contains(raw, []byte(`"`+field+`"`)) {
			t.Errorf("empty report emits %q: %s", field, raw)
		}
	}
	var decoded ReportJSON
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.IsFlashLoanTx || decoded.IsAttack {
		t.Errorf("flags = %+v", decoded)
	}
}

// reflectJSON is the reference encoding AppendJSON must reproduce: the
// wire struct through encoding/json, as the /tx route still serves it.
func reflectJSON(r *Report) ([]byte, error) { return json.Marshal(r.JSON()) }

// withVolatility returns the synthetic report with its match's
// volatility set.
func withVolatility(v float64) *Report {
	r := syntheticReport()
	r.Matches[0].VolatilityPct = v
	return r
}

// TestReportAppendJSONParity pins AppendJSON against encoding/json on
// the cases where a hand-written encoder is most likely to drift:
// tag display forms, every escaping class, invalid UTF-8, the float
// format switch, and the omitempty fields.
func TestReportAppendJSONParity(t *testing.T) {
	root := types.RootTag(types.Address{0xde, 0xad})
	badTags := []types.Tag{types.AppTag("bad\xc0<"), {Kind: types.TagRoot, Name: "\x80&"}}
	cases := map[string]func(r *Report){
		"synthetic":     func(*Report) {},
		"suppressed":    func(r *Report) { r.SuppressedByHeuristic = true; r.IsAttack = false },
		"untagged":      func(r *Report) { r.BorrowerTags = []types.Tag{{}, types.NoTag()}; r.Trades[0].Buyer = types.Tag{} },
		"root tags":     func(r *Report) { r.BorrowerTags = []types.Tag{root}; r.Matches[0].Counterparty = root },
		"html in error": func(r *Report) { r.Error = `a<b>&c "q" \ ` + "\u2028x\u2029" },
		"controls":      func(r *Report) { r.Error = "\b\f\n\r\t\x00\x01\x1f\x7f é 日本 🙂" },
		"invalid utf8":  func(r *Report) { r.Error = "ok\xff\xfe\xc3(\xed\xa0\x80end"; r.Trades[0].TokenSell.Symbol = "W\x80ETH" },
		"invalid tag":   func(r *Report) { r.BorrowerTags = badTags },
		"unknown kinds": func(r *Report) { r.Loans[0].Provider = 0; r.Trades[0].Kind = 9; r.Matches[0].Kind = 7 },
		"max amounts":   func(r *Report) { r.Loans[0].Amount = uint256.Max(); r.Trades[0].AmountBuy = uint256.Int{0, 0, 1} },
		"zoned time":    func(r *Report) { r.Time = time.Date(2021, 3, 4, 5, 6, 7, 890, time.FixedZone("x", -(3*3600+1800))) },
		"zero time":     func(r *Report) { r.Time = time.Time{} },
		"negative time": func(r *Report) { r.Elapsed = -3 * time.Microsecond; r.Block = 0 },
		"no sections":   func(r *Report) { *r = Report{TxHash: r.TxHash, Error: "panic: boom"} },
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 123.456, 5e-324, math.MaxFloat64, 28} {
		cases["volatility "+strconv.FormatFloat(v, 'g', -1, 64)] = func(r *Report) { r.Matches[0].VolatilityPct = v }
	}
	for name, mutate := range cases {
		r := syntheticReport()
		mutate(r)
		want, err := reflectJSON(r)
		if err != nil {
			t.Fatalf("%s: reference encoding: %v", name, err)
		}
		got, err := r.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatalf("%s: AppendJSON: %v", name, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Errorf("%s: bytes diverge\n got: %s\nwant: %s", name, got[len("prefix"):], want)
		}
		if viaMarshal, err := json.Marshal(r); err != nil || !bytes.Equal(viaMarshal, want) {
			t.Errorf("%s: json.Marshal(report) = %s, %v", name, viaMarshal, err)
		}
	}
}

// TestReportAppendJSONErrors checks AppendJSON fails exactly where
// json.Marshal does, leaving dst unextended.
func TestReportAppendJSONErrors(t *testing.T) {
	cases := map[string]*Report{
		"NaN":       withVolatility(math.NaN()),
		"+Inf":      withVolatility(math.Inf(1)),
		"-Inf":      withVolatility(math.Inf(-1)),
		"year 1e4":  {TxHash: types.Hash{1}, Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"year -1":   {TxHash: types.Hash{1}, Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		"zone 24h+": {TxHash: types.Hash{1}, Time: time.Date(2021, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 25*3600))},
	}
	for name, r := range cases {
		if _, err := reflectJSON(r); err == nil {
			t.Fatalf("%s: reference encoding unexpectedly succeeded", name)
		}
		dst := []byte("keep")
		got, err := r.AppendJSON(dst)
		if err == nil {
			t.Errorf("%s: AppendJSON succeeded: %s", name, got)
			continue
		}
		if string(got) != "keep" {
			t.Errorf("%s: dst extended on error: %q", name, got)
		}
	}
}

// assertRoundTrip checks the decode schema inverts the encoder:
// DecodeReportJSON then json.Marshal gives back the same bytes.
func assertRoundTrip(t *testing.T, r *Report) {
	t.Helper()
	raw, err := r.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeReportJSON(raw)
	if err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	again, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatalf("round trip changed bytes:\n first: %s\nsecond: %s", raw, again)
	}
}

// TestReportAppendJSONAllocs guards the point of the encoder: into a
// presized buffer, a full report encodes without allocating.
func TestReportAppendJSONAllocs(t *testing.T) {
	r := syntheticReport()
	r.BorrowerTags = append(r.BorrowerTags, types.RootTag(types.Address{7}), types.Tag{})
	r.Error = "<escaped & \u2028>"
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = r.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendJSON into a presized buffer: %.1f allocs, want 0", allocs)
	}
}

// FuzzReportAppendJSON drives arbitrary strings, amounts, floats and
// times through the encoder: whenever encoding/json accepts the report,
// AppendJSON must emit the identical, valid JSON (and fail whenever it
// fails); for valid UTF-8 input the bytes also survive a decode and
// re-encode.
func FuzzReportAppendJSON(f *testing.F) {
	f.Add("Uniswap", "WETH", "", uint64(1), uint64(0), 31.4, int64(1603677695), int32(0))
	f.Add("<untagged>", "a\"b\\c", "x\u2028<&>\x00", uint64(0), ^uint64(0), 1e-7, int64(-62135596800), int32(-3600))
	f.Add("root", "USDC", "\u2028\u2029", uint64(7), uint64(3), -1e21, int64(0), int32(19800))
	f.Add("\xff\xfe", "\xc3(", "\xed\xa0\x80", ^uint64(0), ^uint64(0), 1e21, int64(253402300800), int32(90000))
	f.Fuzz(func(t *testing.T, name, symbol, msg string, lo, hi uint64, vol float64, sec int64, offset int32) {
		r := syntheticReport()
		r.BorrowerTags = []types.Tag{types.AppTag(name), {Kind: types.TagRoot, Name: symbol}, {}}
		r.Trades[0].Buyer = types.AppTag(symbol)
		r.Trades[0].TokenSell.Symbol = symbol
		r.Trades[0].AmountSell = uint256.Int{lo, hi, lo, hi}
		r.Loans[0].Amount = uint256.Int{hi, 0, 0, lo}
		r.Matches[0].Target.Symbol = name
		r.Matches[0].VolatilityPct = vol
		r.Error = msg
		// Whole-minute offsets: RFC 3339 drops seconds of a zone offset,
		// so any other zone could not survive the round trip.
		r.Time = time.Unix(sec, int64(lo%1e9)).In(time.FixedZone("", int(offset)/60*60))

		want, wantErr := reflectJSON(r)
		got, err := r.AppendJSON(nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error mismatch: AppendJSON %v, json.Marshal %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bytes diverge\n got: %s\nwant: %s", got, want)
		}
		if !json.Valid(got) {
			t.Fatalf("invalid JSON: %s", got)
		}
		if utf8.ValidString(name) && utf8.ValidString(symbol) && utf8.ValidString(msg) {
			assertRoundTrip(t, r)
		}
	})
}
