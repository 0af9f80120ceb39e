package trace

import (
	"strings"
	"testing"

	"leishen/internal/evm"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

type staticResolver map[types.Address]types.Token

func (r staticResolver) Resolve(a types.Address) (types.Token, bool) {
	t, ok := r[a]
	return t, ok
}

var (
	alice   = types.Address{1}
	bob     = types.Address{2}
	tokAddr = types.Address{9}
	tok     = types.Token{Address: tokAddr, Symbol: "TKN", Decimals: 18}
)

func TestExtractMergesStreamsBySeq(t *testing.T) {
	r := &evm.Receipt{
		Success: true,
		InternalTxs: []evm.InternalTx{
			{Seq: 0, From: alice, To: bob, Method: "pay", Value: uint256.FromUint64(100)},
			{Seq: 4, From: bob, To: alice, Method: "", Value: uint256.FromUint64(40)},
			{Seq: 5, From: bob, To: alice, Method: "noop"}, // zero value: skipped
		},
		Logs: []evm.Log{
			{Seq: 2, Address: tokAddr, Event: "Transfer",
				Addrs: []types.Address{alice, bob}, Amounts: []uint256.Int{uint256.FromUint64(7)}},
			{Seq: 3, Address: tokAddr, Event: "Approval",
				Addrs: []types.Address{alice, bob}, Amounts: []uint256.Int{uint256.FromUint64(1)}},
		},
	}
	in := NewInterner(staticResolver{tokAddr: tok})
	got := ExtractInterned(nil, in, r)
	if len(got) != 3 {
		t.Fatalf("transfers = %v", got)
	}
	// Ordered by seq: ETH(0), TKN(2), ETH(4).
	if !got[0].Token.IsETH() || got[0].Seq != 0 || got[0].Amount.Uint64() != 100 {
		t.Errorf("t0 = %+v", got[0])
	}
	if in.Token(got[1].Token) != tok || got[1].Seq != 2 || got[1].Sender != alice || got[1].Receiver != bob {
		t.Errorf("t1 = %+v", got[1])
	}
	if !got[2].Token.IsETH() || got[2].Seq != 4 {
		t.Errorf("t2 = %+v", got[2])
	}
}

func TestExtractUnknownTokenSynthesized(t *testing.T) {
	r := &evm.Receipt{
		Success: true,
		Logs: []evm.Log{
			{Seq: 0, Address: types.Address{0x42}, Event: "Transfer",
				Addrs: []types.Address{alice, bob}, Amounts: []uint256.Int{uint256.FromUint64(5)}},
		},
	}
	in := NewInterner(staticResolver{})
	got := ExtractInterned(nil, in, r)
	if len(got) != 1 {
		t.Fatalf("transfers = %v", got)
	}
	if sym := in.Token(got[0].Token).Symbol; !strings.HasPrefix(sym, "UNK-") {
		t.Errorf("symbol = %s", sym)
	}
}

func TestExtractFailedAndNil(t *testing.T) {
	in := NewInterner(staticResolver{})
	if got := ExtractInterned(nil, in, nil); got != nil {
		t.Error("nil receipt")
	}
	if got := ExtractInterned(nil, in, &evm.Receipt{Success: false}); got != nil {
		t.Error("failed receipt")
	}
}

func TestExtractMalformedLogsSkipped(t *testing.T) {
	r := &evm.Receipt{
		Success: true,
		Logs: []evm.Log{
			{Seq: 0, Address: tokAddr, Event: "Transfer", Addrs: []types.Address{alice}},      // 1 addr
			{Seq: 1, Address: tokAddr, Event: "Transfer", Addrs: []types.Address{alice, bob}}, // no amount
			{Seq: 2, Address: tokAddr, Event: "Swap", Addrs: []types.Address{alice, bob}},     // not Transfer
		},
	}
	if got := ExtractInterned(nil, NewInterner(staticResolver{tokAddr: tok}), r); len(got) != 0 {
		t.Errorf("transfers = %v", got)
	}
}
