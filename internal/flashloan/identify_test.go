package flashloan

import (
	"testing"

	"leishen/internal/evm"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

var (
	pair     = types.Address{0x9A, 1}
	borrower = types.Address{0xB0, 2}
	tokenA   = types.Address{0x70, 3}
	aavePool = types.Address{0xAA, 4}
	solo     = types.Address{0xD0, 5}
	user     = types.Address{0xE0, 6}
)

func receipt(itxs []evm.InternalTx, logs []evm.Log) *evm.Receipt {
	return &evm.Receipt{Success: true, InternalTxs: itxs, Logs: logs}
}

func TestUniswapFlashSwapIdentified(t *testing.T) {
	r := receipt(
		[]evm.InternalTx{
			{Seq: 0, From: user, To: borrower, Method: "attack"},
			{Seq: 1, From: borrower, To: pair, Method: "swap"},
			{Seq: 3, From: pair, To: borrower, Method: "uniswapV2Call"},
		},
		[]evm.Log{
			{Seq: 2, Address: tokenA, Event: "Transfer",
				Addrs: []types.Address{pair, borrower}, Amounts: []uint256.Int{uint256.FromUint64(500)}},
		},
	)
	loans := Identify(r)
	if len(loans) != 1 {
		t.Fatalf("loans = %v", loans)
	}
	l := loans[0]
	if l.Provider != ProviderUniswap || l.Lender != pair || l.Borrower != borrower {
		t.Errorf("loan = %+v", l)
	}
	if l.Token != tokenA || l.Amount.Uint64() != 500 {
		t.Errorf("loan asset = %+v", l)
	}
	if !IsFlashLoanTx(r) {
		t.Error("IsFlashLoanTx = false")
	}
}

func TestOrdinarySwapNotFlashLoan(t *testing.T) {
	// A swap with no callback is a plain trade.
	r := receipt(
		[]evm.InternalTx{
			{Seq: 0, From: user, To: pair, Method: "swap"},
		},
		[]evm.Log{
			{Seq: 1, Address: tokenA, Event: "Transfer",
				Addrs: []types.Address{pair, user}, Amounts: []uint256.Int{uint256.FromUint64(10)}},
		},
	)
	if loans := Identify(r); len(loans) != 0 {
		t.Errorf("loans = %v", loans)
	}
}

func TestAaveFlashLoanIdentified(t *testing.T) {
	r := receipt(nil, []evm.Log{
		{Seq: 5, Address: aavePool, Event: "FlashLoan",
			Addrs:   []types.Address{borrower, tokenA},
			Amounts: []uint256.Int{uint256.FromUint64(1000), uint256.FromUint64(9)}},
	})
	loans := Identify(r)
	if len(loans) != 1 || loans[0].Provider != ProviderAave {
		t.Fatalf("loans = %v", loans)
	}
	if loans[0].Amount.Uint64() != 1000 || loans[0].Lender != aavePool {
		t.Errorf("loan = %+v", loans[0])
	}
}

func TestDydxSequenceIdentified(t *testing.T) {
	logs := []evm.Log{
		{Seq: 0, Address: solo, Event: "LogOperation", Addrs: []types.Address{user}},
		{Seq: 1, Address: solo, Event: "LogWithdraw",
			Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(77)}},
		{Seq: 2, Address: solo, Event: "LogCall", Addrs: []types.Address{borrower}},
		{Seq: 3, Address: solo, Event: "LogDeposit",
			Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(79)}},
	}
	loans := Identify(receipt(nil, logs))
	if len(loans) != 1 || loans[0].Provider != ProviderDydx {
		t.Fatalf("loans = %v", loans)
	}
	if loans[0].Amount.Uint64() != 77 || loans[0].Borrower != borrower {
		t.Errorf("loan = %+v", loans[0])
	}
}

func TestDydxIncompleteSequenceIgnored(t *testing.T) {
	// Withdraw + Deposit without the Call action is a plain rebalance.
	logs := []evm.Log{
		{Seq: 0, Address: solo, Event: "LogOperation", Addrs: []types.Address{user}},
		{Seq: 1, Address: solo, Event: "LogWithdraw",
			Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(77)}},
		{Seq: 2, Address: solo, Event: "LogDeposit",
			Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(77)}},
	}
	if loans := Identify(receipt(nil, logs)); len(loans) != 0 {
		t.Errorf("loans = %v", loans)
	}
}

func TestMultiProviderLoans(t *testing.T) {
	// Beanstalk-style: multiple providers in one transaction.
	r := receipt(
		[]evm.InternalTx{
			{Seq: 0, From: borrower, To: pair, Method: "swap"},
			{Seq: 2, From: pair, To: borrower, Method: "uniswapV2Call"},
		},
		[]evm.Log{
			{Seq: 1, Address: tokenA, Event: "Transfer",
				Addrs: []types.Address{pair, borrower}, Amounts: []uint256.Int{uint256.FromUint64(500)}},
			{Seq: 3, Address: aavePool, Event: "FlashLoan",
				Addrs:   []types.Address{borrower, tokenA},
				Amounts: []uint256.Int{uint256.FromUint64(1000), uint256.FromUint64(9)}},
		},
	)
	loans := Identify(r)
	if len(loans) != 2 {
		t.Fatalf("loans = %v", loans)
	}
}

// TestIsFlashLoanTxPooled checks the pooled screen gives Identify's
// verdict and, once warm, allocates nothing per receipt.
func TestIsFlashLoanTxPooled(t *testing.T) {
	multi := receipt(
		[]evm.InternalTx{
			{Seq: 0, From: borrower, To: pair, Method: "swap"},
			{Seq: 2, From: pair, To: borrower, Method: "uniswapV2Call"},
		},
		[]evm.Log{
			{Seq: 1, Address: tokenA, Event: "Transfer",
				Addrs: []types.Address{pair, borrower}, Amounts: []uint256.Int{uint256.FromUint64(500)}},
			{Seq: 3, Address: solo, Event: "LogOperation", Addrs: []types.Address{borrower}},
			{Seq: 4, Address: solo, Event: "LogWithdraw",
				Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(77)}},
			{Seq: 5, Address: solo, Event: "LogCall", Addrs: []types.Address{borrower}},
			{Seq: 6, Address: solo, Event: "LogDeposit",
				Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(77)}},
		},
	)
	plain := receipt([]evm.InternalTx{{Seq: 0, From: user, To: pair, Method: "swap"}}, nil)
	failed := receipt(nil, []evm.Log{{Seq: 0, Address: aavePool, Event: "FlashLoan",
		Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(1)}}})
	failed.Success = false
	for name, r := range map[string]*evm.Receipt{"multi": multi, "plain": plain, "failed": failed, "nil": nil} {
		if got, want := IsFlashLoanTx(r), len(Identify(r)) > 0; got != want {
			t.Errorf("%s: IsFlashLoanTx = %v, Identify found loans = %v", name, got, want)
		}
	}
	if n := len(Identify(multi)); n != 2 {
		t.Fatalf("multi-provider fixture: %d loans, want 2", n)
	}
	if allocs := testing.AllocsPerRun(1000, func() { IsFlashLoanTx(multi) }); allocs != 0 {
		t.Errorf("IsFlashLoanTx: %.1f allocs per receipt, want 0", allocs)
	}
}

// TestHasMarkerScreen pins HasMarker as the allocation-free superset of
// IsFlashLoanTx: every flash loan receipt has a marker, and a marker
// without the rest of its provider's shape is a candidate that full
// identification then rejects.
func TestHasMarkerScreen(t *testing.T) {
	loan := receipt(nil, []evm.Log{{Seq: 0, Address: aavePool, Event: "FlashLoan",
		Addrs: []types.Address{borrower, tokenA}, Amounts: []uint256.Int{uint256.FromUint64(1)}}})
	// A uniswapV2Call callback with no swap frame before it.
	callbackOnly := receipt([]evm.InternalTx{{Seq: 0, From: pair, To: borrower, Method: "uniswapV2Call"}}, nil)
	// A FlashLoan event too short to name borrower and token.
	shortEvent := receipt(nil, []evm.Log{{Seq: 0, Address: aavePool, Event: "FlashLoan"}})
	plain := receipt([]evm.InternalTx{{Seq: 0, From: user, To: pair, Method: "swap"}}, nil)
	failed := receipt(nil, loan.Logs)
	failed.Success = false
	for _, c := range []struct {
		name         string
		r            *evm.Receipt
		marker, loan bool
	}{
		{"loan", loan, true, true},
		{"callbackOnly", callbackOnly, true, false},
		{"shortEvent", shortEvent, true, false},
		{"plain", plain, false, false},
		{"failed", failed, false, false},
		{"nil", nil, false, false},
	} {
		if got := HasMarker(c.r); got != c.marker {
			t.Errorf("%s: HasMarker = %v, want %v", c.name, got, c.marker)
		}
		if got := IsFlashLoanTx(c.r); got != c.loan {
			t.Errorf("%s: IsFlashLoanTx = %v, want %v", c.name, got, c.loan)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { HasMarker(loan) }); allocs != 0 {
		t.Errorf("HasMarker: %.1f allocs per receipt, want 0", allocs)
	}
}

func TestFailedTxHasNoLoans(t *testing.T) {
	r := receipt(nil, []evm.Log{
		{Seq: 0, Address: aavePool, Event: "FlashLoan",
			Addrs:   []types.Address{borrower, tokenA},
			Amounts: []uint256.Int{uint256.FromUint64(1)}},
	})
	r.Success = false
	if loans := Identify(r); len(loans) != 0 {
		t.Errorf("loans from failed tx = %v", loans)
	}
	if Identify(nil) != nil {
		t.Error("nil receipt")
	}
}

func TestProviderString(t *testing.T) {
	if ProviderUniswap.String() != "Uniswap" || ProviderAave.String() != "AAVE" || ProviderDydx.String() != "dYdX" {
		t.Error("provider names")
	}
	if Provider(9).String() == "" {
		t.Error("unknown provider renders empty")
	}
}
