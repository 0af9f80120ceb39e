package core

import (
	"strings"
	"testing"
	"time"

	"leishen/internal/dex"
	"leishen/internal/evm"
	"leishen/internal/simplify"
	"leishen/internal/token"
	"leishen/internal/types"
	"leishen/internal/uint256"
	"leishen/internal/vault"
)

// detectorFixture builds a minimal world where a labeled yield aggregator
// runs a flash-funded cross-pool rebalance that matches MBS.
type detectorFixture struct {
	ch       *evm.Chain
	reg      *token.Registry
	weth     types.Token
	usdc     types.Token
	usdt     types.Token
	operator types.Address
	strategy types.Address
	funding  types.Address
	poolA    types.Address
	poolB    types.Address
}

func newDetectorFixture(t *testing.T) *detectorFixture {
	t.Helper()
	ch := evm.NewChain(time.Date(2020, 10, 1, 0, 0, 0, 0, time.UTC))
	reg := token.NewRegistry()
	deployer := ch.NewEOA("deployer")
	f := &detectorFixture{ch: ch, reg: reg}
	var err error
	if f.weth, err = token.DeployWETH(ch, reg, deployer); err != nil {
		t.Fatal(err)
	}
	f.usdc = token.MustDeploy(ch, reg, deployer, "USDC", 6, "Circle: USDC")
	f.usdt = token.MustDeploy(ch, reg, deployer, "USDT", 6, "Tether: USDT")

	mkPair := func(a types.Token, amtA string, b types.Token, amtB string, label string) types.Address {
		p, err := dex.DeployPair(ch, reg, deployer, a, b, label)
		if err != nil {
			t.Fatal(err)
		}
		token.MustMint(ch, a, deployer, deployer, a.Units(amtA))
		token.MustMint(ch, b, deployer, deployer, b.Units(amtB))
		dex.MustAddLiquidity(ch, p, deployer, a, a.Units(amtA), b, b.Units(amtB))
		return p
	}
	f.funding = mkPair(f.usdc, "10000000", f.usdt, "10000000", "Uniswap: USDC-USDT Pool")
	f.poolA = mkPair(f.usdc, "2000000", f.usdt, "2000000", "SushiSwap: Pool A")
	f.poolB = mkPair(f.usdc, "2100000", f.usdt, "2000000", "SushiSwap: Pool B")

	f.operator = ch.NewEOA("Harvest: Deployer")
	strat, err := ch.Deploy(f.operator, &vault.YieldAggregator{WorkingToken: f.usdc}, "Harvest: Strategy")
	if err != nil {
		t.Fatal(err)
	}
	f.strategy = strat
	return f
}

// fireRebalance runs the flash-funded MBS-shaped rebalance.
func (f *detectorFixture) fireRebalance(t *testing.T) *evm.Receipt {
	t.Helper()
	if r := f.ch.Send(f.operator, f.strategy, "queueRebalance",
		f.poolA, f.poolB, f.usdt, f.usdc.Units("6000"), uint64(3)); !r.Success {
		t.Fatal(r.Err)
	}
	r := f.ch.Send(f.operator, f.strategy, "flashRebalance", f.funding, f.usdt, f.usdc.Units("30000"))
	if !r.Success {
		t.Fatalf("flashRebalance: %s", r.Err)
	}
	return r
}

func (f *detectorFixture) detector(opts Options) *Detector {
	if opts.Simplify == (simplify.Options{}) {
		opts.Simplify = simplify.Options{WETH: f.weth}
	}
	return NewDetector(f.ch, f.reg, opts)
}

func TestDetectorEndToEndMBS(t *testing.T) {
	f := newDetectorFixture(t)
	r := f.fireRebalance(t)
	det := f.detector(Options{})
	rep := det.Trace(r)

	if len(rep.Loans) != 1 {
		t.Fatalf("loans = %v", rep.Loans)
	}
	if !rep.IsAttack || !rep.HasPattern(PatternMBS) {
		t.Fatalf("MBS not detected:\n%s", rep.Detail())
	}
	if rep.HasPattern(PatternKRP) || rep.HasPattern(PatternSBS) {
		t.Errorf("extra patterns:\n%s", rep.Detail())
	}
	if len(rep.BorrowerTags) != 1 || rep.BorrowerTags[0] != types.AppTag("Harvest") {
		t.Errorf("borrower tags = %v", rep.BorrowerTags)
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	if !strings.Contains(rep.Summary(), "flpAttack") {
		t.Errorf("summary = %s", rep.Summary())
	}
	if !strings.Contains(rep.Detail(), "trades:") {
		t.Error("detail lacks trades section")
	}
}

func TestDetectorHeuristicSuppressesAggregator(t *testing.T) {
	f := newDetectorFixture(t)
	r := f.fireRebalance(t)
	det := f.detector(Options{
		YieldAggregatorHeuristic: true,
		YieldAggregatorApps:      map[string]bool{"Harvest": true},
	})
	rep := det.Trace(r)
	if rep.IsAttack {
		t.Fatalf("heuristic did not suppress:\n%s", rep.Detail())
	}
	if !rep.SuppressedByHeuristic {
		t.Error("suppression not flagged")
	}
	if !strings.Contains(rep.Summary(), "suppressed") {
		t.Errorf("summary = %s", rep.Summary())
	}
	// Heuristic with an unrelated app set does not suppress.
	det = f.detector(Options{
		YieldAggregatorHeuristic: true,
		YieldAggregatorApps:      map[string]bool{"Yearn": true},
	})
	if rep := det.Inspect(r, nil); !rep.IsAttack {
		t.Error("suppressed a non-listed app")
	}
}

func TestDetectorNonFlashLoanTx(t *testing.T) {
	f := newDetectorFixture(t)
	// A plain token transfer transaction.
	holder := f.ch.NewEOA("")
	sender := f.ch.NewEOA("")
	r := f.ch.Send(sender, f.usdc.Address, "transfer", holder, uint256.Zero())
	det := f.detector(Options{})
	rep := det.Trace(r)
	if len(rep.Loans) != 0 || rep.IsAttack {
		t.Errorf("rep = %+v", rep)
	}
	if len(rep.Transfers) != 0 {
		t.Error("pipeline ran on a non-flash-loan tx")
	}
	if !strings.Contains(rep.Summary(), "not a flash loan") {
		t.Errorf("summary = %s", rep.Summary())
	}
}

func TestDetectorExcludedLabels(t *testing.T) {
	f := newDetectorFixture(t)
	r := f.fireRebalance(t)
	// Excluding the operator's label demotes the borrower tag to a root
	// tag; detection still works (the trades carry the same root tag).
	det := f.detector(Options{ExcludedLabelAccounts: []types.Address{f.operator, f.strategy}})
	rep := det.Trace(r)
	if len(rep.BorrowerTags) != 1 {
		t.Fatalf("tags = %v", rep.BorrowerTags)
	}
	if rep.BorrowerTags[0].IsApp() {
		t.Errorf("label exclusion ignored: %v", rep.BorrowerTags[0])
	}
	if !rep.IsAttack {
		t.Errorf("detection should not depend on the attacker's label:\n%s", rep.Detail())
	}
}

func TestDetectorThresholdOverrides(t *testing.T) {
	f := newDetectorFixture(t)
	r := f.fireRebalance(t)
	// Raising the MBS round requirement above 3 hides the attack.
	det := f.detector(Options{Thresholds: Thresholds{
		KRPMinBuys:            5,
		SBSMinVolatilityBps:   2800,
		SBSAmountToleranceBps: 10,
		MBSMinRounds:          4,
	}})
	if rep := det.Trace(r); rep.IsAttack {
		t.Errorf("4-round MBS threshold should miss a 3-round attack:\n%s", rep.Detail())
	}
}
