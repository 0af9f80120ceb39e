package attacks

import (
	"strings"
	"testing"

	"leishen/internal/core"
	"leishen/internal/dex"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/simplify"
	"leishen/internal/types"
)

// detectorFor builds a LeiShen detector over a scenario's chain snapshot.
func detectorFor(res *Result) *core.Detector {
	return core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
	})
}

func TestScenarioGroundTruth(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := sc.Run()
			if err != nil {
				t.Fatalf("scenario failed: %v", err)
			}
			// Manual verification criterion 2: the attacker profits.
			if res.Profit.IsZero() {
				t.Errorf("attack made no profit")
			}
			rep := detectorFor(res).Trace(res.Receipt)
			if len(rep.Loans) == 0 {
				t.Fatalf("no flash loan identified:\n%s", rep.Detail())
			}
			if rep.IsAttack != sc.LeiShen {
				t.Fatalf("LeiShen verdict = %v, want %v\nprofit: %s\n%s",
					rep.IsAttack, sc.LeiShen, res.ProfitToken.Format(res.Profit), rep.Detail())
			}
			if !sc.LeiShen {
				return
			}
			got := map[core.PatternKind]bool{}
			for _, m := range rep.Matches {
				got[m.Kind] = true
			}
			for _, want := range sc.Patterns {
				if !got[want] {
					t.Errorf("pattern %s not detected\n%s", want, rep.Detail())
				}
			}
			for kind := range got {
				found := false
				for _, want := range sc.Patterns {
					if want == kind {
						found = true
					}
				}
				if !found {
					t.Errorf("unexpected extra pattern %s\n%s", kind, rep.Detail())
				}
			}
		})
	}
}

// TestMultiProviderAttack reproduces the Beanstalk-style composition the
// paper's flash loan analysis highlights: one attack borrowing from
// several providers at once (seven of the 44 studied attacks did). The
// identifier must surface every loan and detection must still work.
func TestMultiProviderAttack(t *testing.T) {
	env, err := NewEnv(scenarioGenesis)
	if err != nil {
		t.Fatal(err)
	}
	site, err := NewPoolSite(env, "Beanstalk", "BEAN", "1000", "1000000")
	if err != nil {
		t.Fatal(err)
	}
	contract := &AttackContract{
		Loan: LoanSpec{
			Provider: flashloan.ProviderDydx,
			Lender:   env.DydxSolo,
			Token:    env.WETH,
			Amount:   env.WETH.Units("2000"),
		},
		InnerLoans: []LoanSpec{
			{
				Provider: flashloan.ProviderAave,
				Lender:   env.AavePool,
				Token:    env.USDC,
				Amount:   env.USDC.Units("1000000"),
				FeeBps:   9,
			},
			{
				Provider:  flashloan.ProviderUniswap,
				Lender:    env.FundingPair,
				Token:     env.WETH,
				PairOther: env.USDC,
				Amount:    env.WETH.Units("500"),
				FeeBps:    35,
			},
		},
		Steps:        site.SBSSteps("900", "250"),
		ProfitTokens: []types.Token{env.WETH, env.USDC},
	}
	eoa, addr, err := env.NewAttacker(contract)
	if err != nil {
		t.Fatal(err)
	}
	// Buffer for the inner loans' fees.
	if err := env.Fund(addr, env.USDC, "2000"); err != nil {
		t.Fatal(err)
	}
	if err := env.Fund(addr, env.WETH, "10"); err != nil {
		t.Fatal(err)
	}
	r, err := env.ExecuteAttack(eoa, addr)
	if err != nil {
		t.Fatalf("attack: %v", err)
	}

	loans := flashloan.Identify(r)
	if len(loans) != 3 {
		t.Fatalf("identified %d loans, want 3: %v", len(loans), loans)
	}
	providers := map[flashloan.Provider]bool{}
	for _, l := range loans {
		providers[l.Provider] = true
		if l.Borrower != addr {
			t.Errorf("loan borrower = %s, want attack contract", l.Borrower.Short())
		}
	}
	if len(providers) != 3 {
		t.Errorf("providers = %v, want all three", providers)
	}

	det := detectorFor(&Result{Env: env})
	rep := det.Trace(r)
	if !rep.IsAttack || len(rep.BorrowerTags) != 1 {
		t.Fatalf("detection on multi-provider attack:\n%s", rep.Detail())
	}
}

// TestFailedAttackLeavesNoTrace injects a failure: the attack steps work
// but the flash loan cannot be repaid. Atomicity must erase everything —
// no transfers, no profit, nothing for the detector to see.
func TestFailedAttackLeavesNoTrace(t *testing.T) {
	env, err := NewEnv(scenarioGenesis)
	if err != nil {
		t.Fatal(err)
	}
	site, err := NewPoolSite(env, "Doomed", "DOOM", "1000", "1000000")
	if err != nil {
		t.Fatal(err)
	}
	contract := &AttackContract{
		Loan: LoanSpec{
			Provider: flashloan.ProviderAave,
			Lender:   env.AavePool,
			Token:    env.WETH,
			Amount:   env.WETH.Units("2000"),
			FeeBps:   9,
		},
		Steps: append(site.SBSSteps("900", "250"),
			// Burn the proceeds so repayment must fail.
			StepTransfer(env.Chain.NewEOA(""), env.WETH, AllBalance())),
		ProfitTokens: []types.Token{env.WETH},
	}
	eoa, addr, err := env.NewAttacker(contract)
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.ExecuteAttack(eoa, addr)
	if err == nil {
		t.Fatal("attack should have reverted")
	}
	if r.Success || len(r.Logs) != 0 || len(r.InternalTxs) != 0 {
		t.Fatalf("reverted attack left traces: %d logs, %d itxs", len(r.Logs), len(r.InternalTxs))
	}
	if len(flashloan.Identify(r)) != 0 {
		t.Error("loans identified in a reverted transaction")
	}
	// The pool is untouched.
	reserveIn, _, err := dex.Reserves(env.Chain, site.Pool, env.WETH, site.Asset)
	if err != nil {
		t.Fatal(err)
	}
	if reserveIn.ToUnits(18) != "1000" {
		t.Errorf("pool WETH reserve = %s after revert", reserveIn.ToUnits(18))
	}
}

// TestLaunderedProfitStillMerges covers §VI-D2: attackers forward profit
// through multi-level intermediary accounts; the merge rule's fixpoint
// still collapses the chain.
func TestLaunderedProfitStillMerges(t *testing.T) {
	sc, ok := ByName("Harvest Finance")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Launder the swept profit through two fresh mule accounts.
	m1 := res.Env.Chain.NewEOA("")
	m2 := res.Env.Chain.NewEOA("")
	amount := res.Profit
	for _, hop := range []struct{ from, to types.Address }{
		{res.AttackerEOA, m1}, {m1, m2},
	} {
		if r := res.Env.Chain.Send(hop.from, res.ProfitToken.Address, "transfer", hop.to, amount); !r.Success {
			t.Fatalf("hop: %s", r.Err)
		}
	}
	// Detection of the original attack is unaffected.
	rep := detectorFor(res).Trace(res.Receipt)
	if !rep.IsAttack {
		t.Fatalf("laundering broke detection:\n%s", rep.Detail())
	}
}

// TestDefenseEra reproduces the paper's Fig. 8 decline mechanism (§VI-D):
// after the 2020 attack wave, protocols deployed deposit/withdraw price
// deviation checks. A defended vault blocks the big-skew MBS attack — but
// attacks that keep the movement below the threshold still succeed (the
// paper counts 28 of 97 unknown attacks under 1% volatility against
// Harvest's 3% bound).
func TestDefenseEra(t *testing.T) {
	env, err := NewEnv(scenarioGenesis)
	if err != nil {
		t.Fatal(err)
	}
	// Harvest-style 3% defense.
	site, err := NewVaultSiteDefended(env, "Defended", "dUSD", "20000000", 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	mkAttack := func(deposit, skew string) (*evm.Receipt, error) {
		contract := &AttackContract{
			Loan: LoanSpec{
				Provider: flashloan.ProviderAave,
				Lender:   env.AavePool,
				Token:    env.USDC,
				Amount:   env.USDC.Units("40000000"),
				FeeBps:   9,
			},
			Steps:        site.MBSSteps(3, deposit, skew),
			ProfitTokens: []types.Token{env.USDC},
		}
		eoa, addr, err := env.NewAttacker(contract)
		if err != nil {
			return nil, err
		}
		// Fee buffer: the sub-threshold attack's tiny profit may not
		// cover the flash fee; the defense experiment only cares whether
		// the vault admits the manipulation.
		if err := env.Fund(addr, env.USDC, "100000"); err != nil {
			return nil, err
		}
		return env.Chain.Send(eoa, addr, "attack"), nil
	}

	// Big skew: the share price moves far beyond 3% — blocked.
	r, err := mkAttack("20000000", "14000000")
	if err != nil {
		t.Fatal(err)
	}
	if r.Success {
		t.Fatal("defended vault admitted a >3% manipulation")
	}
	if !strings.Contains(r.Err, "defense threshold") {
		t.Errorf("revert reason = %s", r.Err)
	}

	// Small skew: movement stays under the threshold — the defense cannot
	// stop it (the paper's residual-attack observation).
	r, err = mkAttack("20000000", "1500000")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("sub-threshold attack blocked: %s", r.Err)
	}
	if err := site.Restore(); err != nil {
		t.Fatal(err)
	}
}

// TestNonPriceManipulationAttacksNotFlagged is the negative control from
// the paper's §III-C: half the studied flash loan attacks exploit plain
// contract bugs, not prices. LeiShen must see the flash loan but report
// no pattern.
func TestNonPriceManipulationAttacksNotFlagged(t *testing.T) {
	cases := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"reentrancy (Akropolis-style)", RunReentrancyAttack},
		{"governance (Beanstalk-style)", RunGovernanceAttack},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatalf("attack failed: %v", err)
			}
			if res.Profit.IsZero() {
				t.Fatal("exploit made no profit")
			}
			loans := flashloan.Identify(res.Receipt)
			if len(loans) == 0 {
				t.Fatal("flash loan not identified")
			}
			rep := detectorFor(res).Trace(res.Receipt)
			if rep.IsAttack {
				t.Fatalf("non-price-manipulation exploit flagged as flpAttack:\n%s", rep.Detail())
			}
		})
	}
}

// TestReentrancyActuallyDoubles pins the exploit mechanics: the attacker
// withdraws twice the credit (paper: "withdraw twice the assets borrowed
// from flash loans" in Akropolis).
func TestReentrancyActuallyDoubles(t *testing.T) {
	res, err := RunReentrancyAttack()
	if err != nil {
		t.Fatal(err)
	}
	// Borrowed 2000, repaid 2000 (+2 wei dYdX fee): the profit is the
	// second, reentrant payout of ~2000 WETH.
	got := res.Profit.Rat(res.ProfitToken.Units("1"))
	if got < 1999 || got > 2001 {
		t.Errorf("profit = %.2f WETH, want ~2000", got)
	}
}

// TestGovernanceDrainsTreasury pins the Beanstalk mechanics.
func TestGovernanceDrainsTreasury(t *testing.T) {
	res, err := RunGovernanceAttack()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Profit.ToUnits(6); got != "10000000" {
		t.Errorf("drained = %s USDC, want the full 10M treasury", got)
	}
}
