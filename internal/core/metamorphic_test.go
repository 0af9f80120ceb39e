package core_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// TestMetamorphicSimplifyRules checks two metamorphic relations the
// §V-B2 simplification rules define, over every flash loan of the
// seed-7, scale-1 corpus and the 22 scenarios:
//
//   - rule 1: a Transfer appended after the last log, between two
//     distinct accounts of one application, is intra-application and
//     must be dropped;
//   - rule 2a: a WETH Transfer appended to or from the WETH contract
//     must be dropped.
//
// Either edit adds one account-level transfer and must leave the wire
// bytes and the application-level history unchanged.
func TestMetamorphicSimplifyRules(t *testing.T) {
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	ran := 0
	check := func(name string, env *attacks.Env, receipts []*evm.Receipt) {
		det := core.NewDetector(env.Chain, env.Registry, core.Options{
			Simplify: simplify.Options{WETH: env.WETH},
			Clock:    func() time.Time { return tick },
		})
		a, b := sameAppPair(t, det, env)
		for i, r := range receipts {
			base := det.Trace(r)
			if len(base.Loans) == 0 {
				continue
			}
			ran++
			intraApp := transferLog(r, env.USDC.Address, a, b)
			weth := transferLog(r, env.WETH.Address, env.WETH.Address, base.Loans[0].Borrower)
			if i%2 == 1 {
				weth.Addrs[0], weth.Addrs[1] = weth.Addrs[1], weth.Addrs[0]
			}
			for _, e := range []struct {
				rule string
				lg   evm.Log
			}{{"rule 1", intraApp}, {"rule 2a", weth}} {
				m := *r
				m.Logs = append(slices.Clip(r.Logs), e.lg)
				got := det.Trace(&m)
				if len(got.Transfers) != len(base.Transfers)+1 {
					t.Fatalf("%s receipt %d (%s): %s edit not extracted", name, i, r.TxHash.Short(), e.rule)
				}
				if !bytes.Equal(wire(t, got.Report), wire(t, base.Report)) || !slices.Equal(got.AppTransfers, base.AppTransfers) {
					t.Fatalf("%s receipt %d (%s): %s kept the appended transfer\nbase:\n%s\nedited:\n%s",
						name, i, r.TxHash.Short(), e.rule, base.Detail(), got.Detail())
				}
			}
		}
	}
	c := referenceCorpus(t)
	check("corpus", c.Env, c.Receipts)
	corpus := ran
	for _, sc := range attacks.All() {
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		check(sc.Name, res.Env, []*evm.Receipt{res.Receipt})
	}
	if corpus == 0 || ran-corpus != 22 {
		t.Fatalf("relations ran on %d corpus and %d scenario receipts", corpus, ran-corpus)
	}
	t.Logf("each relation held on %d corpus flash loans and %d scenarios", corpus, ran-corpus)
}

// sameAppPair returns the first two distinct snapshot accounts, in
// address order, that share an application tag other than WETH's.
func sameAppPair(t *testing.T, det *core.Detector, env *attacks.Env) (types.Address, types.Address) {
	t.Helper()
	first := map[types.TagID]types.Address{}
	for _, addr := range env.Chain.Accounts() {
		id := det.Tagger().TagIDOf(addr)
		tag := det.Tagger().ResolveTag(id)
		if !tag.IsApp() || tag.Name == simplify.WETHAppName {
			continue
		}
		if prev, ok := first[id]; ok {
			return prev, addr
		}
		first[id] = addr
	}
	t.Fatal("no application owns two accounts")
	return types.Address{}, types.Address{}
}

// transferLog builds an ERC20 Transfer of token from one account to
// another, emitted after everything else in r.
func transferLog(r *evm.Receipt, token, from, to types.Address) evm.Log {
	var seq uint64
	for _, lg := range r.Logs {
		seq = max(seq, lg.Seq)
	}
	for _, it := range r.InternalTxs {
		seq = max(seq, it.Seq)
	}
	return evm.Log{
		Seq:     seq + 1,
		Address: token,
		Event:   "Transfer",
		Addrs:   []types.Address{from, to},
		Amounts: []uint256.Int{uint256.FromUint64(1_000_000)},
	}
}

func wire(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	out, err := rep.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
