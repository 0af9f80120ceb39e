package simplify

import (
	"slices"
	"testing"
	"testing/quick"

	"leishen/internal/types"
	"leishen/internal/uint256"
)

var (
	wethTok = types.Token{Address: types.Address{0xEE}, Symbol: "WETH", Decimals: 18}
	wbtcTok = types.Token{Address: types.Address{0xBB}, Symbol: "WBTC", Decimals: 8}
)

// ids interns the tests' hand-built tags and tokens the way the tagger
// and the token interner do: one id per distinct value, NoTag and ETH at
// their reserved ids.
type ids struct {
	tags []types.Tag
	toks []types.Token
}

func (x *ids) tag(g types.Tag) types.TagID {
	if g.IsNone() {
		return types.NoTagID
	}
	if i := slices.Index(x.tags, g); i >= 0 {
		return types.TagID(i + 1)
	}
	x.tags = append(x.tags, g)
	return types.TagID(len(x.tags))
}

func (x *ids) tok(t types.Token) types.TokenID {
	if t.IsETH() {
		return types.ETHTokenID
	}
	if i := slices.IndexFunc(x.toks, func(u types.Token) bool { return u.Address == t.Address }); i >= 0 {
		return types.TokenID(i + 1)
	}
	x.toks = append(x.toks, t)
	return types.TokenID(len(x.toks))
}

var tab ids

func tt(seq uint64, sender, receiver types.Address, sTag, rTag types.Tag, amount uint64, tok types.Token) types.ITransfer {
	return types.ITransfer{
		Seq: seq, Sender: sender, Receiver: receiver,
		SenderTag: tab.tag(sTag), ReceiverTag: tab.tag(rTag),
		Amount: uint256.FromUint64(amount), Token: tab.tok(tok),
	}
}

// simplifyAll resolves opts against the interned ids and simplifies a
// copy of transfers into a fresh scratch.
func simplifyAll(transfers []types.ITransfer, opts Options) []types.ITransfer {
	rules := ResolveRules(opts,
		func(g types.Tag) (types.TagID, bool) { return tab.tag(g), true },
		func(a types.Address) types.TokenID { return tab.tok(types.Token{Address: a}) })
	return SimplifyInterned(slices.Clone(transfers), rules, &IScratch{})
}

var (
	addrA = types.Address{1}
	addrB = types.Address{2}
	addrC = types.Address{3}
	tagA  = types.AppTag("Alpha")
	tagB  = types.AppTag("Beta")
	tagC  = types.AppTag("Gamma")
)

func TestIntraAppRemoved(t *testing.T) {
	in := []types.ITransfer{
		tt(0, addrA, addrB, tagA, tagA, 100, wbtcTok), // intra-app: removed
		tt(1, addrA, addrB, tagA, tagB, 100, wbtcTok), // kept
	}
	out := simplifyAll(in, Options{})
	if len(out) != 1 || out[0].Seq != 1 {
		t.Errorf("out = %v", out)
	}
	// Rule disabled keeps both.
	out = simplifyAll(in, Options{DisableIntraAppRule: true, DisableMergeRule: true})
	if len(out) != 2 {
		t.Errorf("disabled rule: out = %v", out)
	}
}

func TestIntraAppKeepsMintsAndUnknowns(t *testing.T) {
	in := []types.ITransfer{
		// Mint: BlackHole sender; tags both RootTag(zero): must survive.
		tt(0, types.ZeroAddress, addrA, types.RootTag(types.ZeroAddress), types.RootTag(types.ZeroAddress), 5, wbtcTok),
		// Untaggable pair: kept (no evidence they are the same app).
		tt(1, addrA, addrB, types.NoTag(), types.NoTag(), 5, wbtcTok),
	}
	out := simplifyAll(in, Options{})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if !out[0].FromBlackHole {
		t.Error("mint flag lost")
	}
}

func TestWETHRule(t *testing.T) {
	wethTag := types.AppTag(WETHAppName)
	in := []types.ITransfer{
		tt(0, addrA, addrB, tagA, wethTag, 100, types.ETH), // wrap leg: removed
		tt(1, addrB, addrA, wethTag, tagA, 100, wethTok),   // mint leg: removed
		tt(2, addrA, addrC, tagA, tagB, 100, wethTok),      // WETH payment: kept, unified to ETH
		tt(3, addrC, addrA, tagB, tagA, 50, wbtcTok),       // untouched
	}
	out := simplifyAll(in, Options{WETH: wethTok, DisableMergeRule: true})
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	if !out[0].Token.IsETH() {
		t.Errorf("WETH not unified: %v", out[0].Token)
	}
	if out[1].Token != tab.tok(wbtcTok) {
		t.Errorf("unexpected second transfer: %v", out[1])
	}
	// Disabled: all four survive, WETH stays WETH.
	out = simplifyAll(in, Options{WETH: wethTok, DisableWETHRule: true, DisableMergeRule: true})
	if len(out) != 4 || out[2].Token != tab.tok(wethTok) {
		t.Errorf("disabled rule: %v", out)
	}
}

func TestMergeInterApp(t *testing.T) {
	// A -> B (intermediary) -> C with a 0.05% fee: merge into A -> C.
	in := []types.ITransfer{
		tt(0, addrA, addrB, tagA, tagB, 100000, wbtcTok),
		tt(1, addrB, addrC, tagB, tagC, 99950, wbtcTok),
	}
	out := simplifyAll(in, Options{})
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	m := out[0]
	if m.SenderTag != tab.tag(tagA) || m.ReceiverTag != tab.tag(tagC) {
		t.Errorf("merged parties = %d -> %d", m.SenderTag, m.ReceiverTag)
	}
	// The received amount is what arrived at the true counterparty.
	if m.Amount.Uint64() != 99950 {
		t.Errorf("merged amount = %s", m.Amount)
	}
}

func TestMergeToleranceBoundary(t *testing.T) {
	mk := func(second uint64) []types.ITransfer {
		return []types.ITransfer{
			tt(0, addrA, addrB, tagA, tagB, 100000, wbtcTok),
			tt(1, addrB, addrC, tagB, tagC, second, wbtcTok),
		}
	}
	// Exactly 0.1% difference merges.
	if out := simplifyAll(mk(99900), Options{}); len(out) != 1 {
		t.Errorf("0.1%% diff did not merge: %v", out)
	}
	// Beyond 0.1% does not.
	if out := simplifyAll(mk(99899), Options{}); len(out) != 2 {
		t.Errorf("0.11%% diff merged: %v", out)
	}
	// Custom tolerance.
	if out := simplifyAll(mk(99000), Options{MergeToleranceBps: 100}); len(out) != 1 {
		t.Errorf("1%% tolerance did not merge: %v", out)
	}
}

func TestMergeMultiLevelIntermediaries(t *testing.T) {
	// Money laundering through two intermediaries: A -> B -> C -> D.
	tagD := types.AppTag("Delta")
	in := []types.ITransfer{
		tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
		tt(1, addrB, addrC, tagB, tagC, 1000, wbtcTok),
		tt(2, addrC, addrA, tagC, tagD, 1000, wbtcTok),
	}
	out := simplifyAll(in, Options{})
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	if out[0].SenderTag != tab.tag(tagA) || out[0].ReceiverTag != tab.tag(tagD) {
		t.Errorf("fixpoint merge = %d -> %d", out[0].SenderTag, out[0].ReceiverTag)
	}
}

func TestMergeRejectsRoundTripAndMismatches(t *testing.T) {
	cases := map[string][]types.ITransfer{
		"different token": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrB, addrC, tagB, tagC, 1000, wethTok),
		},
		"different amounts": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrB, addrC, tagB, tagC, 500, wbtcTok),
		},
		"no shared intermediary": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrC, addrA, tagC, tagA, 1000, wbtcTok),
		},
		"round trip A->B->A": {
			tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
			tt(1, addrB, addrA, tagB, tagA, 1000, wbtcTok),
		},
	}
	for name, in := range cases {
		if out := simplifyAll(in, Options{}); len(out) != 2 {
			t.Errorf("%s: merged unexpectedly: %v", name, out)
		}
	}
}

func TestMergeDisabled(t *testing.T) {
	in := []types.ITransfer{
		tt(0, addrA, addrB, tagA, tagB, 1000, wbtcTok),
		tt(1, addrB, addrC, tagB, tagC, 1000, wbtcTok),
	}
	if out := simplifyAll(in, Options{DisableMergeRule: true}); len(out) != 2 {
		t.Errorf("merge ran while disabled: %v", out)
	}
}

func TestWithinTolerance(t *testing.T) {
	if !withinTolerance(uint256.FromUint64(0), uint256.FromUint64(0), 10) {
		t.Error("0 vs 0 should be within tolerance")
	}
	if withinTolerance(uint256.FromUint64(0), uint256.FromUint64(1), 10) {
		t.Error("0 vs 1 within 0.1%")
	}
	// No overflow near Max.
	if !withinTolerance(uint256.Max(), uint256.Max(), 10) {
		t.Error("Max vs Max")
	}
}

// Property: simplification never increases transfer count and preserves
// happened-before ordering.
func TestQuickSimplifyOrderAndSize(t *testing.T) {
	tags := []types.Tag{tagA, tagB, tagC, types.NoTag()}
	toks := []types.Token{wbtcTok, wethTok}
	f := func(raw []uint16) bool {
		var in []types.ITransfer
		for i, r := range raw {
			if i >= 24 {
				break
			}
			in = append(in, tt(uint64(i),
				types.Address{byte(r % 5)}, types.Address{byte((r >> 3) % 5)},
				tags[int(r)%len(tags)], tags[int(r>>2)%len(tags)],
				uint64(r%1000)+1, toks[int(r>>5)%len(toks)]))
		}
		out := simplifyAll(in, Options{WETH: wethTok})
		if len(out) > len(in) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].Seq > out[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
