package tagging

import (
	"testing"
	"time"

	"leishen/internal/evm"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// spawnChild makes a factory-style contract create one child per call.
type spawner struct{}

func (spawner) Call(env *evm.Env, method string, args []any) ([]any, error) {
	switch method {
	case "spawn":
		child, err := env.Create(spawner{}, "")
		if err != nil {
			return nil, err
		}
		return []any{child}, nil
	case "spawnLabeled":
		label, err := evm.Arg[string](args, 0)
		if err != nil {
			return nil, err
		}
		child, err := env.Create(spawner{}, label)
		if err != nil {
			return nil, err
		}
		return []any{child}, nil
	default:
		return nil, evm.Revertf("unknown %q", method)
	}
}

// tagOf resolves an account's tag through the tagger's id table.
func tagOf(tg *Tagger, a types.Address) types.Tag { return tg.ResolveTag(tg.TagIDOf(a)) }

func spawn(t *testing.T, ch *evm.Chain, from, factory types.Address) types.Address {
	t.Helper()
	r := ch.Send(from, factory, "spawn")
	if !r.Success {
		t.Fatal(r.Err)
	}
	return r.Return[0].(types.Address)
}

func TestAppOfLabel(t *testing.T) {
	cases := map[string]string{
		"Uniswap: Factory Contract": "Uniswap",
		"Uniswap":                   "Uniswap",
		" Aave : Pool ":             "Aave",
	}
	for in, want := range cases {
		if got := AppOfLabel(in); got != want {
			t.Errorf("AppOfLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// Paper Fig. 7(a): a tree with a single labeled node tags every node.
func TestSingleTagPropagatesWholeTree(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	deployer := ch.NewEOA("") // unlabeled EOA root
	factory := ch.MustDeploy(deployer, spawner{}, "Uniswap: Factory Contract")
	pool1 := spawn(t, ch, deployer, factory)
	pool2 := spawn(t, ch, deployer, factory)
	grandchild := spawn(t, ch, deployer, pool1)

	tg := New(ch)
	for _, a := range []types.Address{factory, pool1, pool2, grandchild} {
		if got := tagOf(tg, a); got != types.AppTag("Uniswap") {
			t.Errorf("Tag(%s) = %s, want Uniswap", a.Short(), got)
		}
	}
	// The unlabeled EOA root inherits the descendant label too.
	if got := tagOf(tg, deployer); got != types.AppTag("Uniswap") {
		t.Errorf("Tag(deployer) = %s", got)
	}
}

// Paper Fig. 7(b): a label-free tree tags every node with the root address.
func TestUnlabeledTreeTagsWithRoot(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	attacker := ch.NewEOA("")
	contract := ch.MustDeploy(attacker, spawner{}, "")
	child := spawn(t, ch, attacker, contract)

	tg := New(ch)
	want := types.RootTag(attacker)
	for _, a := range []types.Address{attacker, contract, child} {
		if got := tagOf(tg, a); got != want {
			t.Errorf("Tag(%s) = %s, want %s", a.Short(), got, want)
		}
	}
	// A different tree has a different root tag.
	other := ch.NewEOA("")
	otherContract := ch.MustDeploy(other, spawner{}, "")
	tg = New(ch)
	if tagOf(tg, otherContract) == want {
		t.Error("distinct trees share a root tag")
	}
}

// Paper Fig. 7(c): conflicting labels leave sandwiched nodes untaggable,
// while directly labeled nodes keep their own label.
func TestConflictingTagsLeaveNodesUntagged(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	deployer := ch.NewEOA("Yearn: Deployer")
	mid := ch.MustDeploy(deployer, spawner{}, "")
	// mid creates a Uniswap-labeled pool: the open-deployment case.
	r := ch.Send(deployer, mid, "spawnLabeled", "Uniswap: Pool")
	if !r.Success {
		t.Fatal(r.Err)
	}
	pool := r.Return[0].(types.Address)

	tg := New(ch)
	if got := tagOf(tg, mid); !got.IsNone() {
		t.Errorf("Tag(mid) = %s, want untagged", got)
	}
	// Directly labeled nodes retain their labels.
	if got := tagOf(tg, deployer); got != types.AppTag("Yearn") {
		t.Errorf("Tag(deployer) = %s", got)
	}
	if got := tagOf(tg, pool); got != types.AppTag("Uniswap") {
		t.Errorf("Tag(pool) = %s", got)
	}
}

func TestExcludedLabelsIgnored(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	attacker := ch.NewEOA("")
	contract := ch.MustDeploy(attacker, spawner{}, "Fake Phishing: Exploiter")

	tg := New(ch)
	if got := tagOf(tg, contract); got != types.AppTag("Fake Phishing") {
		t.Fatalf("precondition: label should apply, got %s", got)
	}
	// The paper removes attacker labels before detection: the tree then
	// falls back to root tagging.
	tg = New(ch, contract)
	if got := tagOf(tg, contract); got != types.RootTag(attacker) {
		t.Errorf("Tag with exclusion = %s, want root tag", got)
	}
}

func TestUnknownAddressIsOwnRoot(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	tg := New(ch)
	stranger := types.Address{0xAB, 0xCD}
	if got := tagOf(tg, stranger); got != types.RootTag(stranger) {
		t.Errorf("Tag(stranger) = %s", got)
	}
	if got := tagOf(tg, types.ZeroAddress); got != types.RootTag(types.ZeroAddress) {
		t.Errorf("Tag(zero) = %s", got)
	}
	if got := tg.Root(stranger); got != stranger {
		t.Errorf("Root(stranger) = %s", got)
	}
}

func TestTagTransfers(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	deployer := ch.NewEOA("")
	uni := ch.MustDeploy(deployer, spawner{}, "Uniswap: Factory")
	user := ch.NewEOA("")
	tg := New(ch)

	in := []types.ITransfer{
		{Seq: 3, Sender: user, Receiver: uni, Amount: uint256.FromUint64(7), Token: 1},
	}
	tg.TagTransferIDs(in)
	tt := in[0]
	if got := tg.ResolveTag(tt.SenderTag); got != types.RootTag(user) {
		t.Errorf("sender tag = %s", got)
	}
	if got := tg.ResolveTag(tt.ReceiverTag); got != types.AppTag("Uniswap") {
		t.Errorf("receiver tag = %s", got)
	}
	if tt.Seq != 3 || tt.Sender != user || tt.Receiver != uni || tt.Amount.Uint64() != 7 || tt.Token != 1 {
		t.Errorf("payload lost: %+v", tt)
	}
}

// Sibling subtrees under a labeled root both inherit the root's label even
// when one subtree is otherwise bare — the "ancestors" half of the rule.
func TestAncestorLabelReachesLeaves(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	deployer := ch.NewEOA("Balancer: Deployer")
	factory := ch.MustDeploy(deployer, spawner{}, "")
	leaf := spawn(t, ch, deployer, factory)
	tg := New(ch)
	if got := tagOf(tg, leaf); got != types.AppTag("Balancer") {
		t.Errorf("Tag(leaf) = %s", got)
	}
}

func TestStats(t *testing.T) {
	ch := evm.NewChain(time.Unix(0, 0))
	// A labeled tree (3 accounts tagged "Uniswap"), an unlabeled tree
	// (2 accounts root-tagged), and a conflicted pair.
	d1 := ch.NewEOA("")
	uni := ch.MustDeploy(d1, spawner{}, "Uniswap: Factory")
	spawn(t, ch, d1, uni)
	d2 := ch.NewEOA("")
	ch.MustDeploy(d2, spawner{}, "")
	d3 := ch.NewEOA("Yearn: Deployer")
	mid := ch.MustDeploy(d3, spawner{}, "")
	r := ch.Send(d3, mid, "spawnLabeled", "Uniswap: Pool")
	if !r.Success {
		t.Fatal(r.Err)
	}

	s := New(ch).Stats()
	if s.Accounts != 8 {
		t.Errorf("accounts = %d", s.Accounts)
	}
	if s.Conflicted != 1 { // mid sits between Yearn and Uniswap labels
		t.Errorf("conflicted = %d", s.Conflicted)
	}
	if s.AppTagged < 5 {
		t.Errorf("appTagged = %d", s.AppTagged)
	}
	if s.ConflictPct() <= 0 || s.ConflictPct() >= 100 {
		t.Errorf("conflictPct = %f", s.ConflictPct())
	}
	if (Stats{}).ConflictPct() != 0 {
		t.Error("empty stats")
	}
}
