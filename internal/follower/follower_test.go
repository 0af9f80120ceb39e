package follower

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"leishen/internal/archive"
	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/uint256"
)

// testWorld builds a small deterministic chain — benign swap traffic in
// blocks 1 and 3, one Harvest-style vault attack in block 2 — plus a
// detector with an injected constant clock, so report bytes (including
// ElapsedMicros) are identical across runs and the resume test can
// demand byte-identical archives.
func testWorld(t *testing.T) (*attacks.Env, *core.Detector, types.Hash) {
	t.Helper()
	env, err := attacks.NewEnv(attacks.ScenarioGenesis())
	if err != nil {
		t.Fatal(err)
	}
	site, err := attacks.NewVaultSite(env, "Harvest", "fUSDC", "20000000", 10)
	if err != nil {
		t.Fatal(err)
	}

	trader := env.Chain.NewEOA("")
	if err := env.Fund(trader, env.WETH, "10"); err != nil {
		t.Fatal(err)
	}
	mustSend := func(from, to types.Address, method string, args ...any) {
		t.Helper()
		if r := env.Chain.Send(from, to, method, args...); !r.Success {
			t.Fatalf("%s: %s", method, r.Err)
		}
	}
	mustSend(trader, env.WETH.Address, "approve", env.FundingPair, uint256.Max())
	mustSend(trader, env.WETH.Address, "transfer", env.FundingPair, env.WETH.Units("5"))
	mustSend(trader, env.FundingPair, "sync")
	env.Chain.MineBlock() // block 1

	contract := &attacks.AttackContract{
		Loan: attacks.LoanSpec{
			Provider: flashloan.ProviderAave,
			Lender:   env.AavePool,
			Token:    env.USDC,
			Amount:   env.USDC.Units("40000000"),
			FeeBps:   9,
		},
		Steps:        site.MBSSteps(3, "20000000", "14000000"),
		ProfitTokens: []types.Token{env.USDC},
	}
	attacker, contractAddr, err := env.NewAttacker(contract)
	if err != nil {
		t.Fatal(err)
	}
	r := env.Chain.Send(attacker, contractAddr, "attack")
	if !r.Success {
		t.Fatalf("attack: %s", r.Err)
	}
	env.Chain.MineBlock() // block 2

	mustSend(trader, env.FundingPair, "sync")
	env.Chain.MineBlock() // block 3

	det := core.NewDetector(env.Chain, env.Registry, core.Options{
		Simplify: simplify.Options{WETH: env.WETH},
		Clock:    func() time.Time { return attacks.ScenarioGenesis() },
	})
	return env, det, r.TxHash
}

func openArchive(t *testing.T, dir string) *archive.Archive {
	t.Helper()
	a, err := archive.Open(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func follow(t *testing.T, src BlockSource, det *core.Detector, a *archive.Archive, opts Options) {
	t.Helper()
	f, err := New(src, det, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFollowArchivesAttack(t *testing.T) {
	env, det, attackTx := testWorld(t)
	a := openArchive(t, t.TempDir())
	defer a.Close()

	f, err := New(ChainSource(env.Chain), det, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Head != 3 || st.Checkpoint != 3 || st.Lag != 0 {
		t.Fatalf("stats after catch-up = %+v", st)
	}
	if st.Summary.Attacks != 1 {
		t.Fatalf("summary = %+v, want exactly 1 attack", st.Summary)
	}
	if st.WriterOps == 0 || st.WriterBatches == 0 || st.WriterSyncs == 0 {
		t.Fatalf("writer counters unset: %+v", st)
	}
	if st.WriterSyncs > st.WriterBatches || st.WriterBatches > st.WriterOps {
		t.Fatalf("writer counters inconsistent (want syncs <= batches <= ops): %+v", st)
	}
	rec, ok, err := a.Get(attackTx)
	if err != nil || !ok {
		t.Fatalf("attack report missing: ok=%v err=%v", ok, err)
	}
	if rec.Flags&archive.FlagAttack == 0 {
		t.Fatalf("attack record flags = %08b", rec.Flags)
	}
	rep, err := core.DecodeReportJSON(rec.Report)
	if err != nil {
		t.Fatalf("stored report does not decode: %v", err)
	}
	if !rep.IsAttack || rep.Block != 2 {
		t.Fatalf("stored report = %+v", rep)
	}

	// Caught up: another catch-up is a no-op.
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got := a.Count(); got != st.Summary.Inspected {
		t.Fatalf("idle catch-up changed the archive: %d records, summary %+v", got, st.Summary)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFromTornArchive is the acceptance property: kill the
// process at ANY byte of the archive (simulated by truncating the
// active segment), restart the follower against the same chain, and the
// repaired-plus-resumed archive must be byte-identical to one written
// by an uninterrupted run.
func TestResumeFromTornArchive(t *testing.T) {
	env, det, _ := testWorld(t)

	refDir := t.TempDir()
	refArc := openArchive(t, refDir)
	follow(t, ChainSource(env.Chain), det, refArc, Options{})
	if err := refArc.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(refDir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("reference archive segments: %v (err=%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(segs[0])

	// The log is append-only, so its prefix at cut c is exactly the disk
	// state of a run killed mid-write at that moment.
	stride := 1
	if testing.Short() {
		stride = 17
	}
	for cut := 0; cut <= len(data); cut += stride {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		a := openArchive(t, dir)
		follow(t, ChainSource(env.Chain), det, a, Options{})
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		resumed, err := os.ReadFile(filepath.Join(dir, segName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, data) {
			t.Fatalf("cut %d: resumed archive differs from the uninterrupted run (%d vs %d bytes)",
				cut, len(resumed), len(data))
		}
	}
}

// fakeSource is a reorg-able BlockSource: a mutable slice of blocks.
type fakeSource struct {
	mu     sync.Mutex
	blocks []*evm.Block
}

func (s *fakeSource) HeadBlock() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.blocks))
}

func (s *fakeSource) BlockByNumber(n uint64) (*evm.Block, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 1 || n > uint64(len(s.blocks)) {
		return nil, false
	}
	return s.blocks[n-1], true
}

// TestReorgRollback: the chain reorgs beneath the follower — blocks 2
// and 3 are replaced — and the follower must roll the archive back to
// the fork point and re-follow the new canonical branch, dropping the
// orphaned attack report.
func TestReorgRollback(t *testing.T) {
	env, det, attackTx := testWorld(t)
	canonical := env.Chain.Blocks()
	src := &fakeSource{blocks: canonical}

	a := openArchive(t, t.TempDir())
	defer a.Close()
	f, err := New(FromInfallible(src), det, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get(attackTx); !ok {
		t.Fatal("attack not archived before the reorg")
	}

	// Reorg: same block 1, empty block 2', and block 3' carrying block 3's
	// benign traffic a second later (a reorged branch re-times its blocks).
	b2 := &evm.Block{Number: 2, Time: canonical[1].Time.Add(time.Second)}
	b3 := &evm.Block{Number: 3, Time: canonical[2].Time.Add(time.Second), Receipts: canonical[2].Receipts}
	src.mu.Lock()
	src.blocks = []*evm.Block{canonical[0], b2, b3}
	src.mu.Unlock()

	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := a.Get(attackTx); err != nil || ok {
		t.Fatalf("orphaned attack report survived the reorg (ok=%v err=%v)", ok, err)
	}
	cp, ok := a.Checkpoint()
	if !ok || cp.Block != 3 || cp.Digest != BlockDigest(b3) {
		t.Fatalf("checkpoint after reorg = %+v ok=%v, want block 3 on the new branch", cp, ok)
	}
	cps := a.Checkpoints()
	if len(cps) < 2 || cps[1].Digest != BlockDigest(b2) {
		t.Fatalf("checkpoint trail after reorg = %+v", cps)
	}
}

// TestBackpressureQueue: a one-slot write queue forces the processing
// side to block on the writer and still archives everything.
func TestBackpressureQueue(t *testing.T) {
	env, det, attackTx := testWorld(t)
	a := openArchive(t, t.TempDir())
	defer a.Close()
	follow(t, ChainSource(env.Chain), det, a, Options{QueueSize: 1, Scan: scan.Options{Workers: 2, ChunkSize: 1}})
	if _, ok, err := a.Get(attackTx); err != nil || !ok {
		t.Fatalf("attack lost under backpressure: ok=%v err=%v", ok, err)
	}
	if cp, ok := a.Checkpoint(); !ok || cp.Block != 3 {
		t.Fatalf("checkpoint = %+v ok=%v", cp, ok)
	}
}

// TestGroupCommitBatch drives the writer's commit directly with one
// three-block batch and pins the group-commit contract: every append
// lands, exactly ONE fsync covers the whole batch, and the latest
// checkpoint only becomes observable once that sync has happened.
func TestGroupCommitBatch(t *testing.T) {
	env, det, _ := testWorld(t)
	a := openArchive(t, t.TempDir())
	defer a.Close()
	f, err := New(ChainSource(env.Chain), det, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var batch []*writeOp
	for b := uint64(1); b <= 3; b++ {
		op := &writeOp{}
		for i := 0; i < 4; i++ {
			op.recs = append(op.recs, archive.Record{
				Kind:   archive.KindReport,
				TxHash: types.HashFromData([]byte{byte(b), byte(i)}),
				Block:  b,
				Flags:  archive.FlagFlashLoan,
				Report: []byte(`{}`),
			})
		}
		blk, _ := env.Chain.BlockByNumber(b)
		op.cp = archive.Checkpoint{Block: b, Digest: BlockDigest(blk)}
		batch = append(batch, op)
	}
	f.commit(batch)

	st := f.Stats()
	if st.WriterBatches != 1 || st.WriterOps != 15 || st.WriterSyncs != 1 {
		t.Fatalf("one 15-op batch should cost one sync, got %+v", st)
	}
	cp, ok := a.Checkpoint()
	if !ok || cp.Block != 3 {
		t.Fatalf("checkpoint after commit = %+v ok=%v, want block 3", cp, ok)
	}
	if got := a.Count(); got != 12 {
		t.Fatalf("archived %d records, want 12", got)
	}
}
