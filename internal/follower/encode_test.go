package follower

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/metrics"
	"leishen/internal/scan"
	"leishen/internal/simplify"
	"leishen/internal/trace"
	"leishen/internal/types"
	"leishen/internal/uint256"
	"leishen/internal/vfs"
	"leishen/internal/world"
)

var (
	worldOnce sync.Once
	worldC    *world.Corpus
	worldErr  error
)

// seedWorld is the seed-7, scale-1 generated world: ~100 blocks of
// flash loan traffic, attacks and baits on one chain.
func seedWorld(tb testing.TB) *world.Corpus {
	tb.Helper()
	worldOnce.Do(func() { worldC, worldErr = world.Generate(world.Config{Seed: 7, ScalePct: 1}) })
	if worldErr != nil {
		tb.Fatalf("world: %v", worldErr)
	}
	return worldC
}

// worldDetector builds a detector over the world with the given token
// resolver (nil: the world's registry) and clock.
func worldDetector(c *world.Corpus, tokens trace.TokenResolver, clock func() time.Time) *core.Detector {
	if tokens == nil {
		tokens = c.Env.Registry
	}
	return core.NewDetector(c.Env.Chain, tokens, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    clock,
	})
}

func frozenClock() time.Time { return time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC) }

// screenedScan is what the archive must hold for a run of blocks: every
// successful receipt full identification accepts, inspected by
// scan.Scan and encoded with AppendJSON, in block order — the records
// the follower wrote when it screened with IsFlashLoanTx and encoded
// materialized reports.
func screenedScan(t *testing.T, det *core.Detector, blocks []*evm.Block) []archive.Record {
	t.Helper()
	var screened []*evm.Receipt
	for _, b := range blocks {
		for _, r := range b.Receipts {
			if r.Success && flashloan.IsFlashLoanTx(r) {
				screened = append(screened, r)
			}
		}
	}
	reps, _ := scan.Scan(det, screened, scan.Options{Workers: 1})
	out := make([]archive.Record, len(reps))
	for i, rep := range reps {
		raw, err := rep.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		var flags uint8
		if len(rep.Loans) > 0 {
			flags |= archive.FlagFlashLoan
		}
		if rep.IsAttack {
			flags |= archive.FlagAttack
		}
		if rep.SuppressedByHeuristic {
			flags |= archive.FlagSuppressed
		}
		out[i] = archive.Record{Kind: archive.KindReport, TxHash: rep.TxHash, Block: rep.Block, Flags: flags, Report: raw}
	}
	return out
}

// requireRecords compares the archive's reports, in append order, with
// want: identity, index flags and report bytes.
func requireRecords(t *testing.T, arc *archive.Archive, want []archive.Record, ctx string) {
	t.Helper()
	got, _, err := arc.Select(archive.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: archived %d reports, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.TxHash != w.TxHash || g.Block != w.Block || g.Flags != w.Flags || !bytes.Equal(g.Report, w.Report) {
			t.Fatalf("%s: record %d differs:\n got %x block %d flags %d %s\nwant %x block %d flags %d %s",
				ctx, i, g.TxHash, g.Block, g.Flags, g.Report, w.TxHash, w.Block, w.Flags, w.Report)
		}
	}
}

func memArchive(t testing.TB) *archive.Archive {
	t.Helper()
	arc, err := archive.OpenFS(vfs.NewMemFS(), "arc", archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return arc
}

// TestArchivedBytesMatchScan pins the encoded path byte for byte: the
// follower archives exactly the reports — same transactions, order,
// flags and bytes — that scan.Scan over the IsFlashLoanTx-screened
// receipts yields, for one worker, two workers, and one-receipt chunks.
func TestArchivedBytesMatchScan(t *testing.T) {
	c := seedWorld(t)
	det := worldDetector(c, nil, frozenClock)
	want := screenedScan(t, det, c.Env.Chain.Blocks())
	if len(want) < 1000 {
		t.Fatalf("world too small: %d flash loan reports", len(want))
	}
	for _, opts := range []scan.Options{{Workers: 1}, {Workers: 2}, {Workers: 2, ChunkSize: 1}} {
		arc := memArchive(t)
		follow(t, ChainSource(c.Env.Chain), det, arc, Options{Scan: opts})
		requireRecords(t, arc, want, "scan options "+optsName(opts))
		if err := arc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func optsName(o scan.Options) string {
	return fmt.Sprintf("workers=%d chunk=%d", o.Workers, o.ChunkSize)
}

// panicResolver is the world's token registry except for one token
// address, whose resolution panics — a latent detector bug reached by
// one hostile transaction.
type panicResolver struct {
	trace.TokenResolver
	poison types.Address
}

func (p panicResolver) Resolve(addr types.Address) (types.Token, bool) {
	if addr == p.poison {
		panic("poisoned token")
	}
	return p.TokenResolver.Resolve(addr)
}

// TestEdgeCandidates follows the world plus one crafted block: a
// receipt with a provider marker but no loan, which must be neither
// archived nor counted, and a flash loan whose detection panics, which
// must archive the same error verdict bytes a scan of the screened
// receipts produces.
func TestEdgeCandidates(t *testing.T) {
	c := seedWorld(t)
	poison := types.Address{0xde, 0xad}
	det := worldDetector(c, panicResolver{c.Env.Registry, poison}, frozenClock)

	blocks := append([]*evm.Block(nil), c.Env.Chain.Blocks()...)
	last := blocks[len(blocks)-1]
	n, at := last.Number+1, last.Time.Add(time.Hour)
	pool, borrower := types.Address{0xaa, 1}, types.Address{0xb0, 2}
	one := []uint256.Int{uint256.FromUint64(1)}
	decoy := &evm.Receipt{
		TxHash: types.HashFromData([]byte("decoy")), Block: n, Time: at, Success: true,
		Logs: []evm.Log{{Seq: 0, Address: pool, Event: "FlashLoan"}},
	}
	poisoned := &evm.Receipt{
		TxHash: types.HashFromData([]byte("poisoned")), Block: n, Time: at, Success: true,
		Logs: []evm.Log{
			{Seq: 0, Address: pool, Event: "FlashLoan", Addrs: []types.Address{borrower, poison}, Amounts: one},
			{Seq: 1, Address: poison, Event: "Transfer", Addrs: []types.Address{pool, borrower}, Amounts: one},
		},
	}
	if !flashloan.HasMarker(decoy) || flashloan.IsFlashLoanTx(decoy) || !flashloan.IsFlashLoanTx(poisoned) {
		t.Fatal("crafted receipts do not have the intended shapes")
	}
	blocks = append(blocks, &evm.Block{Number: n, Time: at, Receipts: []*evm.Receipt{decoy, poisoned}})

	want := screenedScan(t, det, blocks)
	tail := want[len(want)-1]
	if tail.TxHash != poisoned.TxHash || !bytes.Contains(tail.Report, []byte("detector panic")) {
		t.Fatalf("reference scan did not end on the poisoned error verdict: %s", tail.Report)
	}
	for _, opts := range []scan.Options{{Workers: 1}, {Workers: 2, ChunkSize: 1}} {
		arc := memArchive(t)
		reg := metrics.NewRegistry()
		m := scan.NewMetrics(reg)
		opts.Metrics = m
		f, err := New(FromInfallible(&fakeSource{blocks: blocks}), det, arc, Options{Scan: opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CatchUp(); err != nil {
			t.Fatal(err)
		}
		sum := f.Stats().Summary
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		requireRecords(t, arc, want, "scan options "+optsName(opts))
		if _, ok, err := arc.Get(decoy.TxHash); err != nil || ok {
			t.Fatalf("marker-only receipt archived (ok=%v err=%v)", ok, err)
		}
		if sum.Inspected != len(want) || sum.Errors != 1 || m.Panics.Value() != 1 {
			t.Fatalf("summary %+v, panics %d: want %d inspected, 1 error, 1 panic", sum, m.Panics.Value(), len(want))
		}
		if err := arc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanTelemetryParity checks that following a chain feeds the scan
// engine's telemetry and the follower's summary exactly what scanning
// each block's IsFlashLoanTx-screened receipts with scan.Each does:
// receipts, verdict classes, and every detection latency.
func TestScanTelemetryParity(t *testing.T) {
	c := seedWorld(t)
	// Each inspection reads the clock twice, so every Elapsed is one
	// tick and the latency sums are comparable.
	var ticks atomic.Int64
	clock := func() time.Time { return frozenClock().Add(time.Duration(ticks.Add(1)) * time.Microsecond) }
	det := worldDetector(c, nil, clock)

	ref := scan.NewMetrics(metrics.NewRegistry())
	var refSum scan.Summary
	for _, b := range c.Env.Chain.Blocks() {
		var screened []*evm.Receipt
		for _, r := range b.Receipts {
			if r.Success && flashloan.IsFlashLoanTx(r) {
				screened = append(screened, r)
			}
		}
		sum, err := scan.Each(det, screened, scan.Options{Workers: 1, Metrics: ref}, func(int, *core.Report) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		refSum.Add(sum)
	}

	got := scan.NewMetrics(metrics.NewRegistry())
	arc := memArchive(t)
	defer arc.Close()
	f, err := New(ChainSource(c.Env.Chain), det, arc, Options{Scan: scan.Options{Workers: 1, Metrics: got}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	sum := f.Stats().Summary
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if sum != refSum || sum.FlashLoans == 0 || sum.Attacks == 0 {
		t.Errorf("follower summary = %+v, want %+v", sum, refSum)
	}
	for _, s := range []struct {
		name      string
		got, want uint64
	}{
		{"txs", got.Txs.Value(), ref.Txs.Value()},
		{"flash loans", got.FlashLoans.Value(), ref.FlashLoans.Value()},
		{"attacks", got.Attacks.Value(), ref.Attacks.Value()},
		{"suppressed", got.Suppressed.Value(), ref.Suppressed.Value()},
		{"detect-seconds count", got.DetectSeconds.Count(), ref.DetectSeconds.Count()},
	} {
		if s.got != s.want {
			t.Errorf("%s = %d, want %d", s.name, s.got, s.want)
		}
	}
	if g, w := got.DetectSeconds.Sum(), ref.DetectSeconds.Sum(); g != w {
		t.Errorf("detect-seconds sum = %g, want %g", g, w)
	}
	if got.Txs.Value() != uint64(sum.Inspected) {
		t.Errorf("txs = %d, summary inspected %d", got.Txs.Value(), sum.Inspected)
	}
}

// BenchmarkFollowerCatchUp follows the seed-7, scale-1 world into an
// in-memory archive from scratch each iteration, reporting archived
// flash loan transactions per second of follower time and bytes
// allocated per archived transaction (Step, the scan workers and the
// writer together).
func BenchmarkFollowerCatchUp(b *testing.B) {
	c := seedWorld(b)
	det := worldDetector(c, nil, frozenClock)
	var (
		txs        int
		allocBytes uint64
		ms         runtime.MemStats
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		arc := memArchive(b)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		f, err := New(ChainSource(c.Env.Chain), det, arc, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.CatchUp(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocBytes += ms.TotalAlloc - before
		txs += f.Stats().Summary.FlashLoans
		if err := arc.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if txs == 0 {
		b.Fatal("no flash loan transactions archived")
	}
	b.ReportMetric(float64(txs)/b.Elapsed().Seconds(), "tx/s")
	b.ReportMetric(float64(allocBytes)/float64(txs), "B/tx")
}
