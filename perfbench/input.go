package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/simplify"
	"leishen/internal/types"
	"leishen/internal/world"
)

// tailShape is the shape of a re-packed, mainnet-like block: a few flash
// loan receipts among many that the screen rejects.
const (
	tailReceipts = 150
	tailFlash    = 3
)

// input is everything generated from the seed before any program code
// is timed: the world's chain, its pre-mined blocks, and the receipt
// pools re-packed blocks are drawn from.
type input struct {
	corpus *world.Corpus
	// blocks are the world's pre-mined blocks, numbered 1..len(blocks).
	blocks []*evm.Block
	// flash and plain partition every receipt on the chain by the
	// follower's screen (successful flash loan transaction or not).
	flash, plain []*evm.Receipt
	rng          *rand.Rand
}

// generate builds the world for seed at the given traffic scale.
func generate(seed int64, scale int) (*input, error) {
	c, err := world.Generate(world.Config{Seed: seed, ScalePct: scale})
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	in := &input{corpus: c, blocks: c.Env.Chain.Blocks(), rng: rand.New(rand.NewSource(seed))}
	for i, b := range in.blocks {
		if b.Number != uint64(i+1) {
			return nil, fmt.Errorf("generate world: block %d at index %d", b.Number, i)
		}
		for _, r := range b.Receipts {
			if r.Success && flashloan.IsFlashLoanTx(r) {
				in.flash = append(in.flash, r)
			} else {
				in.plain = append(in.plain, r)
			}
		}
	}
	if len(in.flash) == 0 || len(in.plain) == 0 {
		return nil, fmt.Errorf("generate world: %d flash loan and %d plain receipts", len(in.flash), len(in.plain))
	}
	return in, nil
}

// fixedClock makes the report's elapsedMicros field zero, so archived
// report bytes are a pure function of the input and can be compared
// byte for byte with a replay.
func fixedClock() time.Time { return world.CorpusStart }

// detector builds the detector the way the follow daemon does, with the
// fixed clock.
func (in *input) detector() *core.Detector {
	env := in.corpus.Env
	return core.NewDetector(env.Chain, env.Registry, core.Options{
		Simplify: simplify.Options{WETH: env.WETH},
		Clock:    fixedClock,
	})
}

// repack builds n tail-shaped blocks numbered first, first+1, ... Each
// holds tailFlash shallow copies of flash loan receipts, renumbered to
// the new height under a fresh transaction hash so no report repeats,
// scattered among receipts the screen rejects. Rejected receipts are
// shared, not copied: nothing about them is archived. want[i] lists the
// hex hashes block first+i must archive.
func (in *input) repack(first uint64, n int) (blocks []*evm.Block, want [][]string) {
	out := make([]*evm.Block, n)
	want = make([][]string, n)
	t0 := in.blocks[len(in.blocks)-1].Time
	for i := range out {
		num := first + uint64(i)
		b := &evm.Block{Number: num, Time: t0.Add(time.Duration(num) * 12 * time.Second)}
		b.Receipts = make([]*evm.Receipt, tailReceipts)
		for j := range b.Receipts {
			b.Receipts[j] = in.plain[in.rng.Intn(len(in.plain))]
		}
		for j, pos := range in.rng.Perm(tailReceipts)[:tailFlash] {
			src := in.flash[in.rng.Intn(len(in.flash))]
			cp := *src
			var nb [16]byte
			binary.BigEndian.PutUint64(nb[:8], num)
			binary.BigEndian.PutUint64(nb[8:], uint64(j))
			cp.TxHash = types.HashFromData(src.TxHash[:], nb[:])
			cp.Block, cp.Time = num, b.Time
			b.Receipts[pos] = &cp
			want[i] = append(want[i], cp.TxHash.String())
		}
		out[i] = b
	}
	return out, want
}

// feed is the benchmark-owned follower.BlockSource: a fixed list of
// blocks numbered 1..len(blocks), of which the first head are visible.
// Backfill releases them all at once; the open-loop generator releases
// them one by one on its clock.
type feed struct {
	blocks []*evm.Block
	head   atomic.Uint64
}

func (f *feed) HeadBlock() (uint64, error) { return f.head.Load(), nil }

func (f *feed) BlockByNumber(n uint64) (*evm.Block, bool, error) {
	if n == 0 || n > f.head.Load() {
		return nil, false, nil
	}
	return f.blocks[n-1], true, nil
}

// release is the open-loop generator: it makes block first+k visible at
// start+k*interval for k in [0, n), tells the stepping loop through released,
// and records how late each release ran. It stops early when stop
// closes, and closes released when it returns.
type release struct {
	first    uint64
	n        int
	start    time.Time
	interval time.Duration
	released chan int  // block offsets k, sized to n so the generator never blocks
	late     []float64 // ns past due, per release
}

func (r *release) due(k int) time.Time { return r.start.Add(time.Duration(k) * r.interval) }

func (r *release) run(f *feed, stop <-chan struct{}) {
	defer close(r.released)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for k := 0; k < r.n; k++ {
		if d := time.Until(r.due(k)); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-stop:
				return
			}
		}
		f.head.Store(r.first + uint64(k))
		r.late = append(r.late, float64(time.Since(r.due(k))))
		r.released <- k
	}
}
