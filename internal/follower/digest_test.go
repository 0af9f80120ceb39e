package follower

import (
	"encoding/binary"
	"testing"
	"time"

	"leishen/internal/evm"
	"leishen/internal/types"
)

// blockDigestParts is BlockDigest's original formula: HashFromData over
// a materialized part list. Archived checkpoints and reorg detection
// compare against digests minted with it.
func blockDigestParts(b *evm.Block) types.Hash {
	parts := make([][]byte, 0, 2+len(b.Receipts))
	var nb, tb [8]byte
	binary.BigEndian.PutUint64(nb[:], b.Number)
	binary.BigEndian.PutUint64(tb[:], uint64(b.Time.UnixNano()))
	parts = append(parts, nb[:], tb[:])
	for _, r := range b.Receipts {
		parts = append(parts, r.TxHash[:])
	}
	return types.HashFromData(parts...)
}

// goldenBlock is a fixed three-transaction block.
func goldenBlock() *evm.Block {
	b := &evm.Block{Number: 13_000_001, Time: time.Date(2021, 8, 10, 12, 0, 0, 0, time.UTC)}
	for i := 0; i < 3; i++ {
		b.Receipts = append(b.Receipts, &evm.Receipt{TxHash: types.HashFromData([]byte("golden"), []byte{byte(i)})})
	}
	return b
}

// TestBlockDigestGolden pins the block digest byte for byte: goldens
// recorded from the part-list formula, on a fixed block, an empty
// block, and folded over every block of the seed-7 world — plus
// per-block equality with that formula.
func TestBlockDigestGolden(t *testing.T) {
	if got, want := BlockDigest(goldenBlock()).String(), "0xa27f6f9055a7f6a227c525cd85b811dbb322c102c21f7e2ffe224660f87bf884"; got != want {
		t.Errorf("golden block digest %s, want %s", got, want)
	}
	if got, want := BlockDigest(&evm.Block{Time: time.Unix(0, 0)}).String(), "0x40e3fee7d3a9ca1f8b6bebe3c331310dd1e11209cd9624563a5126f3abcfb6a8"; got != want {
		t.Errorf("empty block digest %s, want %s", got, want)
	}
	blocks := seedWorld(t).Env.Chain.Blocks()
	var all []byte
	for _, b := range blocks {
		d := BlockDigest(b)
		if ref := blockDigestParts(b); d != ref {
			t.Fatalf("block %d: digest %s, part-list formula %s", b.Number, d, ref)
		}
		all = append(all, d[:]...)
	}
	if len(blocks) != 120 {
		t.Fatalf("seed-7 world has %d blocks, want 120", len(blocks))
	}
	if got, want := types.HashFromData(all).String(), "0x7e6154f54acd76845db1eee8992a8bc9e8dd9a03d8bce8c216feb95f862efa1b"; got != want {
		t.Errorf("seed-7 world digest fold %s, want %s", got, want)
	}
}

// TestBlockDigestAllocs pins that digesting a block allocates nothing:
// it runs on Step's serial path once per block.
func TestBlockDigestAllocs(t *testing.T) {
	b := goldenBlock()
	var sink types.Hash
	allocs := testing.AllocsPerRun(100, func() { sink = BlockDigest(b) })
	if allocs != 0 {
		t.Fatalf("BlockDigest allocates %.1f objects per block, want 0", allocs)
	}
	_ = sink
}
