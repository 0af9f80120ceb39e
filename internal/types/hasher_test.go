package types

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// fnvHashFromData is HashFromData as first written on hash/fnv: the
// reference the streamed DataHasher must reproduce bit for bit, since
// archived tx hashes and block digests were minted with it.
func fnvHashFromData(parts ...[]byte) Hash {
	h := fnv.New128a()
	for _, p := range parts {
		var lb [8]byte
		binary.BigEndian.PutUint64(lb[:], uint64(len(p)))
		h.Write(lb[:])
		h.Write(p)
	}
	sum := h.Sum(nil)
	var out Hash
	copy(out[:16], sum)
	h2 := fnv.New128()
	h2.Write(sum)
	copy(out[16:], h2.Sum(nil))
	return out
}

// TestDataHasherMatchesFNV pins HashFromData (and the DataHasher it
// streams through) to the hash/fnv formula on random part lists,
// including empty parts and the no-part case.
func TestDataHasherMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		parts := make([][]byte, rng.Intn(6))
		for i := range parts {
			parts[i] = make([]byte, rng.Intn(70))
			rng.Read(parts[i])
		}
		want := fnvHashFromData(parts...)
		if got := HashFromData(parts...); got != want {
			t.Fatalf("trial %d: HashFromData = %s, fnv reference %s", trial, got, want)
		}
		h := NewDataHasher()
		for _, p := range parts {
			h.Part(p)
		}
		if got := h.Sum(); got != want {
			t.Fatalf("trial %d: streamed = %s, fnv reference %s", trial, got, want)
		}
	}
	// A golden from before the streamed form existed.
	if got, want := HashFromData([]byte("golden"), []byte{0}).String(), fnvHashFromData([]byte("golden"), []byte{0}).String(); got != want {
		t.Fatalf("golden: %s, want %s", got, want)
	}
}

// TestDataHasherAllocs pins that streaming parts allocates nothing.
func TestDataHasherAllocs(t *testing.T) {
	part := []byte("part")
	var sink Hash
	allocs := testing.AllocsPerRun(100, func() {
		h := NewDataHasher()
		h.Part(part)
		h.Part(part[:2])
		sink = h.Sum()
	})
	if allocs != 0 {
		t.Fatalf("DataHasher allocates %.1f objects per hash, want 0", allocs)
	}
	_ = sink
}
