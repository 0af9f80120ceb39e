package scan_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"leishen/internal/evm"
	"leishen/internal/scan"
	"leishen/internal/uint256"
)

// mutate applies FuzzInspect's edits (internal/core/inspect_fuzz_test.go)
// to a deep copy of r, two bytes per edit: an opcode and an argument
// choosing the log or internal transaction. Logs are dropped,
// duplicated, swapped with their successor, or have their Addrs or
// Amounts truncated; amounts and internal values are set to zero or the
// maximum uint256.
func mutate(r *evm.Receipt, ops []byte) *evm.Receipt {
	m := *r
	m.Logs = slices.Clone(r.Logs)
	for i := range m.Logs {
		m.Logs[i].Addrs = slices.Clone(m.Logs[i].Addrs)
		m.Logs[i].Amounts = slices.Clone(m.Logs[i].Amounts)
	}
	m.InternalTxs = slices.Clone(r.InternalTxs)
	extreme := func(arg int) uint256.Int {
		if arg&1 == 0 {
			return uint256.Zero()
		}
		return uint256.Max()
	}
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0]%8, int(ops[1])
		if op == 7 {
			if len(m.InternalTxs) > 0 {
				m.InternalTxs[arg%len(m.InternalTxs)].Value = extreme(arg)
			}
			continue
		}
		if len(m.Logs) == 0 {
			continue
		}
		k := arg % len(m.Logs)
		lg := &m.Logs[k]
		switch op {
		case 0:
			m.Logs = slices.Delete(m.Logs, k, k+1)
		case 1:
			m.Logs = slices.Insert(m.Logs, k, *lg)
		case 2:
			j := (k + 1) % len(m.Logs)
			m.Logs[k], m.Logs[j] = m.Logs[j], m.Logs[k]
		case 3:
			if len(lg.Addrs) > 0 {
				lg.Addrs = lg.Addrs[:len(lg.Addrs)-1]
			}
		case 4:
			if len(lg.Amounts) > 0 {
				lg.Amounts = lg.Amounts[:len(lg.Amounts)-1]
			}
		default:
			if len(lg.Amounts) > 0 {
				lg.Amounts[(arg/len(m.Logs))%len(lg.Amounts)] = extreme(arg)
			}
		}
	}
	return &m
}

// TestStreamEachMutatedReceipts: on corpus receipts mutated from a fixed
// seed, the worker count never changes a byte. scan.Scan (which runs
// Each) at 1, 2 and 4 workers yields identical AppendJSON bytes and
// Summary; so does the encoded Stream at 1, 2 and 4 workers, whose
// deliveries are exactly the kept reports of the one-worker scan.
func TestStreamEachMutatedReceipts(t *testing.T) {
	c := testCorpus(t)
	det := frozenDetector(c)
	rng := rand.New(rand.NewSource(21))
	receipts := make([]*evm.Receipt, len(c.Receipts))
	for i, r := range c.Receipts {
		ops := make([]byte, 2*rng.Intn(7))
		rng.Read(ops)
		receipts[i] = mutate(r, ops)
	}

	var (
		want     [][]byte
		kept     []delivery
		wantSum  scan.Summary
		keptSum  scan.Summary
		mutated  int
		original = make(map[string]bool, len(c.Receipts))
	)
	for _, r := range c.Receipts {
		raw, err := det.Inspect(r, nil).AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		original[string(raw)] = true
	}
	for _, workers := range []int{1, 2, 4} {
		reps, sum := scan.Scan(det, receipts, scan.Options{Workers: workers})
		got := make([][]byte, len(reps))
		for i, rep := range reps {
			raw, err := rep.AppendJSON(nil)
			if err != nil {
				t.Fatalf("workers=%d: receipt %d: %v", workers, i, err)
			}
			got[i] = raw
		}
		if workers == 1 {
			want, wantSum = got, sum
			for i, rep := range reps {
				if !original[string(got[i])] {
					mutated++
				}
				if len(rep.Loans) > 0 || rep.Error != "" {
					kept = append(kept, delivery{i: i, wire: got[i]})
					keptSum.Observe(rep)
				}
			}
			continue
		}
		if sum != wantSum {
			t.Fatalf("Scan workers=%d: summary %+v, want %+v", workers, sum, wantSum)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("Scan workers=%d: receipt %d:\n got %s\nwant %s", workers, i, got[i], want[i])
			}
		}
	}
	if mutated == 0 {
		t.Fatal("no mutation changed a report; the test is vacuous")
	}

	for _, workers := range []int{1, 2, 4} {
		got, sum := encodeAll(t, det, receipts, scan.Options{Workers: workers}, 250)
		if sum != keptSum {
			t.Fatalf("Stream workers=%d: summary %+v, want %+v", workers, sum, keptSum)
		}
		if len(got) != len(kept) {
			t.Fatalf("Stream workers=%d: %d deliveries, want %d", workers, len(got), len(kept))
		}
		for k, g := range got {
			if g.i != kept[k].i || !bytes.Equal(g.wire, kept[k].wire) {
				t.Fatalf("Stream workers=%d: delivery %d is receipt %d:\n got %s\nwant receipt %d %s",
					workers, k, g.i, g.wire, kept[k].i, kept[k].wire)
			}
		}
	}
}
