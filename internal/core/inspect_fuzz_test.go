package core_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/simplify"
	"leishen/internal/uint256"
)

// mutateReceipt applies ops to a deep copy of r, two bytes per edit: an
// opcode and an argument choosing the log (or internal transaction).
// The corpus receipt itself is never touched.
func mutateReceipt(r *evm.Receipt, ops []byte) *evm.Receipt {
	m := *r
	m.Logs = slices.Clone(r.Logs)
	for i := range m.Logs {
		m.Logs[i].Addrs = slices.Clone(m.Logs[i].Addrs)
		m.Logs[i].Amounts = slices.Clone(m.Logs[i].Amounts)
	}
	m.InternalTxs = slices.Clone(r.InternalTxs)
	for ; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0], int(ops[1])
		if op%8 == 7 {
			// Internal transaction value to zero or the maximum.
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
		switch op % 8 {
		case 0: // drop
			m.Logs = slices.Delete(m.Logs, k, k+1)
		case 1: // duplicate
			m.Logs = slices.Insert(m.Logs, k, *lg)
		case 2: // reorder: swap with the next log
			j := (k + 1) % len(m.Logs)
			m.Logs[k], m.Logs[j] = m.Logs[j], m.Logs[k]
		case 3: // truncate Addrs
			if len(lg.Addrs) > 0 {
				lg.Addrs = lg.Addrs[:len(lg.Addrs)-1]
			}
		case 4: // truncate Amounts
			if len(lg.Amounts) > 0 {
				lg.Amounts = lg.Amounts[:len(lg.Amounts)-1]
			}
		default: // amount to zero or the maximum
			if len(lg.Amounts) > 0 {
				lg.Amounts[(arg/len(m.Logs))%len(lg.Amounts)] = extreme(arg)
			}
		}
	}
	return &m
}

func extreme(arg int) uint256.Int {
	if arg&1 == 0 {
		return uint256.Zero()
	}
	return uint256.Max()
}

// FuzzInspect runs the detector over mutated corpus receipts — logs
// dropped, duplicated or reordered, a log's Addrs or Amounts truncated,
// amounts set to zero or the maximum uint256. Whatever the receipt,
// detection must not panic, must be a pure function of the receipt (a
// fresh arena and a reused, rewound one give identical wire JSON and
// Detail bytes), and the report must survive a DecodeReportJSON round
// trip unchanged.
func FuzzInspect(f *testing.F) {
	c := referenceCorpus(f)
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
	// Seed with the corpus's first attacks, each unmutated and under a
	// mix of edits.
	seeds := 0
	for i, r := range c.Receipts {
		if seeds == 3 {
			break
		}
		if !det.Inspect(r).IsAttack {
			continue
		}
		seeds++
		f.Add(uint16(i), []byte(nil))
		f.Add(uint16(i), []byte{0, 3, 1, 5, 2, 1, 5, 9, 6, 4, 7, 1})
	}
	reused := core.NewArena()
	f.Fuzz(func(t *testing.T, pick uint16, ops []byte) {
		r := mutateReceipt(c.Receipts[int(pick)%len(c.Receipts)], ops)
		fresh := det.InspectScratch(r, core.NewArena())
		reused.Rewind()
		again := det.InspectScratch(r, reused)

		raw, err := fresh.AppendJSON(nil)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if rawAgain, err := again.AppendJSON(nil); err != nil || !bytes.Equal(rawAgain, raw) {
			t.Fatalf("reused arena diverges (err %v):\nfresh:  %s\nreused: %s", err, raw, rawAgain)
		}
		if d, dAgain := fresh.Detail(), again.Detail(); d != dAgain {
			t.Fatalf("reused arena Detail diverges:\nfresh:\n%s\nreused:\n%s", d, dAgain)
		}
		dec, err := core.DecodeReportJSON(raw)
		if err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		if back, err := json.Marshal(dec); err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("round trip changed bytes (err %v):\n first: %s\nsecond: %s", err, raw, back)
		}
	})
}
