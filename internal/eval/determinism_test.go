package eval

import (
	"encoding/json"
	"testing"
	"time"

	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/simplify"
)

// TestReportDeterminism runs the same attack transaction through two
// independently built detectors and demands byte-identical reports — the
// property the detorder gate protects. The injected clock removes the
// one legitimately nondeterministic field (Elapsed).
func TestReportDeterminism(t *testing.T) {
	sc, ok := attacks.ByName("Harvest Finance")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Date(2020, 10, 26, 0, 0, 0, 0, time.UTC)
	inspect := func() []byte {
		det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
			Simplify: simplify.Options{WETH: res.Env.WETH},
			Clock:    func() time.Time { return tick },
		})
		rep := det.Trace(res.Receipt)
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Elapsed != 0 {
			t.Fatalf("frozen clock still measured %v", rep.Elapsed)
		}
		return append(out, []byte(rep.Detail())...)
	}
	a, b := inspect(), inspect()
	if string(a) != string(b) {
		t.Errorf("reports differ across runs:\n%s\n---\n%s", a, b)
	}
}
