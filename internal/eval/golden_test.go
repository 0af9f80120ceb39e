package eval

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/simplify"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDetailGolden pins the exact text of Trace.Detail() for the
// Harvest Finance reproduction. The detail report is user-facing CLI
// output and feeds incident write-ups; any change to its wording or to
// the pipeline's intermediate counts must show up as a reviewed golden
// diff, not silently. Regenerate with:
//
//	go test ./internal/eval/ -run TestDetailGolden -update
func TestDetailGolden(t *testing.T) {
	sc, ok := attacks.ByName("Harvest Finance")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	frozen := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
		Clock:    func() time.Time { return frozen },
	})
	got := det.Trace(res.Receipt).Detail()

	golden := filepath.Join("testdata", "harvest_detail.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("Detail() diverged from %s (run with -update and review the diff):\n got:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
