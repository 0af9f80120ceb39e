package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAllScale2Golden pins the stdout of `evalgen -all -scale 2`: every
// table and figure of the evaluation at the scale EXPERIMENTS.md
// states. Any change to a detection verdict, a count or a row shows up
// here as a line diff to review. Regenerate with:
//
//	go test ./cmd/evalgen -run TestAllScale2Golden -update
func TestAllScale2Golden(t *testing.T) {
	var got bytes.Buffer
	if err := render(&got, io.Discard, selection{all: true, scale: 2, seed: 7}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all_scale2.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if diff := lineDiff(string(want), got.String()); diff != "" {
		t.Errorf("evalgen -all -scale 2 diverged from %s (run with -update and review the diff):\n%s", golden, diff)
	}
}

// lineDiff lists the lines where want and got differ, by line number,
// as -want/+got pairs; "" when they are equal.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		}
	}
	if len(w) != len(g) {
		fmt.Fprintf(&b, "want %d lines, got %d\n", len(w), len(g))
	}
	return b.String()
}
