package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"leishen/internal/core"
	"leishen/internal/simplify"
	"leishen/internal/world"
)

// Live-route goldens over the seed-7, scale-1 corpus with a frozen
// clock: each is a SHA-256 over the concatenated response bodies of one
// route family. They pin /tx, /block and /batch bytes across encoder
// changes.
const (
	goldenTxDigest    = "58a6ec9f5a9f601ac939cf857761841d9cb522fa217f0b6e02f26f3c7372867d"
	goldenBlockDigest = "36968eb452599155c7fe18ad4df4b890cd1039fae32271913b9743f970ef4223"
	goldenBatchDigest = "2ea2763fd3a05defc3d6541fec58cb2ffea19c2268eaa0be73d4152592404651"
)

// TestLiveRouteGoldens hashes the body of /tx/{hash} for every receipt
// on the chain, /block/{n} for every block, and /batch over the whole
// corpus in MaxBatch-sized requests, and compares each digest with its
// golden.
func TestLiveRouteGoldens(t *testing.T) {
	c, err := world.Generate(world.Config{Seed: 7, ScalePct: 1})
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(c.Env.Chain, c.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: c.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
	h := New(c.Env.Chain, det).Handler()
	do := func(req *http.Request) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", req.Method, req.URL, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}

	txSum, blockSum, batchSum := sha256.New(), sha256.New(), sha256.New()
	var hashes []string
	for _, blk := range c.Env.Chain.Blocks() {
		blockSum.Write(do(httptest.NewRequest("GET", fmt.Sprintf("/block/%d", blk.Number), nil)))
		for _, r := range blk.Receipts {
			hashes = append(hashes, r.TxHash.String())
			txSum.Write(do(httptest.NewRequest("GET", "/tx/"+r.TxHash.String(), nil)))
		}
	}
	for lo := 0; lo < len(hashes); lo += MaxBatch {
		body, err := json.Marshal(BatchRequest{Hashes: hashes[lo:min(lo+MaxBatch, len(hashes))]})
		if err != nil {
			t.Fatal(err)
		}
		batchSum.Write(do(httptest.NewRequest("POST", "/batch", bytes.NewReader(body))))
	}
	for _, g := range []struct {
		route string
		got   string
		want  string
	}{
		{"/tx", hex.EncodeToString(txSum.Sum(nil)), goldenTxDigest},
		{"/block", hex.EncodeToString(blockSum.Sum(nil)), goldenBlockDigest},
		{"/batch", hex.EncodeToString(batchSum.Sum(nil)), goldenBatchDigest},
	} {
		if g.got != g.want {
			t.Errorf("%s bodies digest %s, want %s", g.route, g.got, g.want)
		}
	}
}
