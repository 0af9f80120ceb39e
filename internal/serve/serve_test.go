package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"leishen/internal/attacks"
	"leishen/internal/core"
	"leishen/internal/evm"
	"leishen/internal/flashloan"
	"leishen/internal/simplify"
)

func testServer(t *testing.T) (*httptest.Server, *attacks.Result) {
	t.Helper()
	sc, ok := attacks.ByName("Harvest Finance")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
	})
	srv := httptest.NewServer(New(res.Env.Chain, det).Handler())
	t.Cleanup(srv.Close)
	return srv, res
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	var out Healthz
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &out)
	if out.Status != "ok" {
		t.Errorf("health = %+v", out)
	}
	if out.Archive != nil || out.Follower != nil {
		t.Errorf("bare server advertises archive/follower sections: %+v", out)
	}
}

func TestTxReport(t *testing.T) {
	srv, res := testServer(t)
	var rep core.ReportJSON
	getJSON(t, srv.URL+"/tx/"+res.Receipt.TxHash.String(), http.StatusOK, &rep)
	if !rep.IsAttack || !rep.IsFlashLoanTx {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Matches) == 0 || rep.Matches[0].Pattern != "MBS" {
		t.Errorf("matches = %v", rep.Matches)
	}
	if len(rep.Loans) != 1 || rep.Loans[0].Provider != "Uniswap" {
		t.Errorf("loans = %v", rep.Loans)
	}
	if rep.ElapsedMicros < 0 {
		t.Errorf("elapsed = %d", rep.ElapsedMicros)
	}
}

func TestTxErrors(t *testing.T) {
	srv, _ := testServer(t)
	getJSON(t, srv.URL+"/tx/nothex", http.StatusBadRequest, nil)
	missing := "0x" + fmt.Sprintf("%064x", 12345)
	getJSON(t, srv.URL+"/tx/"+missing, http.StatusNotFound, nil)
}

func TestBlockScan(t *testing.T) {
	srv, res := testServer(t)
	type blockResp struct {
		Block   uint64            `json:"block"`
		Reports []core.ReportJSON `json:"reports"`
	}
	var out blockResp
	url := fmt.Sprintf("%s/block/%d", srv.URL, res.Receipt.Block)
	getJSON(t, url, http.StatusOK, &out)
	if len(out.Reports) != 1 || !out.Reports[0].IsAttack {
		t.Fatalf("block reports = %+v", out.Reports)
	}
	// Three empty blocks after the attack's: block lookup by number
	// must find one strictly inside the chain and nothing past its head.
	for range 3 {
		res.Env.Chain.MineBlock()
	}
	head := res.Env.Chain.HeadBlock()
	for _, n := range []uint64{0, head + 1, 999999} {
		getJSON(t, fmt.Sprintf("%s/block/%d", srv.URL, n), http.StatusNotFound, nil)
	}
	mid := res.Receipt.Block + 1
	var midOut blockResp
	getJSON(t, fmt.Sprintf("%s/block/%d", srv.URL, mid), http.StatusOK, &midOut)
	if midOut.Block != mid || midOut.Reports == nil || len(midOut.Reports) != 0 {
		t.Fatalf("block %d = %+v, want its number and an empty report list", mid, midOut)
	}
	getJSON(t, srv.URL+"/block/xyz", http.StatusBadRequest, nil)
}

// TestUnencodableIs500: a body with no JSON form answers 500 with an
// error body, never an empty 200. The attack receipt is stamped in year
// 10000, which has no RFC 3339 form, so its report fails to encode on
// /tx, /block and /batch; another block stamped so fails on its time.
func TestUnencodableIs500(t *testing.T) {
	srv, res := testServer(t)
	chain := res.Env.Chain
	receipt, ok := chain.Receipt(res.Receipt.TxHash)
	if !ok {
		t.Fatal("attack receipt not on the chain")
	}
	year10000 := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	receipt.Time = year10000
	blk := chain.MineBlock()
	blk.Time = year10000
	other := blk.Number

	check := func(resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: error body does not decode: %v", resp.Request.URL, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body["error"], "year") {
			t.Fatalf("%s = %d %v, want 500 naming the year", resp.Request.URL, resp.StatusCode, body)
		}
	}
	check(http.Get(srv.URL + "/tx/" + receipt.TxHash.String()))
	check(http.Get(fmt.Sprintf("%s/block/%d", srv.URL, receipt.Block)))
	check(http.Get(fmt.Sprintf("%s/block/%d", srv.URL, other)))
	raw, err := json.Marshal(BatchRequest{Hashes: []string{receipt.TxHash.String()}})
	if err != nil {
		t.Fatal(err)
	}
	check(http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(raw)))
}

func postJSON(t *testing.T, url string, body any, wantStatus int, into any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestBatch(t *testing.T) {
	srv, res := testServer(t)
	hash := res.Receipt.TxHash.String()
	var out BatchResponse
	postJSON(t, srv.URL+"/batch", BatchRequest{Hashes: []string{hash, hash, hash}},
		http.StatusOK, &out)
	if len(out.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(out.Reports))
	}
	for i, rep := range out.Reports {
		if !rep.IsAttack || rep.TxHash != hash {
			t.Errorf("report %d = %+v", i, rep)
		}
	}
	if out.Summary.Inspected != 3 || out.Summary.Attacks != 3 || out.Summary.FlashLoans != 3 {
		t.Errorf("summary = %+v", out.Summary)
	}
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Inspected != 3 || st.Attacks != 3 {
		t.Errorf("stats after batch = %+v", st)
	}
}

func TestBatchErrors(t *testing.T) {
	srv, _ := testServer(t)
	postJSON(t, srv.URL+"/batch", BatchRequest{Hashes: []string{"nothex"}},
		http.StatusBadRequest, nil)
	missing := "0x" + fmt.Sprintf("%064x", 12345)
	postJSON(t, srv.URL+"/batch", BatchRequest{Hashes: []string{missing}},
		http.StatusNotFound, nil)
	over := BatchRequest{Hashes: make([]string, MaxBatch+1)}
	postJSON(t, srv.URL+"/batch", over, http.StatusRequestEntityTooLarge, nil)
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated payload = %d, want 400", resp.StatusCode)
	}
}

func TestStatsAccumulate(t *testing.T) {
	srv, res := testServer(t)
	getJSON(t, srv.URL+"/tx/"+res.Receipt.TxHash.String(), http.StatusOK, nil)
	getJSON(t, srv.URL+"/tx/"+res.Receipt.TxHash.String(), http.StatusOK, nil)
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Inspected != 2 || st.Attacks != 2 || st.FlashLoans != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// markerOnly emits an AAVE FlashLoan event too short to name a
// borrower and token: the receipt carries a provider marker but no
// loan.
type markerOnly struct{}

func (markerOnly) Call(env *evm.Env, method string, args []any) ([]any, error) {
	env.EmitLog("FlashLoan", nil, nil)
	return nil, nil
}

// TestBlockScreen pins /block's screen: a marker without a loan is
// neither listed nor counted, and the response bytes are what the
// full-identification screen (IsFlashLoanTx, then Inspect) produces.
func TestBlockScreen(t *testing.T) {
	sc, ok := attacks.ByName("Harvest Finance")
	if !ok {
		t.Fatal("scenario missing")
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	chain := res.Env.Chain
	eoa := chain.NewEOA("")
	addr, err := chain.Deploy(eoa, markerOnly{}, "")
	if err != nil {
		t.Fatal(err)
	}
	decoy := chain.Send(eoa, addr, "go")
	if !decoy.Success || !flashloan.HasMarker(decoy) || flashloan.IsFlashLoanTx(decoy) {
		t.Fatalf("decoy receipt: success=%v marker=%v loan=%v", decoy.Success, flashloan.HasMarker(decoy), flashloan.IsFlashLoanTx(decoy))
	}
	chain.MineBlock()

	tick := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	det := core.NewDetector(chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
		Clock:    func() time.Time { return tick },
	})
	srv := httptest.NewServer(New(chain, det).Handler())
	defer srv.Close()

	for _, n := range []uint64{res.Receipt.Block, decoy.Block} {
		blk, _ := chain.BlockByNumber(n)
		reports := make([]core.ReportJSON, 0, 4)
		for _, r := range blk.Receipts {
			if r.Success && flashloan.IsFlashLoanTx(r) {
				reports = append(reports, det.Inspect(r, nil).JSON())
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"block": blk.Number, "time": blk.Time, "reports": reports}); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(fmt.Sprintf("%s/block/%d", srv.URL, n))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("block %d body:\n got %s\nwant %s", n, got, want.Bytes())
		}
	}
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Inspected != 1 || st.FlashLoans != 1 || st.Attacks != 1 {
		t.Errorf("stats = %+v, want only the attack counted", st)
	}
}
