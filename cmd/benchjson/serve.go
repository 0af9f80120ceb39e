// The serve benchmark: end-to-end HTTP read-path throughput against a
// generated archive. The server runs in-process (httptest over a real
// TCP listener) and the load is concurrent GET /reports pages and GET
// /reports/{txhash} point lookups — the two queries a monitoring
// backend answers constantly.
//
// Before any timing, the harness counts the heap allocations of a
// /reports page and fails when they exceed the corpus shape's budget;
// the count is the handler's, not the host's, so `make
// bench-serve-smoke` is a gate on the zero-decode read path staying
// zero-copy. Response bytes are pinned by internal/serve's golden
// tests.
package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"leishen/internal/archive"
	"leishen/internal/serve"
	"leishen/internal/types"
)

// ServeResult is the BENCH_serve.json schema.
type ServeResult struct {
	// Workload shape: an archive of Records synthetic reports served
	// in-process; list requests page ListLimit reports, point requests
	// fetch one report by hash.
	Records      int `json:"records"`
	PayloadBytes int `json:"payload_bytes"`
	ListLimit    int `json:"list_limit"`
	Concurrency  int `json:"concurrency"`
	GOMAXPROCS   int `json:"gomaxprocs"`
	Rounds       int `json:"rounds"`
	// ListAllocsBudget is the ceiling the pass enforces on
	// List.AllocsPerReq.
	ListAllocsBudget float64 `json:"list_allocs_budget"`
	// List is GET /reports, Get is GET /reports/{hash}.
	List ServeFigures `json:"reports_list"`
	Get  ServeFigures `json:"reports_get"`
}

// ServeFigures is one endpoint's measurement.
type ServeFigures struct {
	Requests     int     `json:"requests"`
	QPS          float64 `json:"qps"`
	P50Micros    float64 `json:"p50_us"`
	P99Micros    float64 `json:"p99_us"`
	AllocsPerReq float64 `json:"allocs_per_req"`
	BodyBytes    int     `json:"body_bytes"`
}

// listAllocsBudget caps the heap allocations of one /reports page on
// both corpus shapes: the path reads 7.0–7.2 per page at 100 reports
// and at 1000, since the page lands in a pooled buffer.
const listAllocsBudget = 8

// benchServe builds the archive corpus, checks the list path's
// allocation budget, then measures both endpoints.
func benchServe(smoke bool, rounds int) (*ServeResult, error) {
	res := &ServeResult{
		Records:          100_000,
		ListLimit:        1000,
		ListAllocsBudget: listAllocsBudget,
		Concurrency:      4,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Rounds:           rounds,
	}
	listReqs, getReqs := 400, 4000
	if smoke {
		res.Records = 2_000
		res.ListLimit = 100
		listReqs, getReqs = 40, 400
	}
	if rounds > 3 {
		res.Rounds = 3
	}

	// Reuse the archive bench's corpus generator: same synthetic report
	// payload, same two-records-per-block cadence, group-commit ingest.
	shape := &ArchiveResult{Records: res.Records, CheckpointEvery: 512, SyncEvery: 8, SegmentBytes: 8 << 20}
	payload := benchReportPayload()
	res.PayloadBytes = len(payload)
	dir, err := os.MkdirTemp("", "leishen-bench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, _, err := populate(dir, shape, payload, shape.SyncEvery); err != nil {
		return nil, err
	}
	arc, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	defer arc.Close()

	// The /reports endpoints never touch the chain or detector, so none
	// are attached.
	s := serve.New(nil, nil)
	s.SetArchive(arc)
	h := s.Handler()

	listURLs := benchListURLs(res)
	getURLs := benchGetURLs(res)

	// Allocation profile, handler-level (serial, body discarded): a list
	// page over budget means the zero-decode plumbing regressed into
	// copying.
	res.List.AllocsPerReq = allocsPerRequest(h, listURLs)
	res.Get.AllocsPerReq = allocsPerRequest(h, getURLs)
	if res.List.AllocsPerReq > res.ListAllocsBudget {
		return nil, fmt.Errorf("/reports allocates %.2f/req, budget %.0f", res.List.AllocsPerReq, res.ListAllocsBudget)
	}

	// Timed load over real HTTP, best round kept per endpoint.
	for round := 0; round < res.Rounds; round++ {
		if err := loadRound(h, listURLs, listReqs, res.Concurrency, &res.List); err != nil {
			return nil, err
		}
		if err := loadRound(h, getURLs, getReqs, res.Concurrency, &res.Get); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// benchReportPayload is the representative mid-size detection report
// the archive bench also uses.
func benchReportPayload() []byte {
	return []byte(`{"txHash":"0x0000000000000000000000000000000000000000000000000000000000000000",` +
		`"block":0,"success":true,"isFlashLoanTx":true,"isAttack":false,` +
		`"loans":[{"provider":"Uniswap","token":"0x00","amount":"40000000000000"}],` +
		`"matches":[],"trades":12,"transfers":31,"elapsedMicros":184}`)
}

// benchTxHash mirrors populate's hash scheme, so point lookups can be
// generated without reading the archive.
func benchTxHash(i int) types.Hash {
	return types.HashFromData([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
}

// benchListURLs spreads page queries across the block range (two
// records per block in the generated corpus).
func benchListURLs(res *ServeResult) []string {
	const n = 16
	urls := make([]string, 0, n)
	maxBlock := res.Records / 2
	for i := 0; i < n; i++ {
		from := 1 + i*maxBlock/n
		urls = append(urls, fmt.Sprintf("/reports?limit=%d&from=%d", res.ListLimit, from))
	}
	return urls
}

// benchGetURLs spreads point lookups over the whole corpus — far more
// hashes than the record cache holds, so the figures include real frame
// reads, not just cache hits.
func benchGetURLs(res *ServeResult) []string {
	const n = 512
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		urls = append(urls, "/reports/"+benchTxHash(i*res.Records/n).String())
	}
	return urls
}

// discardResponseWriter is a reusable ResponseWriter that swallows the
// body, so allocsPerRequest counts the handler's allocations, not a
// fresh recorder's buffer growth per request.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// allocsPerRequest measures steady-state heap allocations per request,
// driving the handler directly (no network, requests pre-built, body
// discarded) so the figure isolates the handler + encoding path. Every
// request is served once first, so the archive's record cache and the
// buffer pool are warm, as in a long-running server.
func allocsPerRequest(h http.Handler, urls []string) float64 {
	const n = 64
	reqs := make([]*http.Request, len(urls))
	for i, u := range urls {
		reqs[i] = httptest.NewRequest("GET", u, nil)
	}
	w := &discardResponseWriter{h: make(http.Header, 4)}
	for _, r := range reqs {
		h.ServeHTTP(w, r)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h.ServeHTTP(w, reqs[i%len(reqs)])
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// loadRound drives total requests at the given concurrency over a real
// HTTP listener and folds the round's QPS and latency percentiles into
// fig, keeping the best round's figures.
func loadRound(h http.Handler, urls []string, total, concurrency int, fig *ServeFigures) error {
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()

	perWorker := total / concurrency
	lats := make([][]time.Duration, concurrency)
	errs := make([]error, concurrency)
	var bodyBytes int
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				u := srv.URL + urls[(w*perWorker+i)%len(urls)]
				t0 := time.Now()
				resp, err := client.Get(u)
				if err != nil {
					errs[w] = err
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[w] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[w] = fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
					return
				}
				if w == 0 && i == 0 {
					bodyBytes = int(n)
				}
				mine = append(mine, time.Since(t0))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	qps := float64(len(all)) / wall
	if qps > fig.QPS {
		fig.Requests = len(all)
		fig.QPS = qps
		fig.P50Micros = float64(all[len(all)/2].Microseconds())
		fig.P99Micros = float64(all[len(all)*99/100].Microseconds())
		fig.BodyBytes = bodyBytes
	}
	return nil
}
