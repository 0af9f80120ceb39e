package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"

	"leishen/internal/archive"
	"leishen/internal/types"
	"leishen/internal/vfs"
)

// rawTestArchive appends n randomized report records (varying flags,
// two-ish per block, interleaved checkpoints) and returns the open
// archive plus every stored hash in append order.
func rawTestArchive(t *testing.T, seed int64, n int) (*archive.Archive, []types.Hash) {
	t.Helper()
	arc, err := archive.Open(t.TempDir(), archive.Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { arc.Close() })
	rng := rand.New(rand.NewSource(seed))
	block := uint64(1)
	hashes := make([]types.Hash, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			block += uint64(rng.Intn(3))
		}
		flags := uint8(archive.FlagFlashLoan)
		if rng.Intn(3) == 0 {
			flags |= archive.FlagAttack
		}
		if rng.Intn(5) == 0 {
			flags |= archive.FlagSuppressed
		}
		rec := archive.Record{
			Kind:   archive.KindReport,
			TxHash: types.HashFromData([]byte("serveraw"), []byte{byte(seed), byte(i), byte(i >> 8)}),
			Block:  block,
			Flags:  flags,
			// Canonical JSON, as the follower's json.Marshal would store it.
			Report: []byte(fmt.Sprintf(`{"txHash":"%d","block":%d,"isAttack":%v}`, i, block, flags&archive.FlagAttack != 0)),
		}
		if err := arc.AppendReport(&rec); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, rec.TxHash)
		if rng.Intn(7) == 0 {
			if err := arc.AppendCheckpoint(archive.Checkpoint{Block: block, Digest: rec.TxHash}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return arc, hashes
}

// rawAndDecodedHandlers builds the two serving paths over one archive.
func rawAndDecodedHandlers(arc *archive.Archive) (raw, decoded http.Handler) {
	rs := New(nil, nil)
	rs.SetArchive(arc)
	ds := New(nil, nil)
	ds.DecodeServing = true
	ds.SetArchive(arc)
	return rs.Handler(), ds.Handler()
}

// get drives one request through a handler and returns the response.
func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// TestRawServingMatchesDecoded is the serve-layer byte-identity pin: on
// randomized archives, the pooled raw path and the legacy decode path
// return the same status and byte-identical bodies for list queries,
// full pagination walks, point lookups and the error shapes.
func TestRawServingMatchesDecoded(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		arc, hashes := rawTestArchive(t, seed, 60+int(seed)*17)
		rawH, decH := rawAndDecodedHandlers(arc)

		compare := func(url string) []byte {
			t.Helper()
			rr, dr := get(t, rawH, url), get(t, decH, url)
			if rr.Code != dr.Code {
				t.Fatalf("GET %s: raw status %d, decoded status %d", url, rr.Code, dr.Code)
			}
			if !bytes.Equal(rr.Body.Bytes(), dr.Body.Bytes()) {
				t.Fatalf("GET %s: bodies differ:\nraw     %s\ndecoded %s", url, rr.Body.Bytes(), dr.Body.Bytes())
			}
			// The raw path promises a sized response.
			if rr.Code == http.StatusOK {
				if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(rr.Body.Len()) {
					t.Fatalf("GET %s: raw Content-Length %q, body is %d bytes", url, cl, rr.Body.Len())
				}
			}
			return rr.Body.Bytes()
		}

		urls := []string{
			"/reports",
			"/reports?verdict=attack",
			"/reports?verdict=suppressed",
			"/reports?verdict=flashloan&limit=7",
			"/reports?from=3&to=9",
			"/reports?from=999999",
			"/reports?verdict=bogus",
			"/reports?limit=0",
			"/reports?after=nothex",
			"/reports/" + hashes[0].String(),
			"/reports/" + hashes[len(hashes)-1].String(),
			"/reports/" + types.HashFromData([]byte("missing")).String(),
			"/reports/nothex",
		}
		for _, u := range urls {
			compare(u)
		}

		// Pagination walk on a small page size: every cursor the raw path
		// hands out must replay identically on the decoded path.
		next := "/reports?limit=5"
		for page := 0; next != "" && page < 200; page++ {
			body := compare(next)
			var env ReportsResponse
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("page %d unmarshal: %v", page, err)
			}
			if !env.More {
				if env.NextAfter != "" {
					t.Fatalf("page %d: nextAfter %q set with more=false", page, env.NextAfter)
				}
				next = ""
				continue
			}
			next = "/reports?limit=5&after=" + env.NextAfter
		}
	}
}

// TestReportsPaginationEdges pins the edge cases a paging client can
// produce: a cursor at the very last record, an unknown cursor, limit=0,
// an invalid verdict, and an inverted block range. Each must answer with
// well-formed JSON — an error object or an empty page — never a 500.
func TestReportsPaginationEdges(t *testing.T) {
	arc, hashes := rawTestArchive(t, 9, 40)
	rawH, _ := rawAndDecodedHandlers(arc)

	check := func(url string, wantStatus int) map[string]any {
		t.Helper()
		rr := get(t, rawH, url)
		if rr.Code != wantStatus {
			t.Fatalf("GET %s: status %d, want %d (body %s)", url, rr.Code, wantStatus, rr.Body.Bytes())
		}
		if rr.Code >= http.StatusInternalServerError {
			t.Fatalf("GET %s: server error %d", url, rr.Code)
		}
		var v map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
			t.Fatalf("GET %s: body is not JSON: %v (%s)", url, err, rr.Body.Bytes())
		}
		return v
	}

	// Cursor at the last record: a valid empty page, not an error.
	v := check("/reports?after="+hashes[len(hashes)-1].String(), http.StatusOK)
	if reports, ok := v["reports"].([]any); !ok || len(reports) != 0 {
		t.Fatalf("after-last page = %v, want empty reports array", v)
	}
	if v["more"] != false {
		t.Fatalf("after-last page claims more=%v", v["more"])
	}

	// Unknown cursor: a JSON error object, not a 500.
	v = check("/reports?after="+types.HashFromData([]byte("never stored")).String(), http.StatusBadRequest)
	if _, ok := v["error"]; !ok {
		t.Fatalf("unknown cursor reply %v has no error field", v)
	}

	// limit=0 and invalid verdict: rejected as bad requests.
	check("/reports?limit=0", http.StatusBadRequest)
	check("/reports?limit=-3", http.StatusBadRequest)
	check("/reports?verdict=bogus", http.StatusBadRequest)

	// Inverted range: nothing matches, and that is an empty page.
	v = check("/reports?from=30&to=2", http.StatusOK)
	if reports, ok := v["reports"].([]any); !ok || len(reports) != 0 {
		t.Fatalf("inverted range page = %v, want empty reports array", v)
	}
}

// TestRawServingConcurrent hammers the pooled read path from many
// goroutines (list pages and point gets interleaved) so the respBuf
// pool and the archive's shared read handles run under the race
// detector; every body must still be well-formed.
func TestRawServingConcurrent(t *testing.T) {
	arc, hashes := rawTestArchive(t, 5, 80)
	rawH, _ := rawAndDecodedHandlers(arc)
	srv := httptest.NewServer(rawH)
	defer srv.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var url string
				if i%2 == 0 {
					url = fmt.Sprintf("%s/reports?limit=%d", srv.URL, 1+(w+i)%9)
				} else {
					url = srv.URL + "/reports/" + hashes[(w*31+i)%len(hashes)].String()
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
				if !json.Valid(body) {
					errs <- fmt.Errorf("GET %s: invalid JSON body %q", url, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReportsServerFaultIs500 pins the /reports status mapping: a
// stored frame that fails its checksum is the server's fault (500) on
// both serving paths, while an unknown cursor stays a 400.
func TestReportsServerFaultIs500(t *testing.T) {
	fs := vfs.NewMemFS()
	arc, err := archive.OpenFS(fs, "arc", archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arc.Close()
	var hashes []types.Hash
	for i := 0; i < 6; i++ {
		rec := archive.Record{
			Kind:   archive.KindReport,
			TxHash: types.HashFromData([]byte("fault"), []byte{byte(i)}),
			Block:  uint64(1 + i),
			Flags:  archive.FlagFlashLoan,
			Report: []byte(fmt.Sprintf(`{"i":%d}`, i)),
		}
		if err := arc.AppendReport(&rec); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, rec.TxHash)
	}
	if err := arc.Sync(); err != nil {
		t.Fatal(err)
	}
	rawH, decH := rawAndDecodedHandlers(arc)
	for _, h := range []http.Handler{rawH, decH} {
		if rr := get(t, h, "/reports"); rr.Code != http.StatusOK {
			t.Fatalf("intact archive: status %d (%s)", rr.Code, rr.Body.Bytes())
		}
	}

	// Flip the last byte of the last report's JSON through a second
	// handle: the frame no longer matches its CRC.
	f, err := fs.OpenFile("arc/seg-00000001.log", os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], size-1); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.Seek(size-1, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for name, h := range map[string]http.Handler{"raw": rawH, "decoded": decH} {
		rr := get(t, h, "/reports")
		if rr.Code != http.StatusInternalServerError {
			t.Fatalf("%s: corrupt frame answered %d, want 500 (%s)", name, rr.Code, rr.Body.Bytes())
		}
		var v map[string]any
		if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil || v["error"] == nil {
			t.Fatalf("%s: corrupt frame reply %s is not a JSON error object", name, rr.Body.Bytes())
		}
		if rr := get(t, h, "/reports?after="+types.HashFromData([]byte("never stored")).String()); rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: unknown cursor answered %d, want 400", name, rr.Code)
		}
		// A page that stops before the damaged frame is still served.
		if rr := get(t, h, "/reports?limit=2&after="+hashes[0].String()); rr.Code != http.StatusOK {
			t.Fatalf("%s: intact page answered %d, want 200 (%s)", name, rr.Code, rr.Body.Bytes())
		}
	}
}
