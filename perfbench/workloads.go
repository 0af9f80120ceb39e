package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"leishen/internal/archive"
	"leishen/internal/evm"
	"leishen/internal/follower"
	"leishen/internal/types"
)

// Open-loop release intervals. Each is several times the per-block
// service time on a 2-core host, so the backlog cannot grow.
const (
	tailInterval    = 5 * time.Millisecond
	trickleInterval = 20 * time.Millisecond
)

// passStats is what one pass measured.
type passStats struct {
	traced bool
	setup  time.Duration
	// Ingest: blocks and flash loan txs made durable, and the time the
	// follower spent on them (Step plus Flush).
	blocks, txs int
	busy        time.Duration
	// The workload's operations (backfill: blocks; tail: blocks made
	// queryable; query: HTTP queries), the time spent on them, and each
	// one's latency in nanoseconds.
	ops    int
	opBusy time.Duration
	opLat  []float64
	// Rate samples, per second: ingest (flash loan txs made durable per
	// second of follower time) and operations (per second spent on
	// them). Backfill and query take one per pass; tail and the query
	// trickle take one per block.
	ingestRate, opRate []float64
	// Whole-process cost over the measured window of length wall.
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	gcCycles uint32
	gcPause  time.Duration
	// Archive directory size and record count at the end of the pass.
	diskBytes int64
	records   int
	late      []float64 // generator lateness per release, ns
	queries   int       // requests to the /reports routes, checks included

	// Probe snapshots, traced passes only.
	srcCalls  int64
	fs        *fsCounts
	arcStats  archive.Stats
	folStats  follower.Stats
	reopen    time.Duration
	respBytes float64
	responses float64
}

// runtimeMark is a snapshot of process-wide costs.
type runtimeMark struct {
	at      time.Time
	cpu     time.Duration
	allocs  uint64
	numGC   uint32
	pauseNs uint64
}

func mark() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMark{at: time.Now(), cpu: cpuTime(), allocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func (ps *passStats) since(m runtimeMark) {
	now := mark()
	ps.wall = now.at.Sub(m.at)
	ps.cpu = now.cpu - m.cpu
	ps.allocs = now.allocs - m.allocs
	ps.gcCycles = now.numGC - m.numGC
	ps.gcPause = time.Duration(now.pauseNs - m.pauseNs)
}

// finish snapshots a pass's probes, tears its stack down and, on a
// traced pass, times a reopen of the archive it leaves behind. A pass
// directory is removed afterwards.
func (h *harness) finish(st *stack, ps *passStats) error {
	if err := st.tearDown(); err != nil {
		return err
	}
	if st.scratch {
		defer os.RemoveAll(st.dir)
	}
	if st.tr == nil {
		return nil
	}
	ps.srcCalls = st.srcCalls.Load()
	ps.fs = st.fs
	ps.arcStats = st.arc.Stats()
	ps.folStats = st.fol.Stats()
	ps.respBytes, ps.responses = sumSeries(st.reg, "leishen_http_response_bytes")
	start := time.Now()
	arc, err := archive.Open(st.dir, archive.Options{})
	if err != nil {
		return err
	}
	ps.reopen = time.Since(start)
	return arc.Close()
}

// endPass records the archive's size once the pass's work is durable.
func (ps *passStats) endPass(st *stack) error {
	n, err := dirBytes(st.dir)
	ps.diskBytes, ps.records = n, st.arc.Count()
	return err
}

// backfillPass catches a fresh archive up with every pre-mined block,
// closed loop: each Step runs as soon as the previous returns.
func (h *harness) backfillPass(traced bool) (*stack, passStats, error) {
	ps := passStats{traced: traced}
	dir, err := h.passDir()
	if err != nil {
		return nil, ps, err
	}
	f := &feed{blocks: h.in.blocks}
	f.head.Store(uint64(len(h.in.blocks)))
	st, setup, err := h.setUp(dir, f, traced)
	if err != nil {
		return nil, ps, err
	}
	st.scratch = true
	ps.setup = setup
	drainGC()
	m := mark()
	start := time.Now()
	for {
		t := time.Now()
		ok, err := st.step()
		if err != nil {
			return st, ps, err
		}
		if !ok {
			break
		}
		ps.opLat = append(ps.opLat, float64(time.Since(t)))
	}
	if err := st.flush(); err != nil {
		return st, ps, err
	}
	ps.busy = time.Since(start)
	ps.since(m)
	ps.blocks, ps.ops, ps.opBusy = len(h.in.blocks), len(h.in.blocks), ps.busy
	ps.txs = len(h.in.flash)
	ps.ingestRate = []float64{float64(ps.txs) / ps.busy.Seconds()}
	ps.opRate = []float64{float64(ps.ops) / ps.opBusy.Seconds()}
	return st, ps, ps.endPass(st)
}

// tailPass releases fresh tail-shaped blocks on the open-loop clock for
// dur and follows them into a fresh archive.
func (h *harness) tailPass(traced bool, dur time.Duration, rs *results) (*stack, []*evm.Block, passStats, error) {
	ps := passStats{traced: traced}
	n := int(dur / tailInterval)
	blocks, want := h.in.repack(1, n)
	dir, err := h.passDir()
	if err != nil {
		return nil, nil, ps, err
	}
	f := &feed{blocks: blocks}
	st, setup, err := h.setUp(dir, f, traced)
	if err != nil {
		return nil, nil, ps, err
	}
	st.scratch = true
	ps.setup = setup
	drainGC()
	m := mark()
	rel := newRelease(1, n, tailInterval)
	stop := make(chan struct{})
	go rel.run(f, stop)
	err = h.follow(st, rel, want, &ps, rs)
	close(stop)
	for range rel.released {
	}
	ps.since(m)
	ps.late = rel.late
	if err != nil {
		return st, nil, ps, err
	}
	return st, blocks, ps, ps.endPass(st)
}

func newRelease(first uint64, n int, interval time.Duration) *release {
	return &release{
		first:    first,
		n:        n,
		start:    time.Now().Add(interval),
		interval: interval,
		released: make(chan int, n),
	}
}

// follow is the open-loop stepping loop: for each released block it calls
// Step, waits for durability, and confirms the block's reports on
// /reports. Each block is timed from when its release was due.
func (h *harness) follow(st *stack, rel *release, want [][]string, ps *passStats, rs *results) error {
	var buf []byte
	for k := range rel.released {
		start := time.Now()
		ok, err := st.step()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("block %d released but not processed", rel.first+uint64(k))
		}
		if err := st.flush(); err != nil {
			return err
		}
		ingested := time.Now()
		var good bool
		buf, good, err = h.confirm(st.tr, buf, rel.first+uint64(k), want[k])
		if err != nil {
			return err
		}
		end := time.Now()
		rs.check(good, "block %d reports not visible on /reports", rel.first+uint64(k))
		ps.blocks++
		ps.txs += len(want[k])
		ps.busy += ingested.Sub(start)
		ps.ops++
		ps.queries++
		ps.opBusy += end.Sub(start)
		ps.opLat = append(ps.opLat, float64(end.Sub(rel.due(k))))
		ps.ingestRate = append(ps.ingestRate, float64(len(want[k]))/ingested.Sub(start).Seconds())
		ps.opRate = append(ps.opRate, 1/end.Sub(start).Seconds())
	}
	return nil
}

// confirm fetches block n's reports and checks that they are exactly
// the transactions in want (hex hashes).
func (h *harness) confirm(tr *tracer, buf []byte, n uint64, want []string) ([]byte, bool, error) {
	num := strconv.FormatUint(n, 10)
	buf, code, err := h.get(tr, buf, "serve.confirm", "/reports?limit=1000&from="+num+"&to="+num)
	if err != nil {
		return buf, false, err
	}
	if code != 200 || bytes.Count(buf, []byte(`"txHash":"`)) != len(want) || !bytes.Contains(buf, []byte(`"more":false`)) {
		return buf, false, nil
	}
	for _, hx := range want {
		if !bytes.Contains(buf, []byte(`"txHash":"`+hx+`"`)) {
			return buf, false, nil
		}
	}
	return buf, true, nil
}

// queryState is the query workload's archive: pre-populated once by a
// backfill, then reopened by every pass, with trickle blocks appended
// beside the reads.
type queryState struct {
	dir    string
	feed   *feed
	want   [][]string // trickle blocks' expected hashes, by block index
	hashes []string   // every pre-populated report's tx hash, hex
	hot    []string   // the skewed subset point gets favour
	maxPre uint64     // last pre-populated block
}

// Query mix. hotHashes plus the cold tail make the 1,024-record LRU
// cache hit on roughly half the point gets.
const (
	hotHashes   = 256
	hotShare    = 0.5
	listShare   = 0.5
	listPages   = 3
	listLimit   = 50
	rangeBlocks = 8
)

// prepopulate backfills the query archive, untimed, and closes it so
// every pass starts with a sidecar reopen.
func (h *harness) prepopulate() (*queryState, error) {
	pre := append([]*evm.Block(nil), h.in.blocks...)
	q := &queryState{dir: filepath.Join(h.dir, "query"), feed: &feed{blocks: pre}, maxPre: uint64(len(pre))}
	if err := os.RemoveAll(q.dir); err != nil {
		return nil, err
	}
	q.feed.head.Store(q.maxPre)
	st, _, err := h.setUp(q.dir, q.feed, false)
	if err != nil {
		return nil, err
	}
	if err := st.fol.CatchUp(); err != nil {
		return nil, errors.Join(err, st.tearDown())
	}
	if err := st.tearDown(); err != nil {
		return nil, err
	}
	q.want = make([][]string, len(h.in.blocks))
	for _, r := range h.in.flash {
		q.hashes = append(q.hashes, r.TxHash.String())
	}
	perm := h.in.rng.Perm(len(q.hashes))
	for _, i := range perm[:min(hotHashes, len(perm))] {
		q.hot = append(q.hot, q.hashes[i])
	}
	return q, nil
}

// queryPass reopens the query archive and runs the closed-loop clients
// for dur while trickle blocks are released and followed beside them.
func (h *harness) queryPass(q *queryState, traced bool, dur time.Duration, rs *results) (*stack, passStats, error) {
	ps := passStats{traced: traced}
	n := int(dur/trickleInterval) + 1
	first := q.feed.head.Load() + 1
	if more := int(first-1) + n - len(q.feed.blocks); more > 0 {
		blocks, want := h.in.repack(uint64(len(q.feed.blocks))+1, more)
		q.feed.blocks = append(q.feed.blocks, blocks...)
		q.want = append(q.want, want...)
	}
	st, setup, err := h.setUp(q.dir, q.feed, traced)
	if err != nil {
		return nil, ps, err
	}
	ps.setup = setup
	if cp, ok := st.arc.Checkpoint(); !ok || cp.Block != first-1 {
		return st, ps, fmt.Errorf("reopened archive at checkpoint %d, want %d", cp.Block, first-1)
	}
	drainGC()
	m := mark()
	rel := newRelease(first, n, trickleInterval)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var ingest passStats
	var followErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rel.run(q.feed, stop)
	}()
	go func() {
		defer wg.Done()
		if followErr = h.follow(st, rel, q.want[first-1:], &ingest, rs); followErr != nil {
			halt()
			for range rel.released {
			}
		}
	}()

	clients := runtime.NumCPU()
	out := make([]clientResult, clients)
	seeds := make([]int64, clients)
	for i := range seeds {
		seeds[i] = h.in.rng.Int63()
	}
	deadline := time.Now().Add(dur)
	start := time.Now()
	var cw sync.WaitGroup
	cw.Add(clients)
	for i := range out {
		go func(i int) {
			defer cw.Done()
			h.runClient(q, st.tr, rand.New(rand.NewSource(seeds[i])), deadline, &out[i])
		}(i)
	}
	cw.Wait()
	ps.opBusy = time.Since(start)
	halt()
	wg.Wait()
	ps.since(m)
	if followErr != nil {
		return st, ps, followErr
	}
	ps.blocks, ps.txs, ps.busy, ps.late = ingest.blocks, ingest.txs, ingest.busy, rel.late
	ps.ingestRate = ingest.ingestRate
	ps.queries = ingest.queries
	for i := range out {
		c := &out[i]
		if c.err != nil {
			return st, ps, c.err
		}
		ps.ops += len(c.lat)
		ps.queries += len(c.lat)
		ps.opLat = append(ps.opLat, c.lat...)
		rs.attempted += len(c.lat)
		rs.failed += c.failed
		if c.failed > 0 {
			rs.note("%d query responses failed their check", c.failed)
		}
	}
	ps.opRate = []float64{float64(ps.ops) / ps.opBusy.Seconds()}
	return st, ps, ps.endPass(st)
}

// clientResult is one client's tally.
type clientResult struct {
	lat    []float64
	failed int
	err    error
}

// runClient is one closed-loop client: it sends the next query as soon
// as the previous response is read, until deadline.
func (h *harness) runClient(q *queryState, tr *tracer, rng *rand.Rand, deadline time.Time, out *clientResult) {
	var buf []byte
	verdicts := [...]string{"all", "flashloan", "attack"}
	for time.Now().Before(deadline) {
		if rng.Float64() >= listShare {
			hx := q.hashes[rng.Intn(len(q.hashes))]
			if rng.Float64() < hotShare {
				hx = q.hot[rng.Intn(len(q.hot))]
			}
			start := time.Now()
			var code int
			buf, code, out.err = h.get(tr, buf, "serve.get", "/reports/"+hx)
			if out.err != nil {
				return
			}
			out.lat = append(out.lat, float64(time.Since(start)))
			if code != 200 || !bytes.HasPrefix(buf, []byte(`{"txHash":"`+hx+`"`)) {
				out.failed++
			}
			continue
		}
		verdict := verdicts[rng.Intn(len(verdicts))]
		from := 1 + uint64(rng.Int63n(int64(q.maxPre)))
		to := from + uint64(rng.Intn(rangeBlocks))
		path := fmt.Sprintf("/reports?verdict=%s&from=%d&to=%d&limit=%d", verdict, from, to, listLimit)
		after := ""
		for page := 0; page < listPages; page++ {
			start := time.Now()
			var code int
			buf, code, out.err = h.get(tr, buf, "serve.list", path+after)
			if out.err != nil {
				return
			}
			out.lat = append(out.lat, float64(time.Since(start)))
			next, ok := checkPage(buf, code, verdict, from, to)
			if !ok {
				out.failed++
			}
			if next == "" {
				break
			}
			after = "&after=" + next
		}
	}
}

// checkPage checks that a /reports page is a 2xx answer holding only
// reports from [from, to] with the requested verdict, and returns its
// nextAfter cursor ("" on the last page).
func checkPage(body []byte, code int, verdict string, from, to uint64) (string, bool) {
	if code != 200 || !bytes.HasPrefix(body, []byte(`{"reports":[`)) {
		return "", false
	}
	reports := bytes.Count(body, []byte(`"txHash":"`))
	ok := true
	switch verdict {
	case "attack":
		ok = bytes.Count(body, []byte(`"isAttack":true`)) == reports
	case "flashloan":
		ok = bytes.Count(body, []byte(`"loans":[`)) == reports
	}
	key := []byte(`"block":`)
	for rest := body; ; {
		i := bytes.Index(rest, key)
		if i < 0 {
			break
		}
		rest = rest[i+len(key):]
		j := bytes.IndexAny(rest, ",}")
		if j < 0 {
			return "", false
		}
		b, err := strconv.ParseUint(string(rest[:j]), 10, 64)
		if err != nil || b < from || b > to {
			ok = false
		}
	}
	const cur = `"nextAfter":"`
	i := bytes.Index(body, []byte(cur))
	if i < 0 {
		return "", ok
	}
	rest := body[i+len(cur):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	if _, err := types.HashFromHex(string(rest[:j])); err != nil {
		return "", false
	}
	return string(rest[:j]), ok
}
