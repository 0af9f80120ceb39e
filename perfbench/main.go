// Command perfbench is the repository's end-to-end benchmark. It runs
// generated chains through the deployment path — a follower.BlockSource,
// the follower (screen, scan, encode), the archive on a vfs.FS, and the
// serve handler on a loopback listener — measures one workload for a
// fixed time, checks the outputs, and prints one JSON result line.
//
//	perfbench -workload backfill|tail|query -seed N -seconds S -trace 0|1
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a traced run, whose spans are also
// written to a JSON-lines file under .bench_build/work. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"leishen/internal/evm"
	"leishen/internal/follower"
)

// Run shape. Open-loop workloads split their time into fixed passes;
// backfill repeats whole catch-ups until the time is spent.
const (
	openLoopPasses  = 10
	minBackfill     = 3
	defaultScalePct = 10
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    int
	dir      string
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: backfill, tail or query")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.Parse()
	cfg.traced = trace == 1
	cfg.scale, cfg.dir = defaultScalePct, filepath.Join(".bench_build", "work")
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// passOut is one pass's measurements and the stack it leaves open.
type passOut struct {
	st *stack
	ps passStats
	// live are the blocks the pass followed; archived are all blocks
	// the archive holds afterwards.
	live, archived []*evm.Block
}

func run(cfg config) (*outcome, error) {
	work := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d-pid%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	t0 := time.Now()
	in, err := generate(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	drainGC()
	baseHeap := heapInUse()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d scale %d%%: %d blocks, %d flash loan and %d other receipts generated in %.1fs; gomaxprocs %d\n",
		cfg.workload, cfg.seed, cfg.scale, len(in.blocks), len(in.flash), len(in.plain), time.Since(t0).Seconds(), runtime.GOMAXPROCS(0))

	h, err := newHarness(in, work, cfg.traced)
	if err != nil {
		return nil, err
	}
	defer h.close()
	rs := &results{}

	var pass func(traced bool) (passOut, error)
	var done func(i int, elapsed time.Duration) bool
	// prepare hands set-up repetitions the state a pass starts from.
	var prepare func() (string, follower.BlockSource, error)
	freshDir := func(blocks []*evm.Block, head uint64) func() (string, follower.BlockSource, error) {
		return func() (string, follower.BlockSource, error) {
			dir, err := h.passDir()
			f := &feed{blocks: blocks}
			f.head.Store(head)
			return dir, f, err
		}
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	slice := window / openLoopPasses
	switch cfg.workload {
	case "backfill":
		pass = func(traced bool) (passOut, error) {
			st, ps, err := h.backfillPass(traced)
			return passOut{st: st, ps: ps, live: in.blocks, archived: in.blocks}, err
		}
		done = func(i int, elapsed time.Duration) bool { return elapsed >= window && i+1 >= minBackfill }
		prepare = freshDir(in.blocks, uint64(len(in.blocks)))
	case "tail":
		pass = func(traced bool) (passOut, error) {
			st, blocks, ps, err := h.tailPass(traced, slice, rs)
			return passOut{st: st, ps: ps, live: blocks, archived: blocks}, err
		}
		done = func(i int, _ time.Duration) bool { return i+1 >= openLoopPasses }
		prepare = freshDir(nil, 0)
	case "query":
		q, err := h.prepopulate()
		if err != nil {
			return nil, fmt.Errorf("pre-populate: %w", err)
		}
		pass = func(traced bool) (passOut, error) {
			first := q.feed.head.Load() + 1
			st, ps, err := h.queryPass(q, traced, slice, rs)
			last := q.feed.head.Load()
			return passOut{st: st, ps: ps, live: q.feed.blocks[first-1 : last], archived: q.feed.blocks[:last]}, err
		}
		done = func(i int, _ time.Duration) bool { return i+1 >= openLoopPasses }
		prepare = func() (string, follower.BlockSource, error) { return q.dir, q.feed, nil }
	default:
		return nil, fmt.Errorf("unknown workload %q (want backfill, tail or query)", cfg.workload)
	}

	setups, err := h.timeSetups(prepare, cfg.workload != "query")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// Passes alternate untraced and traced in a traced run, ending on a
	// traced one, so the two can be compared for tracing overhead.
	var passes []passStats
	var last passOut
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.traced && i%2 == 1
		out, err := pass(traced)
		if err != nil {
			if out.st != nil {
				out.st.tearDown()
			}
			return nil, fmt.Errorf("%s pass %d: %w", cfg.workload, i, err)
		}
		if done(i, time.Since(start)) && (traced || !cfg.traced) {
			last = out
			break
		}
		if err := h.finish(out.st, &out.ps); err != nil {
			return nil, err
		}
		passes = append(passes, out.ps)
	}

	// The last stack stays open: its heap is the program's, then the
	// output checks run through its HTTP handler.
	drainGC()
	liveHeap := heapInUse() - baseHeap
	if err := h.verify(last.st, &last.ps, last.archived, cfg.workload == "backfill", rs); err != nil {
		last.st.tearDown()
		return nil, fmt.Errorf("output check: %w", err)
	}
	var lay *layerProbe
	if cfg.traced {
		if lay, err = h.probeLayers(last); err != nil {
			last.st.tearDown()
			return nil, err
		}
	}
	if err := h.finish(last.st, &last.ps); err != nil {
		return nil, err
	}
	passes = append(passes, last.ps)
	runtime.KeepAlive(in)

	out := &outcome{Correct: rs.failed == 0, Attempted: rs.attempted, Failed: rs.failed}
	if out.Attempted == 0 {
		return nil, fmt.Errorf("no output checks ran")
	}
	for _, n := range rs.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	var late []float64
	for _, ps := range passes {
		late = append(late, ps.late...)
	}
	if len(late) > 0 {
		q, tail := tailQuantile(late)
		fmt.Fprintf(os.Stderr, "perfbench: generator ran late by p50 %.3f p%.4g %.3f ms over %d releases\n",
			quantile(late, 0.5)/1e6, 100*q, tail/1e6, len(late))
	}
	if cfg.traced {
		out.Metrics = perLayerMetrics(passes, h.tr, lay)
		path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := h.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	} else {
		out.Metrics = endToEndMetrics(passes, setups, liveHeap)
	}
	for _, name := range report(out.Metrics) {
		if v := out.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return out, nil
}

// heapInUse is the live heap right after a collection, in bytes.
func heapInUse() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// endToEndMetrics reduces untraced passes to the end-to-end metrics.
// Each pass yields one value per metric (its rate, its latency
// quantiles, its cost per operation) and the run reports the median
// over passes, so a stall that spans a few passes moves no metric.
// setup_s is the median over the run's set-up batches.
func endToEndMetrics(passes []passStats, setups []float64, liveHeap float64) map[string]metric {
	var ingest, ops, p50, p90, cpu, disk, lat []float64
	for _, ps := range passes {
		ingest = append(ingest, median(ps.ingestRate))
		ops = append(ops, median(ps.opRate))
		p50 = append(p50, quantile(ps.opLat, 0.5))
		p90 = append(p90, quantile(ps.opLat, 0.9))
		cpu = append(cpu, ms(ps.cpu)/float64(ps.ops))
		disk = append(disk, float64(ps.diskBytes)/float64(ps.records))
		lat = append(lat, ps.opLat...)
		fmt.Fprintf(os.Stderr, "  pass: setup %.2fms busy %.1fms txs %d ops %d cpu %.1fms gc %d\n",
			ms(ps.setup), ms(ps.busy), ps.txs, ps.ops, ms(ps.cpu), ps.gcCycles)
	}
	q, tail := tailQuantile(lat)
	fmt.Fprintf(os.Stderr, "perfbench: %d passes; all %d operation latencies: p50 %.3f p90 %.3f p95 %.3f p%.4g %.3f ms\n",
		len(passes), len(lat), quantile(lat, 0.5)/1e6, quantile(lat, 0.9)/1e6, quantile(lat, 0.95)/1e6, 100*q, tail/1e6)
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"ingest_tx_per_s":   {median(ingest), "tx/s"},
		"ops_per_s":         {median(ops), "op/s"},
		"op_p50_ms":         {median(p50) / 1e6, "ms"},
		"op_p90_ms":         {median(p90) / 1e6, "ms"},
		"cpu_ms_per_op":     {median(cpu), "ms"},
		"disk_bytes_per_tx": {median(disk), "B"},
		"live_heap_mb":      {liveHeap / (1 << 20), "MB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// report prints the metrics to standard error, one per line, and
// returns their names in that order.
func report(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-30s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
	return names
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile picks the reported tail of xs: p99, or, with fewer than
// 1,000 samples, the highest quantile that leaves at least ten samples
// beyond it. It returns the quantile and its value.
func tailQuantile(xs []float64) (q, v float64) {
	q = 0.99
	if n := float64(len(xs)); n > 0 && 1-10/n < q {
		q = math.Max(0.5, 1-10/n)
	}
	return q, quantile(xs, q)
}
