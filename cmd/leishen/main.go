// Command leishen is the detector CLI:
//
//	leishen -scenario bZx-1           # reproduce a known attack and inspect it
//	leishen -list                     # list the 22 reproducible scenarios
//	leishen -scan -scale 2 -seed 7    # generate a wild corpus and scan it
//	leishen -scan -workers 8          # scan on a worker pool (0 = GOMAXPROCS)
//	leishen -scan -heuristic          # scan with the yield-aggregator heuristic
//	leishen -scan -verbose            # print a detailed report per detection
//	leishen -scan -json               # emit JSON report lines
//	leishen -serve :8080 -scale 2     # HTTP monitor over a generated corpus
//	leishen -follow -archive DIR      # follow the chain into a durable archive
//	leishen -serve :8080 -archive DIR # serve /reports queries from the archive
//
// Scanning runs on the internal/scan engine: receipts are sharded across
// -workers goroutines and verdicts stream out in input order as they
// resolve, so the output is byte-identical for any worker count.
//
// Follow mode screens every block through the detector and appends the
// verdicts to a crash-safe archive in -archive DIR, checkpointing per
// block; rerunning with the same directory resumes from the stored
// checkpoint instead of rescanning.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"leishen/internal/archive"
	"leishen/internal/attacks"
	"leishen/internal/buildinfo"
	"leishen/internal/core"
	"leishen/internal/follower"
	"leishen/internal/metrics"
	"leishen/internal/scan"
	"leishen/internal/serve"
	"leishen/internal/simplify"
	"leishen/internal/world"
)

// shutdownTimeout bounds how long -serve waits for in-flight requests
// after SIGINT/SIGTERM before the listener is torn down anyway.
const shutdownTimeout = 10 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leishen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list      = flag.Bool("list", false, "list reproducible attack scenarios")
		scenario  = flag.String("scenario", "", "reproduce and inspect a known attack by name")
		scanFlag  = flag.Bool("scan", false, "generate a wild corpus and scan every flash loan transaction")
		scale     = flag.Int("scale", 2, "corpus scale percent for -scan")
		seed      = flag.Int64("seed", 7, "corpus seed for -scan")
		workers   = flag.Int("workers", 0, "scan worker pool size (0 = GOMAXPROCS)")
		heuristic = flag.Bool("heuristic", false, "enable the yield-aggregator heuristic (§VI-C)")
		verbose   = flag.Bool("verbose", false, "print full reports for detections")
		jsonOut   = flag.Bool("json", false, "emit one JSON report per detection")
		serveAddr = flag.String("serve", "", "serve detection over HTTP on this address")
		follow    = flag.Bool("follow", false, "follow the chain head and archive every verdict")
		arcDir    = flag.String("archive", "", "durable report archive directory (for -follow and -serve)")
		version   = flag.Bool("version", false, "print the build version and exit")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this side address (-serve and -follow; empty = off)")

		// HTTP listener limits for -serve: without them one slow client
		// can hold a connection (and its goroutine) forever.
		readTimeout    = flag.Duration("read-timeout", serve.DefaultReadTimeout, "max duration to read one HTTP request (-serve)")
		writeTimeout   = flag.Duration("write-timeout", serve.DefaultWriteTimeout, "max duration to write one HTTP response (-serve)")
		idleTimeout    = flag.Duration("idle-timeout", serve.DefaultIdleTimeout, "max keep-alive idle time per connection (-serve)")
		maxHeaderBytes = flag.Int("max-header-bytes", serve.DefaultMaxHeaderBytes, "max HTTP request header bytes (-serve)")
	)
	flag.Parse()

	switch {
	case *version:
		fmt.Printf("leishen %s (%s)\n", buildinfo.Version, buildinfo.GoVersion())
		return nil
	case *list:
		for _, sc := range attacks.All() {
			fmt.Println(sc.Describe())
		}
		return nil
	case *scenario != "":
		return runScenario(*scenario, *verbose)
	case *follow:
		if *arcDir == "" {
			return fmt.Errorf("-follow needs -archive DIR to store verdicts in")
		}
		return runFollow(*arcDir, *debugAddr, *seed, *scale, *heuristic, *workers)
	case *serveAddr != "":
		httpCfg := serve.HTTPConfig{
			ReadTimeout:    *readTimeout,
			WriteTimeout:   *writeTimeout,
			IdleTimeout:    *idleTimeout,
			MaxHeaderBytes: *maxHeaderBytes,
		}
		return runServe(*serveAddr, *arcDir, *debugAddr, *seed, *scale, *heuristic, *workers, httpCfg)
	case *scanFlag:
		return runScan(*seed, *scale, *workers, *heuristic, *verbose, *jsonOut)
	default:
		flag.Usage()
		return nil
	}
}

// telemetry wires the process-wide registry for the daemon modes:
// build identity plus the scan and follower bundles. The archive and
// HTTP layers attach their own series where they are constructed.
func telemetry() (*metrics.Registry, *scan.Metrics, *follower.Metrics) {
	reg := metrics.Default()
	buildinfo.Register(reg)
	return reg, scan.NewMetrics(reg), follower.NewMetrics(reg)
}

// startDebugServer serves reg's /metrics plus net/http/pprof on its own
// listener — opt-in via -debug-addr, and deliberately a separate mux so
// profiling endpoints never ride on the public address. The returned
// shutdown func is best-effort.
func startDebugServer(addr string, reg *metrics.Registry) func() {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 15 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "leishen: debug listener:", err)
		}
	}()
	fmt.Printf("debug listener on %s (GET /metrics, /debug/pprof)\n", addr)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		//lint:allow errflow best-effort teardown of the side listener on exit
		_ = srv.Shutdown(ctx)
	}
}

// corpusDetector generates the deterministic wild corpus and builds its
// detector — the shared setup of scan, serve and follow modes.
func corpusDetector(seed int64, scale int, heuristic bool) (*world.Corpus, *core.Detector, error) {
	fmt.Printf("generating corpus (seed %d, scale %d%%)...\n", seed, scale)
	c, err := world.Generate(world.Config{Seed: seed, ScalePct: scale})
	if err != nil {
		return nil, nil, err
	}
	opts := core.Options{Simplify: simplify.Options{WETH: c.Env.WETH}}
	if heuristic {
		opts.YieldAggregatorHeuristic = true
		opts.YieldAggregatorApps = world.AggregatorApps
	}
	return c, core.NewDetector(c.Env.Chain, c.Env.Registry, opts), nil
}

// runFollow screens the generated chain block by block into a durable
// archive, then reports where the checkpoint landed. A rerun against the
// same directory resumes from that checkpoint: already-archived blocks
// are not rescanned.
//
// SIGINT/SIGTERM interrupts the catch-up between blocks: the follower
// is closed (draining the write queue through its final fsync) and the
// archive sealed (sidecar written), so a rerun resumes from exactly
// where the interrupt landed.
func runFollow(dir, debugAddr string, seed int64, scale int, heuristic bool, workers int) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	c, det, err := corpusDetector(seed, scale, heuristic)
	if err != nil {
		return err
	}
	reg, sm, fm := telemetry()
	if debugAddr != "" {
		defer startDebugServer(debugAddr, reg)()
	}
	arc, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	arc.RegisterMetrics(reg)
	if cp, ok := arc.Checkpoint(); ok {
		fmt.Printf("resuming from checkpoint block %d (%d records archived)\n", cp.Block, arc.Count())
	}
	fol, err := follower.New(follower.ChainSource(c.Env.Chain), det, arc, follower.Options{
		Scan:    scan.Options{Workers: workers, Metrics: sm},
		Metrics: fm,
	})
	if err != nil {
		arc.Close()
		return err
	}
	// Step-by-step catch-up with a signal check between blocks: one
	// block is the interruption granularity.
	var stepErr error
	for ctx.Err() == nil {
		processed, err := fol.Step()
		if err != nil {
			stepErr = err
			break
		}
		if !processed {
			break
		}
	}
	interrupted := ctx.Err() != nil && stepErr == nil

	closeErr := fol.Close() // drains the queue through the final fsync
	st := fol.Stats()       // after the drain, so Checkpoint is final
	records, segments := arc.Count(), arc.Segments()
	arcErr := arc.Close() // seals the tail sidecar
	for _, err := range []error{stepErr, closeErr, arcErr} {
		if err != nil {
			return err
		}
	}
	if interrupted {
		fmt.Printf("interrupted at block %d; archive closed cleanly, rerun to resume\n", st.Checkpoint)
		return nil
	}
	fmt.Printf("followed to block %d: %d flash loan transactions inspected, %d flagged\n",
		st.Checkpoint, st.Summary.Inspected, st.Summary.Attacks)
	fmt.Printf("archive %s: %d records in %d segment(s)\n", dir, records, segments)
	return nil
}

// runServe generates a corpus and serves detection reports over HTTP.
// With -archive DIR it first follows the chain into the archive and
// additionally serves the stored verdicts (/reports, /checkpoint). The
// listener runs with read/write/idle timeouts and a header cap, so a
// stalled client cannot pin a connection indefinitely.
//
// SIGINT/SIGTERM triggers a graceful exit: the listener stops accepting
// and drains in-flight requests (bounded by shutdownTimeout), then the
// follower's write queue drains through its final fsync, then the
// archive closes — writing the tail sidecar so the next open is
// index-loaded end to end.
func runServe(addr, dir, debugAddr string, seed int64, scale int, heuristic bool, workers int, httpCfg serve.HTTPConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	c, det, err := corpusDetector(seed, scale, heuristic)
	if err != nil {
		return err
	}
	reg, sm, fm := telemetry()
	if debugAddr != "" {
		defer startDebugServer(debugAddr, reg)()
	}
	srv := serve.New(c.Env.Chain, det)
	srv.ScanOpts = scan.Options{Workers: workers, Metrics: sm}
	srv.SetMetrics(serve.NewMetrics(reg))

	// Teardown in dependency order — HTTP first, then follower, then
	// archive — run explicitly on both the error and the signal path.
	var arc *archive.Archive
	var fol *follower.Follower
	closeAll := func() error {
		var first error
		if fol != nil {
			if err := fol.Close(); err != nil && first == nil {
				first = err
			}
		}
		if arc != nil {
			if err := arc.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if dir != "" {
		if arc, err = archive.Open(dir, archive.Options{}); err != nil {
			return err
		}
		arc.RegisterMetrics(reg)
		fol, err = follower.New(follower.ChainSource(c.Env.Chain), det, arc, follower.Options{
			Scan:    scan.Options{Workers: workers, Metrics: sm},
			Metrics: fm,
		})
		if err != nil {
			//lint:allow errflow the follower construction error is the one to report
			_ = closeAll()
			return err
		}
		if err := fol.CatchUp(); err != nil {
			//lint:allow errflow the catch-up error is the one to report
			_ = closeAll()
			return err
		}
		srv.SetArchive(arc)
		srv.SetFollower(fol)
		fmt.Printf("archive %s: %d records, checkpoint block %d\n", dir, arc.Count(), fol.Stats().Checkpoint)
	}

	httpSrv := srv.NewHTTPServer(addr, httpCfg)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("serving detection on %s (GET /healthz, /stats, /tx/{hash}, /block/{n}, /reports, /checkpoint, /metrics; POST /batch)\n", addr)

	select {
	case err := <-errCh:
		//lint:allow errflow the listener error is the one to report
		_ = closeAll()
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down: draining requests, flushing archive...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) && shutdownErr == nil {
		shutdownErr = err
	}
	if err := closeAll(); err != nil && shutdownErr == nil {
		shutdownErr = err
	}
	if shutdownErr == nil {
		fmt.Println("shutdown complete")
	}
	return shutdownErr
}

func runScenario(name string, verbose bool) error {
	sc, ok := attacks.ByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -list)", name)
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}
	det := core.NewDetector(res.Env.Chain, res.Env.Registry, core.Options{
		Simplify: simplify.Options{WETH: res.Env.WETH},
	})
	fmt.Printf("%s — profit %s\n", sc.Describe(), res.ProfitToken.Format(res.Profit))
	if verbose {
		fmt.Println(det.Trace(res.Receipt).Detail())
	} else {
		fmt.Println(det.Inspect(res.Receipt, nil).Summary())
	}
	return nil
}

// runScan scans the corpus on the worker pool, streaming verdicts
// window by window — detections print while later windows of the
// corpus are still being inspected, in the exact order a sequential
// scan would print them.
func runScan(seed int64, scale, workers int, heuristic, verbose, jsonOut bool) error {
	c, det, err := corpusDetector(seed, scale, heuristic)
	if err != nil {
		return err
	}

	var line []byte // -json output buffer, reused across reports
	sum, err := scan.Each(det, c.Receipts, scan.Options{Workers: workers}, func(i int, rep *core.Report) error {
		if !rep.IsAttack {
			return nil
		}
		switch {
		case jsonOut:
			var err error
			if line, err = rep.AppendJSON(line[:0]); err != nil {
				return err
			}
			if _, err = os.Stdout.Write(append(line, '\n')); err != nil {
				return err
			}
		case verbose:
			fmt.Println(det.Trace(c.Receipts[i]).Detail())
		default:
			fmt.Println(rep.Summary())
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nscanned %d flash loan transactions: %d flagged", sum.Inspected, sum.Attacks)
	if heuristic {
		fmt.Printf(", %d suppressed by the yield-aggregator heuristic", sum.Suppressed)
	}
	fmt.Println()
	return nil
}
