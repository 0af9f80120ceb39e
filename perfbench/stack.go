package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"leishen/internal/archive"
	"leishen/internal/core"
	"leishen/internal/follower"
	"leishen/internal/metrics"
	"leishen/internal/scan"
	"leishen/internal/serve"
	"leishen/internal/vfs"
)

// Set-up timing. A single set-up takes a few milliseconds, too short to
// time steadily on its own, so a run times setupBatches batches of
// setupBatch set-ups each; setup_s is the median batch's mean.
const (
	setupBatches = 7
	setupBatch   = 10
)

// warmReceipts is how many flash loan receipts set-up scans, untimed by
// any pass, to fill the detector's lazily built state before traffic.
const warmReceipts = 256

// harness owns what lives for a whole run: the generated input, the
// loopback listener and its client, and the tracer of a traced run.
type harness struct {
	in     *input
	dir    string
	tr     *tracer // nil in untraced runs
	passes int     // pass directories handed out so far

	// handler is the current stack's serve handler; the one listener
	// outlives every stack and forwards to it.
	handler atomic.Pointer[http.Handler]
	hs      *http.Server
	client  *http.Client
	base    string
}

func newHarness(in *input, dir string, traced bool) (*harness, error) {
	h := &harness{in: in, dir: dir}
	if traced {
		h.tr = newTracer()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*h.handler.Load()).ServeHTTP(w, r)
	})}
	// Serve returns http.ErrServerClosed once close shuts it down.
	go h.hs.Serve(ln)
	conns := runtime.NumCPU()
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	return h, nil
}

// close stops the listener and waits for its connections to finish.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return h.hs.Shutdown(ctx)
}

// passDir returns a fresh, empty archive directory.
func (h *harness) passDir() (string, error) {
	h.passes++
	d := filepath.Join(h.dir, "pass-"+strconv.Itoa(h.passes))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// stack is one set-up of the program on the deployment path: detector,
// archive, follower, and the HTTP handler serving the archive.
type stack struct {
	det *core.Detector
	arc *archive.Archive
	fol *follower.Follower
	dir string
	// scratch marks a pass directory, removed once the pass is done.
	scratch bool

	// Probes of a traced pass; tr, fs and reg are nil otherwise.
	tr       *tracer
	fs       *fsCounts
	reg      *metrics.Registry
	srcCalls atomic.Int64
}

// setUp builds a stack over the archive in dir and the given source,
// then warms it; the returned duration is the program's set-up time.
func (h *harness) setUp(dir string, src follower.BlockSource, traced bool) (*stack, time.Duration, error) {
	st := &stack{dir: dir}
	var fsys vfs.FS = vfs.OS
	if traced {
		st.tr = h.tr
		st.fs = &fsCounts{}
		fsys = timingFS{FS: vfs.OS, c: st.fs}
		src = countingSource{BlockSource: src, calls: &st.srcCalls}
	}
	start := time.Now()
	st.det = h.in.detector()
	arc, err := archive.OpenFS(fsys, dir, archive.Options{})
	if err != nil {
		return nil, 0, err
	}
	st.arc = arc
	fol, err := follower.New(src, st.det, arc, follower.Options{})
	if err != nil {
		arc.Close()
		return nil, 0, err
	}
	st.fol = fol
	srv := serve.New(h.in.corpus.Env.Chain, st.det)
	srv.SetArchive(arc)
	srv.SetFollower(fol)
	if traced {
		st.reg = metrics.NewRegistry()
		srv.SetMetrics(serve.NewMetrics(st.reg))
	}
	handler := srv.Handler()
	h.handler.Store(&handler)
	scan.Scan(st.det, h.in.flash[:min(warmReceipts, len(h.in.flash))], scan.Options{})
	if _, _, err := h.get(nil, nil, "", "/healthz"); err != nil {
		st.tearDown()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return st, time.Since(start), nil
}

// timeSetups sets the program up in batches over fresh state from
// prepare and returns each batch's mean set-up time in seconds. With
// scratch, each archive directory is removed after its set-up.
func (h *harness) timeSetups(prepare func() (string, follower.BlockSource, error), scratch bool) ([]float64, error) {
	var out []float64
	for b := 0; b < setupBatches; b++ {
		drainGC()
		var sum time.Duration
		for i := 0; i < setupBatch; i++ {
			dir, src, err := prepare()
			if err != nil {
				return nil, err
			}
			st, d, err := h.setUp(dir, src, false)
			if err != nil {
				return nil, err
			}
			sum += d
			if err := st.tearDown(); err != nil {
				return nil, err
			}
			if scratch {
				if err := os.RemoveAll(dir); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, sum.Seconds()/setupBatch)
	}
	return out, nil
}

// tearDown stops the follower (draining its queue) and closes the
// archive, which seals the tail segment's sidecar.
func (st *stack) tearDown() error {
	return errors.Join(st.fol.Close(), st.arc.Close())
}

// step runs one follower Step inside a span.
func (st *stack) step() (bool, error) {
	sp := st.tr.begin("follower.step", 0)
	ok, err := st.fol.Step()
	st.tr.end(sp)
	return ok, err
}

// flush waits for durability inside a span.
func (st *stack) flush() error {
	sp := st.tr.begin("follower.flush", 0)
	err := st.fol.Flush()
	st.tr.end(sp)
	return err
}

// get issues one GET inside a client span called name and returns the
// body (reusing buf) and the status code.
func (h *harness) get(tr *tracer, buf []byte, name, path string) ([]byte, int, error) {
	sp := tr.begin(name, 0)
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return buf, 0, err
	}
	w := bytes.NewBuffer(buf[:0])
	_, err = io.Copy(w, resp.Body)
	resp.Body.Close()
	tr.end(sp)
	return w.Bytes(), resp.StatusCode, err
}

// drainGC collects garbage left by earlier work so it is not charged to
// the pass that follows. It collects twice: the first cycle only moves
// sync.Pool contents to their victim caches, the second frees them.
func drainGC() {
	runtime.GC()
	runtime.GC()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}
