// Command bbcserved is the BBC batch-solve service: it exposes the
// pure-NE enumerators, best-response dynamics and the reproduction
// experiment suite as asynchronous HTTP/JSON jobs with fingerprint
// dedup, per-job run control (deadline, budget, cancel) and persisted
// enumeration checkpoints.
//
// Lifecycle: on SIGINT/SIGTERM the server drains — new submissions get
// 503 + Retry-After, queued jobs are rejected with a retry hint,
// in-flight jobs are cancelled and flush a final checkpoint — then the
// HTTP listener closes and the process exits 0 on a clean drain.
//
// Exit codes: 0 clean start-serve-drain cycle, 1 startup or serve
// error, 2 flag error, 130 a second signal force-exited a wedged drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"bbc/internal/obs"
	"bbc/internal/runctl"
	"bbc/internal/serve"
	"bbc/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr *os.File) int {
	fs := flag.NewFlagSet("bbcserved", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8371", "listen address (use :0 for an ephemeral port)")
		workers      = fs.Int("workers", 0, "job pool size (0 = NumCPU capped at 8)")
		queueSize    = fs.Int("queue", 0, "queued-job bound (0 = 64); full queue refuses with 429")
		cacheSize    = fs.Int("cache", 0, "terminal jobs retained for polling/dedup (0 = 128)")
		dataDir      = fs.String("data", "", "directory for enumeration checkpoints and per-job journals (\"\" = off)")
		storeDir     = fs.String("store", "", "durable job store directory (WAL + compacted index): results dedup across restarts, interrupted jobs re-queue (\"\" = in-memory)")
		compactEvery = fs.Int("compact-every", 0, "store WAL appends between index compactions (0 = 256)")
		ckptEvery    = fs.Uint64("checkpoint-every", 0, "serial-scan checkpoint period in profiles (0 = 1048576)")
		rate         = fs.Float64("rate", 0, "per-client sustained submissions per second admitted (0 = unlimited)")
		burst        = fs.Int("burst", 0, "per-client submission burst above -rate (0 = ceil(rate))")
		maxInflight  = fs.Int("max-inflight", 0, "per-client cap on jobs queued or running at once (0 = unlimited)")
		journalPath  = fs.String("journal", "", "server lifecycle JSONL journal path (\"\" = off)")
		journalMax   = fs.Int64("journal-max-bytes", 0, "rotate the lifecycle journal to <path>.1 past this size (0 = unbounded)")
		tracePath    = fs.String("trace", "", "write a Chrome trace-event JSON file of job spans on exit (\"\" = off)")
		pprofAddr    = fs.String("pprof", "", "pprof/expvar debug server address (\"\" = off)")
		retryAfter   = fs.Duration("retry-after", 0, "Retry-After hint on refused submissions and drain rejections (0 = 5s)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "bound on the HTTP listener shutdown after the pool drains")
	)
	fs.Parse(args)

	rt, err := obs.StartCLIConfig(obs.CLIConfig{
		Name: "bbcserved", Journal: *journalPath, JournalMaxBytes: *journalMax,
		Trace: *tracePath, Pprof: *pprofAddr, Stderr: stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bbcserved: %v\n", err)
		return runctl.ExitError
	}

	cfg := serve.Config{
		Workers:         *workers,
		QueueSize:       *queueSize,
		CacheSize:       *cacheSize,
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
		RetryAfter:      *retryAfter,
		Admission:       serve.AdmissionConfig{Rate: *rate, Burst: *burst, MaxInFlight: *maxInflight},
		Reg:             rt.Reg,
		Journal:         rt.Journal,
	}
	if *storeDir != "" {
		st, rec, err := store.Open(*storeDir, store.Options{
			CompactEvery: *compactEvery, Reg: rt.Reg, Journal: rt.Journal,
		})
		if err != nil {
			fmt.Fprintf(stderr, "bbcserved: open store: %v\n", err)
			return runctl.ExitError
		}
		// The recovery report goes to stderr so operators see at a glance
		// what a restart salvaged; quarantines are loud but non-fatal.
		fmt.Fprintf(stderr, "bbcserved: store %s: %d indexed + %d replayed jobs", *storeDir, rec.IndexJobs, rec.Replayed)
		if rec.Quarantined > 0 {
			fmt.Fprintf(stderr, ", %d records quarantined", rec.Quarantined)
		}
		if rec.TornBytes > 0 {
			fmt.Fprintf(stderr, ", torn tail of %d bytes truncated", rec.TornBytes)
		}
		fmt.Fprintln(stderr)
		cfg.Store = st
	}

	// serve.New re-queues any interrupted jobs the store recovered and
	// Drain closes the store, so nothing here needs to.
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bbcserved: %v\n", err)
		return runctl.ExitError
	}

	// Take over SIGINT/SIGTERM before announcing the port: a signal that
	// arrives as soon as a client can connect must drain, not kill.
	ctx, signalled, stopSignals := runctl.SignalContext(context.Background())
	defer stopSignals()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "bbcserved: %v\n", err)
		return runctl.ExitError
	}
	// Announced on stderr so scripts (and the CI smoke test) can discover
	// the bound port when -addr :0 is used.
	fmt.Fprintf(stderr, "bbcserved: listening on http://%s\n", ln.Addr())
	rt.Journal.Event("serve_start", map[string]any{"addr": ln.Addr().String()})

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	code := runctl.ExitOK
	select {
	case err := <-serveErr:
		// The listener died underneath us; there is nothing to drain into.
		fmt.Fprintf(stderr, "bbcserved: serve: %v\n", err)
		code = runctl.ExitError
	case <-ctx.Done():
		sig := signalled()
		fmt.Fprintf(stderr, "bbcserved: %v: draining (in-flight jobs checkpoint, queued jobs rejected)\n", sig)
		sum := srv.Drain()
		fmt.Fprintf(stderr, "bbcserved: drained: %d in-flight cancelled, %d queued rejected\n",
			sum.Cancelled, sum.Rejected)

		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := httpSrv.Shutdown(shutCtx)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "bbcserved: shutdown: %v\n", err)
			code = runctl.ExitError
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "bbcserved: serve: %v\n", err)
			code = runctl.ExitError
		}
		rt.Journal.RunStatus(runctl.StatusCancelled.String(), code == runctl.ExitOK, map[string]any{
			"signal":              fmt.Sprint(sig),
			"cancelled_in_flight": sum.Cancelled,
			"rejected_queued":     sum.Rejected,
		})
	}

	if err := rt.Close(); err != nil {
		fmt.Fprintf(stderr, "bbcserved: %v\n", err)
		if code == runctl.ExitOK {
			code = runctl.ExitError
		}
	}
	return code
}
