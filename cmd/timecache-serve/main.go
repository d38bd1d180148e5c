// Command timecache-serve is the simulation job service daemon: it exposes
// the experiment, attack, and sweep harness over a JSON/HTTP API so many
// clients can share one warm simulator fleet instead of forking CLIs.
//
// Usage:
//
//	timecache-serve -addr :8080 -workers 4 -queue 64 -log-format json
//
// Endpoints (see internal/server and EXPERIMENTS.md for the job-spec
// schema):
//
//	POST   /v1/jobs             submit a job (202; 429+Retry-After when full)
//	GET    /v1/jobs             list jobs (?limit=&after= paginate)
//	POST   /v1/store/compact    compact the durable job log (404 if -store-dir unset)
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel (stops a running simulation mid-slice)
//	GET    /v1/jobs/{id}/events progress stream (SSE)
//	GET    /v1/jobs/{id}/result result as ?format=csv|md|json
//	GET    /v1/jobs/{id}/trace  per-job Chrome trace (lifecycle + leg spans)
//	GET    /v1/experiments      available experiment names
//	GET    /v1/cache/stats      result-cache accounting snapshot
//	DELETE /v1/cache            drop every cached result
//	GET    /healthz /readyz /metrics
//
// The daemon fronts the workers with a content-addressed result cache
// (bounded by -cache-entries and -cache-bytes; -cache-entries 0 disables
// it): a submission whose canonical spec matches a cached result is answered
// without simulating, concurrent identical submissions collapse onto one
// run, and every POST /v1/jobs response reports its disposition in the
// X-Timecache-Cache header (hit, miss, coalesced, or bypass — jobs can opt
// out per-submission with "no_cache": true).
//
// With -store-dir the daemon journals every job to a write-ahead log and
// replays it on restart: finished jobs come back byte-identical (results,
// SSE history, cache seeds), interrupted jobs resume at their first
// unfinished sweep leg. -fsync picks the durability/throughput trade,
// -store-retain bounds how many finished jobs compaction keeps, and
// POST /v1/store/compact rewrites the log on demand.
//
// The daemon is also its own worker fleet: -worker turns the process into a
// stateless leg executor serving POST /v1/legs (plus /healthz), and
// -worker-addrs points a coordinator at such daemons — legs are leased out
// remotely instead of (or in addition to) the in-process -workers, with
// -lease bounding each leg. -quota-burst/-quota-rate cap per-tenant
// admission.
//
// Structured logs (one line per admission decision, state transition,
// cancellation, timeout, and drain step) go to stderr in text or JSON form
// per -log-format. -debug-addr serves net/http/pprof on a second, separate
// listener so profiling endpoints are never exposed on the job API port.
//
// On SIGTERM/SIGINT the server stops admitting, finishes queued and running
// jobs, and exits 0; a second signal (or -drain-grace expiring) hard-cancels
// the remainder.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"timecache/internal/clock"
	"timecache/internal/jobstore"
	"timecache/internal/resultcache"
	"timecache/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "in-process leg executors, i.e. legs in flight (one pooled machine set each; at most GOMAXPROCS machine runs simulate at once)")
		queue      = flag.Int("queue", 64, "admission queue depth; a full queue answers 429")
		jobTimeout = flag.Duration("job-timeout", 0, "default per-job deadline (0 = unbounded; jobs may set timeout_ms)")
		drainGrace = flag.Duration("drain-grace", 2*time.Minute, "how long a graceful drain may wait for in-flight jobs")
		logFormat  = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		cacheEnts  = flag.Int("cache-entries", 512, "result-cache capacity in entries (0 disables the cache)")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "result-cache capacity in accounted bytes (0 = unbounded)")

		storeDir    = flag.String("store-dir", "", "durable job-store directory (empty = in-memory only, no restart recovery)")
		fsync       = flag.String("fsync", "always", "job-store sync policy: always (fsync per append) or none")
		storeRetain = flag.Int("store-retain", 0, "terminal jobs compaction keeps in the store (0 = all)")

		workerMode  = flag.Bool("worker", false, "run as a stateless leg-executor daemon (serves POST /v1/legs) instead of a coordinator")
		workerAddrs = flag.String("worker-addrs", "", "comma-separated base URLs of remote -worker daemons to execute legs on")
		lease       = flag.Duration("lease", 0, "per-leg lease; an executor overrunning it forfeits the leg (0 = no lease)")
		quotaBurst  = flag.Float64("quota-burst", 0, "per-tenant admission token-bucket capacity (0 = quotas off)")
		quotaRate   = flag.Float64("quota-rate", 1, "per-tenant token refill rate, tokens/second")
	)
	flag.Parse()
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "timecache-serve:", err)
		os.Exit(2)
	}
	if *workerMode {
		if err := runWorker(*addr, logger); err != nil {
			fmt.Fprintln(os.Stderr, "timecache-serve:", err)
			os.Exit(1)
		}
		return
	}
	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *jobTimeout,
		Clock:          clock.Real{},
		Logger:         logger,
		StoreRetain:    *storeRetain,
		LeaseTimeout:   *lease,
		QuotaBurst:     *quotaBurst,
		QuotaRate:      *quotaRate,
	}
	if *workerAddrs != "" {
		for _, a := range strings.Split(*workerAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.WorkerAddrs = append(cfg.WorkerAddrs, strings.TrimSuffix(a, "/"))
			}
		}
	}
	if *storeDir != "" {
		var policy jobstore.SyncPolicy
		switch *fsync {
		case "always":
			policy = jobstore.SyncAlways
		case "none":
			policy = jobstore.SyncNone
		default:
			fmt.Fprintf(os.Stderr, "timecache-serve: -fsync %q: want always or none\n", *fsync)
			os.Exit(2)
		}
		store, err := jobstore.Open(*storeDir, jobstore.DiskOptions{Sync: policy})
		if err != nil {
			fmt.Fprintln(os.Stderr, "timecache-serve: open job store:", err)
			os.Exit(1)
		}
		defer store.Close()
		cfg.Store = store
	}
	if err := run(*addr, *debugAddr, cfg, *cacheEnts, *cacheBytes, *drainGrace, logger); err != nil {
		fmt.Fprintln(os.Stderr, "timecache-serve:", err)
		os.Exit(1)
	}
}

// runWorker serves the stateless leg-executor protocol until SIGTERM/SIGINT.
// A worker holds no job state at all — killing one mid-leg only forfeits a
// lease — so shutdown is immediate.
func runWorker(addr string, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	h := server.NewWorker(server.WorkerConfig{Clock: clock.Real{}, Logger: logger})
	httpSrv := &http.Server{Handler: h}
	fmt.Printf("timecache-serve: worker mode, serving legs on %s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("worker signal received", "signal", sig.String())
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutCtx)
}

// buildLogger assembles the daemon's stderr logger from the flag values.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

func run(addr, debugAddr string, cfg server.Config, cacheEntries int, cacheBytes int64, drainGrace time.Duration, logger *slog.Logger) error {
	cacheDesc := "off"
	if cacheEntries > 0 {
		cfg.Cache = resultcache.New(
			resultcache.WithMaxEntries(cacheEntries),
			resultcache.WithMaxBytes(cacheBytes),
		)
		cacheDesc = fmt.Sprintf("%d entries / %d MiB", cacheEntries, cacheBytes>>20)
	}
	srv := server.New(cfg)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	storeDesc := "off"
	if cfg.Store != nil {
		storeDesc = "on"
	}
	fmt.Printf("timecache-serve: listening on %s (%d workers, %d remote, queue %d, cache %s, store %s)\n",
		ln.Addr(), cfg.Workers, len(cfg.WorkerAddrs), cfg.QueueDepth, cacheDesc, storeDesc)

	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		// The default mux would pick pprof up via its init registrations,
		// but an explicit mux keeps the debug surface to exactly pprof and
		// independent of anything else that registers globally.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof debug server listening", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				logger.Error("pprof debug server exited", "error", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("timecache-serve: %s: draining (grace %s; signal again to hard-stop)\n", sig, drainGrace)
		logger.Info("signal received", "signal", sig.String(), "drain_grace", drainGrace)
	}

	// Stop admitting and let in-flight jobs finish. The grace deadline runs
	// on the server's injected clock; a second signal cuts it short.
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.DrainWithGrace(drainGrace) }()
	go func() {
		<-sigc
		fmt.Println("timecache-serve: second signal: hard-cancelling jobs")
		logger.Warn("second signal: hard-cancelling jobs")
		// Drain with an already-expired context: hard-cancels immediately.
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		srv.Drain(expired)
	}()
	if err := <-drainErr; err != nil {
		fmt.Printf("timecache-serve: drain cut short: %v (all jobs reached terminal states)\n", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Println("timecache-serve: drained, exiting")
	return nil
}
