// Command seqverd is the verification daemon: a long-running service
// that accepts sequential-equivalence jobs over HTTP, runs them on a
// bounded worker pool, and answers repeat submissions from a
// content-addressed result cache keyed by the prepared miter's
// structural hash. docs/API.md documents the wire protocol.
//
// Usage:
//
//	seqverd [-addr :7333] [-pool N] [-queue N]
//	        [-default-budget DUR] [-max-budget DUR]
//	        [-cache-bytes N] [-cache-dir DIR]
//	        [-journal-dir DIR] [-journal-fsync]
//	        [-max-attempts N] [-stall-timeout DUR] [-mem-ceiling N]
//	        [-drain-timeout DUR] [-trace-bytes N] [-max-body N]
//	        [-log-level LEVEL] [-log-format FMT]
//	        [-slo-latency SPEC] [-slo-availability PCT]
//	        [-profile-dir DIR] [-profile-interval DUR]
//	        [-profile-cpu-duration DUR] [-profile-max-captures N]
//	        [-profile-max-bytes N]
//	        [-faults SPEC]
//
// The API lives under /api/v1 (submit POST /api/v1/jobs, poll
// GET /api/v1/jobs/{id}, stream GET /api/v1/jobs/{id}/events, waterfall
// GET /api/v1/jobs/{id}/report, history GET /api/v1/stats/timeseries);
// the same listener also serves the observability surface — the live
// /dashboard cockpit, the /readyz readiness probe, Prometheus /metrics
// (including seqver_cache_{hits,misses,evictions}_total and, with SLOs
// configured, seqver_slo_*_ratio burn gauges), /healthz, /debug/vars,
// and /debug/pprof.
//
// Logs are structured (log/slog): -log-format json (default) or text,
// -log-level debug|info|warn|error. Every line under a job or HTTP
// request carries its job_id / request_id automatically, so one grep
// follows a job across the access log and the worker lifecycle.
//
// -slo-latency "p99<2s" and -slo-availability "99.9" arm the SLO
// tracker: rolling error-budget burn-rate gauges in /metrics, meters on
// the dashboard, and status in /readyz.
//
// -profile-dir arms the continuous profiling ring: periodic CPU and
// heap pprof captures into a bounded on-disk ring (oldest evicted past
// -profile-max-captures / -profile-max-bytes), listed and downloadable
// at /debug/profiles — a post-incident profile exists without anyone
// having been attached. Diff two captures with
// `go tool pprof -diff_base old.pprof new.pprof`.
//
// On SIGTERM or SIGINT the daemon drains: new submissions get 503 +
// Retry-After, jobs still queued finish as "rejected", and in-flight
// jobs get -drain-timeout to complete before their budgets are cut
// (degrading verdicts to undecided, never to a wrong answer). A second
// signal exits immediately. /readyz flips to {"state":"draining"} the
// moment the drain begins.
//
// With -journal-dir the daemon is crash-safe: every job lifecycle
// transition is appended to a JSONL write-ahead log, and a daemon that
// dies uncleanly (SIGKILL, OOM) restarts by replaying it — finished
// jobs reappear with their verdicts, interrupted jobs are re-enqueued
// or answered from the result cache by their journaled miter hash.
// -max-attempts, -stall-timeout, and -mem-ceiling tune the per-job
// watchdog and retry ladder; docs/OPERATIONS.md is the runbook.
//
// -faults (or SEQVERD_FAULTS) enables deterministic fault injection for
// chaos testing — never set it in production. See internal/faults.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seqver/internal/faults"
	"seqver/internal/metrics"
	"seqver/internal/obs"
	"seqver/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":7333", "HTTP listen address")
	pool := flag.Int("pool", 2, "verification worker pool size (jobs solved concurrently)")
	queue := flag.Int("queue", 64, "queued-job bound; a full queue answers 503")
	defaultBudget := flag.Duration("default-budget", 30*time.Second, "per-job wall-clock budget when the request omits budget_ms")
	maxBudget := flag.Duration("max-budget", 5*time.Minute, "hard cap on a requested per-job budget")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "in-memory result cache budget in bytes")
	cacheDir := flag.String("cache-dir", "", "persist cache entries to DIR (survives restarts; empty: memory only)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "time in-flight jobs get to finish after SIGTERM")
	traceBytes := flag.Int("trace-bytes", 4<<20, "per-job buffered trace cap in bytes")
	maxBody := flag.Int64("max-body", 8<<20, "maximum submission body size in bytes")
	journalDir := flag.String("journal-dir", "", "durable job journal directory (crash recovery; empty: in-memory only)")
	journalFsync := flag.Bool("journal-fsync", false, "fsync every journal append (survives power loss, not just SIGKILL)")
	maxAttempts := flag.Int("max-attempts", 3, "running attempts per job before quarantine")
	stallTimeout := flag.Duration("stall-timeout", 2*time.Minute, "watchdog kills a job emitting no progress events for this long (negative: off)")
	memCeiling := flag.Int64("mem-ceiling", 0, "watchdog kills the running job when the process heap exceeds this many bytes (0: off)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "json", "log encoding: json or text")
	sloLatency := flag.String("slo-latency", "", "latency SLO, e.g. \"p99<2s\" (empty: no latency objective)")
	sloAvailability := flag.String("slo-availability", "", "availability SLO as a percent of jobs that must decide, e.g. \"99.9\" (empty: off)")
	profileDir := flag.String("profile-dir", "", "continuous profiling ring directory (empty: off); serves /debug/profiles")
	profileInterval := flag.Duration("profile-interval", time.Minute, "spacing between periodic capture rounds")
	profileCPUDur := flag.Duration("profile-cpu-duration", 10*time.Second, "CPU sampling window per round (clamped to half the interval)")
	profileMaxCaptures := flag.Int("profile-max-captures", 32, "retained capture files before oldest-first eviction")
	profileMaxBytes := flag.Int64("profile-max-bytes", 64<<20, "retained capture bytes before oldest-first eviction")
	faultSpec := flag.String("faults", os.Getenv("SEQVERD_FAULTS"),
		"deterministic fault-injection spec for chaos testing, e.g. \"seed=7,worker_panic=0.2\" (default $SEQVERD_FAULTS; empty: off)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: seqverd [flags]")
		flag.PrintDefaults()
		return 3
	}

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return fail(err)
	}
	slog.SetDefault(logger)

	var objectives []metrics.Objective
	if *sloLatency != "" {
		o, err := metrics.ParseLatencySLO(*sloLatency)
		if err != nil {
			return fail(err)
		}
		objectives = append(objectives, o)
	}
	if *sloAvailability != "" {
		o, err := metrics.ParseAvailabilitySLO(*sloAvailability)
		if err != nil {
			return fail(err)
		}
		objectives = append(objectives, o)
	}

	if plan, err := faults.Parse(*faultSpec); err != nil {
		return fail(err)
	} else if plan != nil {
		faults.Install(plan)
		logger.Warn("FAULT INJECTION ACTIVE — not a production configuration",
			slog.String("plan", plan.String()))
	}

	s, err := serve.New(serve.Options{
		Workers:         *pool,
		QueueDepth:      *queue,
		DefaultBudget:   *defaultBudget,
		MaxBudget:       *maxBudget,
		CacheBytes:      *cacheBytes,
		CacheDir:        *cacheDir,
		TraceBytes:      *traceBytes,
		MaxBodyBytes:    *maxBody,
		JournalDir:      *journalDir,
		JournalFsync:    *journalFsync,
		MaxAttempts:     *maxAttempts,
		StallTimeout:    *stallTimeout,
		MemCeilingBytes: *memCeiling,
		Logger:          logger,
		Objectives:      objectives,

		ProfileDir:         *profileDir,
		ProfileInterval:    *profileInterval,
		ProfileCPUDuration: *profileCPUDur,
		ProfileMaxCaptures: *profileMaxCaptures,
		ProfileMaxBytes:    *profileMaxBytes,
	})
	if err != nil {
		return fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("dashboard", fmt.Sprintf("http://%s/dashboard", ln.Addr())),
		slog.Int("slo_objectives", len(objectives)))

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return fail(err)
	case sig := <-sigc:
		logger.Info("signal received, draining",
			slog.String("signal", sig.String()),
			slog.Duration("drain_timeout", *drainTimeout))
	}
	go func() {
		<-sigc
		logger.Error("forced exit on second signal")
		os.Exit(1)
	}()

	s.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", slog.String("error", err.Error()))
	}
	logger.Info("exit")
	return 0
}

// buildLogger assembles the daemon's logging stack: the chosen slog
// handler on stderr wrapped in obs.NewLogHandler, which stamps every
// record with the correlation ids (job_id, request_id) riding the
// context as obs baggage.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "json", "":
		h = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want json or text)", format)
	}
	return slog.New(obs.NewLogHandler(h)), nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "seqverd:", err)
	return 3
}
