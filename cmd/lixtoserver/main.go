// Command lixtoserver runs a Lixto Transformation Server instance
// (Section 5) hosting the application pipelines of Section 6 over the
// simulated web, and serves their output on HTTP:
//
//	lixtoserver [-addr :8080] [-interval 2s] [-steps N] [-history N] [-pprof] [-allow-dynamic]
//	            [-shards N] [-workers N] [-jitter F] [-cache-entries N] [-cache-ttl D]
//	            [-watch-queue N] [-watch-heartbeat D]
//	            [-data-dir DIR] [-wal-fsync batch|always|off] [-wal-segment-bytes N]
//	            [-wal-max-segments N] [-wal-max-age D] [-wal-compact-segments N]
//	            [-webhook-timeout D] [-webhook-max-attempts N] [-webhook-cooldown D]
//
//	GET /nowplaying           the Now Playing portal feed (Section 6.1)
//	GET /flights              the latest flight alerts (6.2)
//	GET /press                the NITF news feed (6.3)
//	GET /power                the power-trading report (6.7)
//	GET /{name}/history?n=K   the K most recent documents of a pipeline
//	GET /v1/wrappers/{n}/watch  SSE change feed of new result snapshots
//	GET /healthz              liveness probe
//	GET /statusz              per-pipeline tick/error/latency counters
//	GET /debug/pprof/         live profiling (with -pprof)
//
// With -allow-dynamic the versioned wrapper-lifecycle API under /v1
// additionally accepts wrappers at runtime: POST an Elog program to
// /v1/wrappers (with an inline page or against the built-in simulated
// sites), extract synchronously via POST /v1/wrappers/{name}/extract,
// read results from GET /v1/wrappers/{name}/results, and retire with
// DELETE. See the README's "HTTP API v1" section.
//
// -history N bounds each pipeline's retained document ring (default 64).
//
// Documents are served as XML, or as JSON when the request's Accept
// header prefers application/json.
//
// In serve mode the pipelines tick on a sharded timer-heap scheduler:
// -shards timer goroutines own the next-fire deadline heaps and
// dispatch due wrappers into a pool of -workers goroutines, so the
// goroutine count stays O(shards+workers) no matter how many wrappers
// are registered. -jitter 0.1 spreads deadlines by ±10% of the
// interval so a large fleet does not fire in lockstep. -cache-entries
// sizes the shared fetch/document layer deduplicating fetch+parse
// across dynamic wrappers that monitor the same URLs (0 disables);
// -cache-ttl bounds how stale a shared page may be served. -batch
// (default on) additionally shares one match cache across dynamic
// wrappers, so fleets stamped from one template reuse each other's
// compiled pattern matches on shared pages (batched fleet extraction;
// /statusz reports the match_cache block).
// Every tick carries content-addressed reuse end to end: wrapper
// sources retain the previous tick's instance base and emitted XML
// subtrees, rebuild only the subtrees whose instances changed, and the
// delivery plane re-encodes snapshots by splicing the cached byte
// ranges of unchanged frozen subtrees — published bytes (and ETags)
// are identical to a full rebuild, at a cost proportional to the dirty
// region.
// Reads are served from immutable pre-encoded snapshots (strong ETags,
// If-None-Match → 304, gzip) and each wrapper's change feed streams at
// GET /v1/wrappers/{name}/watch as Server-Sent Events: -watch-queue
// bounds each subscriber's pending-event queue (slow clients drop their
// oldest events rather than stalling delivery) and -watch-heartbeat
// sets the SSE comment-ping period that keeps idle connections alive
// through proxies.
// With -data-dir every delivery is appended to a per-wrapper result
// log (a length-prefixed, CRC-checked WAL with segment rotation) before
// it is acknowledged; on restart the server rehydrates collector rings,
// published snapshots (ETags included), dynamic wrapper registrations,
// and webhook cursors from the logs, so reads and subscriptions resume
// byte-identically after a crash. -wal-fsync picks the durability
// trade: batch (default, a background syncer flushes every 50ms),
// always (fsync per append), or off. -wal-compact-segments N compacts a
// wrapper's log once N closed segments accumulate: the latest snapshot
// is written as a checkpoint record and every older segment is deleted,
// so restore cost stays bounded for long-lived wrappers instead of
// growing with their lifetime. Outbound webhooks — registered via
// POST /v1/wrappers/{name}/webhooks — push each new result to HTTP
// endpoints with retry/backoff and a circuit breaker, tuned by the
// -webhook-* flags.
// SIGINT/SIGTERM shuts the server down gracefully, draining queued and
// in-flight ticks (including dynamically registered wrappers). With
// -steps N the server instead runs N synchronous ticks, prints a
// summary and exits (useful without a long-running terminal).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/web"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	interval := flag.Duration("interval", 2*time.Second, "tick interval")
	steps := flag.Int("steps", 0, "run N ticks and exit (0 = serve forever)")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof endpoints")
	history := flag.Int("history", 0, "documents retained per pipeline (0 = default 64)")
	allowDynamic := flag.Bool("allow-dynamic", false,
		"accept wrapper registration at runtime via the /v1 API")
	shards := flag.Int("shards", 0, "scheduler timer shards (0 = default 4)")
	workers := flag.Int("workers", 0, "scheduler tick workers (0 = GOMAXPROCS)")
	jitter := flag.Float64("jitter", 0, "deadline jitter as a fraction of the interval (0..0.5)")
	cacheEntries := flag.Int("cache-entries", 1024, "shared fetch cache capacity in pages (0 disables)")
	cacheTTL := flag.Duration("cache-ttl", time.Second, "shared fetch cache freshness window (0 = never stale)")
	batch := flag.Bool("batch", true, "share one match cache across dynamic wrappers (batched fleet extraction)")
	matchCacheEntries := flag.Int("match-cache-entries", 0,
		"shared match cache capacity in entries, LRU-evicted (0 = default 65536)")
	watchQueue := flag.Int("watch-queue", 0, "pending events buffered per watch subscriber (0 = default 8)")
	watchHeartbeat := flag.Duration("watch-heartbeat", 0, "SSE heartbeat period for watch streams (0 = default 15s)")
	dataDir := flag.String("data-dir", "",
		"directory for durable result logs; enables crash recovery and webhook cursors (empty = in-memory only)")
	walFsync := flag.String("wal-fsync", "batch", "result-log fsync policy: batch, always, or off")
	walFsyncInterval := flag.Duration("wal-fsync-interval", 0, "batched fsync period (0 = default 50ms)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 0, "result-log segment rotation size (0 = default 4MiB)")
	walMaxSegments := flag.Int("wal-max-segments", 0, "closed segments retained per wrapper (0 = default 8)")
	walMaxAge := flag.Duration("wal-max-age", 0, "drop closed segments older than this (0 = keep by count only)")
	walCompactSegments := flag.Int("wal-compact-segments", 0,
		"checkpoint-compact a wrapper's log once this many closed segments accumulate (0 disables)")
	webhookTimeout := flag.Duration("webhook-timeout", 0, "outbound webhook request timeout (0 = default 5s)")
	webhookAttempts := flag.Int("webhook-max-attempts", 0,
		"consecutive webhook failures before the circuit breaker opens (0 = default 6)")
	webhookCooldown := flag.Duration("webhook-cooldown", 0, "breaker cooldown before the half-open probe (0 = default 30s)")
	flag.Parse()
	if *history < 0 {
		fatal(fmt.Errorf("-history must be >= 0, got %d", *history))
	}
	if *jitter < 0 || *jitter > 0.5 {
		fatal(fmt.Errorf("-jitter must be in [0, 0.5], got %g", *jitter))
	}

	np, err := apps.NewNowPlaying(2004)
	if err != nil {
		fatal(err)
	}
	fl, err := apps.NewFlightInfo(2004, []apps.Subscription{{Number: "OS105"}, {Number: "OS110"}})
	if err != nil {
		fatal(err)
	}
	pc, err := apps.NewPressClipping(2004)
	if err != nil {
		fatal(err)
	}
	pw, err := apps.NewPowerTrading(2004)
	if err != nil {
		fatal(err)
	}
	if *history > 0 {
		// Retention is latched on the first delivery; no tick has run yet.
		for _, p := range []server.Pipeline{np, fl, pc, pw} {
			p.Output().Retain = *history
		}
	}

	if *steps > 0 {
		for i := 0; i < *steps; i++ {
			np.Step()
			fl.Step(true)
			pc.Step(false, 0)
			pw.Step()
		}
		fmt.Printf("ran %d ticks\n", *steps)
		fmt.Printf("  nowplaying: %d portal updates\n", np.Portal.Len())
		fmt.Printf("  flights:    %d SMS deliveries\n", fl.SMS.Len())
		fmt.Printf("  press:      %d publications\n", pc.Out.Len())
		fmt.Printf("  power:      %d reports\n", pw.Out.Len())
		return
	}

	cfg := server.Config{
		Addr:             *addr,
		DefaultInterval:  *interval,
		EnablePprof:      *pprofFlag,
		SchedulerShards:  *shards,
		SchedulerWorkers: *workers,
		SchedulerJitter:  *jitter,
		WatchQueue:       *watchQueue,
		WatchHeartbeat:   *watchHeartbeat,
		WebhookTimeout:   *webhookTimeout,
		WebhookCooldown:  *webhookCooldown,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	cfg.WebhookMaxAttempts = *webhookAttempts
	var store *resultlog.Store
	if *dataDir != "" {
		mode, err := resultlog.ParseFsyncMode(*walFsync)
		if err != nil {
			fatal(err)
		}
		store, err = resultlog.Open(*dataDir, resultlog.Options{
			SegmentBytes:    *walSegmentBytes,
			MaxSegments:     *walMaxSegments,
			MaxAge:          *walMaxAge,
			Fsync:           mode,
			FsyncInterval:   *walFsyncInterval,
			CompactSegments: *walCompactSegments,
		})
		if err != nil {
			fatal(err)
		}
		cfg.ResultStore = store
	}
	if *cacheEntries > 0 {
		cfg.SharedCache = fetchcache.New(*cacheEntries, *cacheTTL)
	}
	if *batch {
		cfg.MatchCache = elog.NewMatchCacheSize(*matchCacheEntries)
	}
	if *allowDynamic {
		// Dynamic wrappers without an inline page extract from the
		// built-in simulated sites.
		sim := web.New()
		web.NewAuctionSite(2004, 40).Register(sim, "www.ebay.com")
		web.NewBookSite(2004, 12).Register(sim, "books.example.com")
		cfg.AllowDynamic = true
		cfg.DynamicFetcher = sim
	}
	srv := server.New(cfg)
	for _, p := range []server.Pipeline{np, fl, pc, pw} {
		if err := srv.Register(p, 0); err != nil {
			fatal(err)
		}
	}
	if store != nil {
		// Rehydrate collector rings, snapshots, dynamic wrappers, and
		// webhook cursors from the previous run's result logs.
		n, err := srv.Restore()
		if err != nil {
			fatal(err)
		}
		if n > 0 {
			fmt.Printf("lixtoserver: restored %d wrapper(s) from %s\n", n, *dataDir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("lixtoserver: serving on %s (tick every %s)\n", *addr, *interval)
	if err := srv.Run(ctx); err != nil {
		fatal(err)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lixtoserver:", err)
	os.Exit(1)
}
