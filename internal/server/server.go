// Package server hosts Transformation Server pipelines (Section 5) as
// a long-running concurrent service: registered pipelines tick at
// their own intervals on a sharded timer-heap scheduler (a fixed set
// of shard goroutines owning next-fire deadline heaps, dispatching
// into a bounded worker pool — O(shards+workers) goroutines whether
// ten pipelines are registered or ten thousand), and the latest
// outputs are published over HTTP.
//
// Legacy (unversioned) endpoints, kept bit-for-bit stable:
//
//	GET /{name}            latest document (XML, or JSON when the
//	                       Accept header prefers application/json)
//	GET /{name}/history?n=K  the K most recent documents, newest first
//	GET /healthz           liveness: 200 once the server is ticking
//	GET /statusz           per-pipeline tick counts, errors, latencies
//
// The versioned wrapper-lifecycle API lives under /v1 (see v1.go):
// wrappers can be compiled and registered at runtime, extracted from
// synchronously, observed, and retired, with a uniform JSON error
// envelope {"error":{"kind","message","pos"}}.
//
// Lifecycle is context-driven: Run blocks until the context is
// cancelled, then stops the scheduler shards, drains queued and
// in-flight ticks, and shuts the HTTP listener down gracefully.
// Dynamically registered pipelines participate: each is drained on
// DELETE and on shutdown, and PATCH /v1/wrappers/{name} reschedules a
// wrapper in the live deadline heap without a restart.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/resultlog"
	"repro/internal/transform"
	"repro/internal/xmlenc"
)

// Pipeline is one independently scheduled unit of work: a Section 6
// application (or any other information pipe) that can run one
// synchronous activation round and exposes its delivery collector.
type Pipeline interface {
	// PipeName is the stable route name (e.g. "nowplaying").
	PipeName() string
	// Tick runs one synchronous activation round. The returned error
	// is recorded in the pipeline's status; it does not stop the
	// schedule.
	Tick() error
	// Output is the collector whose documents the server publishes.
	Output() *transform.Collector
}

// Config tunes the server.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// DefaultInterval is the tick interval for pipelines registered
	// with interval 0 (default 2s).
	DefaultInterval time.Duration
	// ShutdownGrace bounds how long Run waits for open HTTP
	// connections on shutdown (default 5s).
	ShutdownGrace time.Duration
	// ReadTimeout, WriteTimeout and IdleTimeout are applied to the
	// http.Server (defaults 5s / 10s / 60s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// profiling of a running server.
	EnablePprof bool
	// AllowDynamic enables runtime wrapper registration through
	// POST /v1/wrappers and /v1/extract. Off by default: accepting
	// programs from the network is an operator decision.
	AllowDynamic bool
	// DynamicFetcher resolves document URLs for dynamically registered
	// wrappers that do not carry an inline page, and for url-based
	// one-shot extractions. Nil means such requests are rejected.
	DynamicFetcher elog.Fetcher
	// MaxProgramBytes bounds the request body of the /v1 compile and
	// extract endpoints (default 256 KiB).
	MaxProgramBytes int
	// MaxCompilesPerMinute rate-limits program compilation across the
	// /v1 endpoints (token bucket; default 60, negative = unlimited).
	MaxCompilesPerMinute int
	// SchedulerShards is the number of timer-shard goroutines owning
	// the pipeline deadline heaps (default 4).
	SchedulerShards int
	// SchedulerWorkers bounds how many pipeline ticks run concurrently
	// (default GOMAXPROCS, at least 4).
	SchedulerWorkers int
	// SchedulerQueue is the dispatch queue capacity between the timer
	// shards and the worker pool (default 16× workers, at least 256).
	// A full queue counts dropped ticks on /statusz.
	SchedulerQueue int
	// SchedulerJitter spreads every deadline by ±jitter·interval
	// (0..0.5), decorrelating pipelines registered at the same instant
	// so a fleet does not fire in lockstep. Default 0.
	SchedulerJitter float64
	// SharedCache, when set, is the shared fetch/document layer:
	// dynamically registered wrappers without an inline page resolve
	// their fetches through it (deduplicating fetch+parse across
	// wrappers monitoring the same URLs), and its counters appear on
	// /statusz and GET /v1/wrappers.
	SharedCache *fetchcache.Cache
	// WatchQueue is the per-subscriber event queue depth on the SSE
	// watch routes (default 8). A subscriber that falls further behind
	// than this loses its oldest pending events (counted in the
	// delivery stats as dropped_slow) and coalesces onto newer state.
	WatchQueue int
	// WatchHeartbeat is the interval between SSE comment heartbeats on
	// idle watch streams (default 15s), keeping intermediaries from
	// closing quiet connections.
	WatchHeartbeat time.Duration
	// MatchCache, when set, is the fleet-shared pattern-match layer
	// (elog.MatchCache): dynamically registered wrappers attach their
	// evaluators to it, so wrappers containing identical extraction
	// paths reuse each other's compiled match results on shared pages.
	// Its counters appear on /statusz and GET /v1/wrappers as
	// "match_cache". Pair with SharedCache to also share the fetches.
	MatchCache *elog.MatchCache
	// ResultStore, when set, is the durable delivery layer
	// (internal/resultlog): every pipeline's results are journaled to a
	// per-wrapper append-only log, Restore rehydrates rings, snapshots,
	// dynamic registrations and webhook cursors after a restart, and
	// the store's counters appear on /statusz as "persistence".
	ResultStore *resultlog.Store
	// WebhookTimeout bounds one outbound webhook POST (default 5s).
	WebhookTimeout time.Duration
	// WebhookMaxAttempts is how many consecutive failures one delivery
	// may burn before the endpoint's circuit breaker opens (default 6).
	WebhookMaxAttempts int
	// WebhookBackoffMin/Max bound the exponential retry backoff
	// (defaults 100ms / 30s).
	WebhookBackoffMin time.Duration
	WebhookBackoffMax time.Duration
	// WebhookCooldown is how long an open breaker waits before its
	// half-open probe (default 30s).
	WebhookCooldown time.Duration
	// MaxWebhooksPerWrapper caps endpoint registrations per wrapper
	// (default 16).
	MaxWebhooksPerWrapper int
	// Logf, when set, receives server lifecycle messages.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Addr == "" {
		out.Addr = ":8080"
	}
	if out.DefaultInterval <= 0 {
		out.DefaultInterval = 2 * time.Second
	}
	if out.ShutdownGrace <= 0 {
		out.ShutdownGrace = 5 * time.Second
	}
	if out.ReadTimeout <= 0 {
		out.ReadTimeout = 5 * time.Second
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 10 * time.Second
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 60 * time.Second
	}
	if out.MaxProgramBytes == 0 {
		out.MaxProgramBytes = 256 << 10
	}
	if out.MaxCompilesPerMinute == 0 {
		out.MaxCompilesPerMinute = 60
	}
	if out.SchedulerShards <= 0 {
		out.SchedulerShards = 4
	}
	if out.SchedulerWorkers <= 0 {
		out.SchedulerWorkers = max(4, runtime.GOMAXPROCS(0))
	}
	if out.SchedulerQueue <= 0 {
		out.SchedulerQueue = max(256, 16*out.SchedulerWorkers)
	}
	if out.SchedulerJitter < 0 {
		out.SchedulerJitter = 0
	}
	if out.WatchQueue <= 0 {
		out.WatchQueue = 8
	}
	if out.WatchHeartbeat <= 0 {
		out.WatchHeartbeat = 15 * time.Second
	}
	if out.WebhookTimeout <= 0 {
		out.WebhookTimeout = 5 * time.Second
	}
	if out.WebhookMaxAttempts <= 0 {
		out.WebhookMaxAttempts = 6
	}
	if out.WebhookBackoffMin <= 0 {
		out.WebhookBackoffMin = 100 * time.Millisecond
	}
	if out.WebhookBackoffMax <= 0 {
		out.WebhookBackoffMax = 30 * time.Second
	}
	if out.WebhookCooldown <= 0 {
		out.WebhookCooldown = 30 * time.Second
	}
	if out.MaxWebhooksPerWrapper <= 0 {
		out.MaxWebhooksPerWrapper = 16
	}
	if out.SchedulerJitter > 0.5 {
		// Above 0.5 the jittered deadline could approach zero delay,
		// degenerating into continuous ticking.
		out.SchedulerJitter = 0.5
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Server is the pipeline registry and HTTP front end.
type Server struct {
	cfg Config

	mu       sync.Mutex
	pipes    map[string]*pipeState
	order    []string
	addr     string
	started  bool
	draining bool
	sched    *sched // sharded timer-heap scheduler; set by Run

	// readPipes mirrors pipes for the read path: GET handlers resolve
	// names through this sync.Map (one lock-free lookup) and never
	// acquire s.mu. Mutated only under s.mu, alongside pipes.
	readPipes sync.Map // name → *pipeState

	limiter *rateLimiter // compile rate limit for the /v1 endpoints

	ready     chan struct{} // closed once the listener is bound
	drainCh   chan struct{} // closed when shutdown begins; ends SSE streams
	drainOnce sync.Once
}

// New returns an empty server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		pipes:   map[string]*pipeState{},
		limiter: newRateLimiter(cfg.MaxCompilesPerMinute),
		ready:   make(chan struct{}),
		drainCh: make(chan struct{}),
	}
}

// validName reports whether a pipeline name is routable: non-empty, no
// path separators, and not one of the reserved endpoint names.
func validName(name string) bool {
	switch name {
	case "", "healthz", "statusz", "debug", "v1":
		return false
	}
	return !strings.ContainsAny(name, "/?#%")
}

// initPipe wires a freshly built pipeState's delivery plane: the
// webhook registry and, when a result store is configured, the WAL
// journal. Must run before the pipeline's first tick.
func (s *Server) initPipe(ps *pipeState) error {
	ps.hooks.init(s, ps)
	ps.deliver.hooks = &ps.hooks
	return s.attachPersist(ps)
}

// Register adds a pipeline ticking at the given interval (0 uses the
// configured default). It fails on duplicate or reserved names. For
// registration while the server is running, see RegisterDynamic.
func (s *Server) Register(p Pipeline, interval time.Duration) error {
	name := p.PipeName()
	if !validName(name) {
		return fmt.Errorf("server: invalid pipeline name %q", name)
	}
	if interval <= 0 {
		interval = s.cfg.DefaultInterval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("server: cannot register %q after Run has started", name)
	}
	if _, dup := s.pipes[name]; dup {
		return fmt.Errorf("server: duplicate pipeline %q", name)
	}
	ps := &pipeState{p: p, name: name, interval: interval}
	if err := s.initPipe(ps); err != nil {
		return err
	}
	s.pipes[name] = ps
	s.order = append(s.order, name)
	s.readPipes.Store(name, ps)
	return nil
}

// errors distinguishing the registration failure modes for the HTTP
// layer.
var (
	errUnknownPipeline   = errors.New("server: unknown pipeline")
	errStaticPipeline    = errors.New("server: pipeline is not dynamic")
	errDuplicatePipeline = errors.New("duplicate pipeline")
	errShuttingDown      = errors.New("server shutting down")
	errFirstTick         = errors.New("first extraction failed")
)

// RegisterDynamic adds a pipeline at runtime: it reserves the name,
// runs one synchronous tick (so the wrapper serves results the moment
// registration returns — and a broken wrapper is rejected instead of
// failing silently on its schedule), then starts the scheduler
// goroutine unless the pipeline is on-demand. It is safe to call while
// Run is serving; before Run, the pipeline starts ticking when Run
// does.
func (s *Server) RegisterDynamic(p Pipeline, interval time.Duration, onDemand bool) error {
	name := p.PipeName()
	if !validName(name) {
		return fmt.Errorf("server: invalid pipeline name %q", name)
	}
	if interval <= 0 {
		interval = s.cfg.DefaultInterval
	}
	ps := &pipeState{p: p, name: name, interval: interval, dynamic: true, onDemand: onDemand,
		skipFirst: true, registering: true}
	if err := s.initPipe(ps); err != nil {
		return err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: %w", errShuttingDown)
	}
	if _, dup := s.pipes[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("server: %w %q", errDuplicatePipeline, name)
	}
	s.pipes[name] = ps
	s.order = append(s.order, name)
	s.readPipes.Store(name, ps)
	s.mu.Unlock()

	// First tick outside the lock: compilation already happened, but
	// the first extraction may fetch pages.
	ps.tickOnce()
	if msg := func() string {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.lastErr
	}(); msg != "" {
		s.removePipeIf(name, ps)
		closePipe(ps.p)
		if s.cfg.ResultStore != nil {
			// The rejected wrapper's validation tick may have journaled;
			// its log must not survive a registration that failed.
			s.cfg.ResultStore.Remove(name)
		}
		return fmt.Errorf("server: wrapper %q: %w: %s", name, errFirstTick, msg)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		// Shutdown raced registration: drop the pipe again.
		s.removePipeLocked(name)
		closePipe(ps.p)
		return fmt.Errorf("server: %w", errShuttingDown)
	}
	if s.pipes[name] != ps {
		// A concurrent DELETE raced the first tick; stay deregistered.
		return fmt.Errorf("server: pipeline %q deregistered during registration", name)
	}
	// startLocked reads the live interval/onDemand flags, so a PATCH
	// that raced the first tick (deferred while registering) takes
	// effect here.
	ps.registering = false
	if s.started {
		s.startLocked(ps)
	}
	s.cfg.Logf("server: registered dynamic pipeline %q (interval %s, on-demand %v)", name, interval, onDemand)
	return nil
}

// Deregister retires a dynamically registered pipeline: it is removed
// from the registry, unscheduled from its timer shard, and the call
// blocks until any queued or in-flight tick has drained.
func (s *Server) Deregister(name string) error {
	s.mu.Lock()
	ps := s.pipes[name]
	if ps == nil {
		s.mu.Unlock()
		return errUnknownPipeline
	}
	if !ps.dynamic {
		s.mu.Unlock()
		return errStaticPipeline
	}
	s.removePipeLocked(name)
	entry, sched := ps.entry, s.sched
	ps.entry = nil
	s.mu.Unlock()
	if entry != nil && sched != nil {
		sched.remove(entry)
	}
	closePipe(ps.p)
	if s.cfg.ResultStore != nil {
		// A retired wrapper's history and webhook cursors do not outlive
		// its registration (the hook set was closed by removePipeLocked,
		// so no dispatcher recreates the directory).
		s.cfg.ResultStore.Remove(name)
	}
	s.cfg.Logf("server: deregistered pipeline %q", name)
	return nil
}

// closePipe releases a retired pipeline's external attachments (e.g. a
// dynamic wrapper detaching from the fleet-shared match cache). Called
// only after the pipeline can no longer tick.
func closePipe(p Pipeline) {
	if c, ok := p.(interface{ Close() }); ok {
		c.Close()
	}
}

// SetInterval reschedules a dynamically registered wrapper in the live
// deadline heap: interval > 0 sets a new cadence (the next tick fires
// one new interval from now; an on-demand wrapper starts ticking),
// interval 0 converts the wrapper to on-demand, unscheduling it. The
// call blocks until a tick of a newly on-demand wrapper has drained.
func (s *Server) SetInterval(name string, interval time.Duration) error {
	s.mu.Lock()
	ps := s.pipes[name]
	if ps == nil {
		s.mu.Unlock()
		return errUnknownPipeline
	}
	if !ps.dynamic {
		s.mu.Unlock()
		return errStaticPipeline
	}
	onDemand := interval <= 0
	ps.mu.Lock()
	ps.interval = interval
	ps.onDemand = onDemand
	ps.mu.Unlock()
	entry, sched := ps.entry, s.sched
	switch {
	case onDemand && entry != nil:
		ps.entry = nil
		s.mu.Unlock()
		sched.remove(entry)
	case !onDemand && entry != nil:
		s.mu.Unlock()
		sched.reschedule(entry, interval)
	case !onDemand && entry == nil && s.started && !s.draining && !ps.registering:
		// Was on-demand: start ticking (skipFirst holds for dynamic
		// pipelines, so the first fire is one interval from now).
		s.startLocked(ps)
		s.mu.Unlock()
	default:
		// Before Run, while draining, or while the registration tick is
		// still in flight: the new interval is picked up when the
		// scheduler (or the registration path) schedules the pipeline.
		s.mu.Unlock()
	}
	s.cfg.Logf("server: rescheduled pipeline %q (interval %s)", name, interval)
	return nil
}

// removePipeIf removes the registration only if it still belongs to
// ps: a concurrent DELETE + re-register of the same name must not lose
// the newer pipeline.
func (s *Server) removePipeIf(name string, ps *pipeState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipes[name] == ps {
		s.removePipeLocked(name)
	}
}

func (s *Server) removePipeLocked(name string) {
	ps := s.pipes[name]
	delete(s.pipes, name)
	s.readPipes.Delete(name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if ps != nil {
		// Watch subscribers observe the hub close and end their streams
		// with an "event: close" frame; webhook dispatchers stop and
		// persist their final cursors.
		ps.deliver.hub.close()
		ps.hooks.close()
	}
}

// startLocked schedules ps on the sharded scheduler. Callers hold
// s.mu; the server must have started and must not be draining.
func (s *Server) startLocked(ps *pipeState) {
	ps.mu.Lock()
	onDemand, interval := ps.onDemand, ps.interval
	ps.mu.Unlock()
	if onDemand || ps.entry != nil || s.sched == nil {
		return
	}
	first := time.Now()
	if ps.skipFirst {
		// The registration path already ticked synchronously; jitter
		// the first scheduled fire so burst-registered fleets spread.
		first = first.Add(interval)
	}
	ps.entry = s.sched.schedule(ps, ps.name, interval, first, ps.skipFirst)
}

// Addr returns the bound listen address once Run has started, or "".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Ready is closed once the HTTP listener is bound and the pipelines
// are ticking.
func (s *Server) Ready() <-chan struct{} { return s.ready }

// Run binds the listener, starts the sharded scheduler (shard + worker
// goroutines; pipelines add no goroutines of their own), and serves
// HTTP until ctx is cancelled. On cancellation it stops the scheduler
// (including dynamically registered pipelines), waits for queued and
// in-flight ticks to finish, and drains the HTTP server; it returns
// nil on a clean shutdown.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	sc := newSched(s.cfg.SchedulerShards, s.cfg.SchedulerWorkers, s.cfg.SchedulerQueue, s.cfg.SchedulerJitter)
	defer sc.stopAndDrain()

	s.mu.Lock()
	s.started = true
	s.addr = ln.Addr().String()
	s.sched = sc
	n := len(s.order)
	for _, name := range s.order {
		s.startLocked(s.pipes[name])
	}
	s.mu.Unlock()

	hs := &http.Server{
		Handler:           s.Handler(),
		ReadTimeout:       s.cfg.ReadTimeout,
		ReadHeaderTimeout: s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
	close(s.ready)
	s.cfg.Logf("server: listening on %s (%d pipelines)", s.addr, n)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// drain refuses new registrations, stops the scheduler shards, and
	// waits for queued and in-flight ticks.
	drain := func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		// Wake every SSE watch stream so hs.Shutdown is not held open
		// by long-lived subscribers.
		s.drainOnce.Do(func() { close(s.drainCh) })
		sc.stopAndDrain()
		// Stop webhook dispatchers and persist their final cursors, then
		// flush the result log so the next process starts from exactly
		// this state.
		s.readPipes.Range(func(_, v any) bool {
			v.(*pipeState).hooks.close()
			return true
		})
		if s.cfg.ResultStore != nil {
			s.cfg.ResultStore.Sync()
		}
	}

	select {
	case <-ctx.Done():
		s.cfg.Logf("server: shutting down")
		drain()
		sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-serveErr // Serve has returned (ErrServerClosed)
		return err
	case err := <-serveErr:
		drain()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// Handler returns the HTTP handler serving all endpoints; it is usable
// standalone (e.g. under httptest) without Run.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /{name}", s.handleLatest)
	mux.HandleFunc("GET /{name}/history", s.handleHistory)
	// The /v1 routes are registered without a method so that bad
	// methods get a 405 + Allow with the JSON error envelope.
	mux.HandleFunc("/v1/wrappers", s.v1Wrappers)
	mux.HandleFunc("/v1/wrappers/{name}", s.v1Wrapper)
	mux.HandleFunc("/v1/wrappers/{name}/extract", s.v1WrapperExtract)
	mux.HandleFunc("/v1/wrappers/{name}/results", s.v1Results)
	mux.HandleFunc("/v1/wrappers/{name}/watch", s.v1Watch)
	mux.HandleFunc("/v1/wrappers/{name}/webhooks", s.v1Webhooks)
	mux.HandleFunc("/v1/wrappers/{name}/webhooks/{id}", s.v1Webhook)
	mux.HandleFunc("/v1/extract", s.v1Extract)
	mux.HandleFunc("/v1/wrappers/{name}/{rest...}", s.v1NotFound)
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) pipe(name string) *pipeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pipes[name]
}

// readPipe resolves a pipeline for the read path without touching
// s.mu: one lock-free sync.Map lookup. Every GET handler goes through
// here, so reads stay responsive while registration, rescheduling, or
// shutdown hold the server mutex.
func (s *Server) readPipe(name string) *pipeState {
	if v, ok := s.readPipes.Load(name); ok {
		return v.(*pipeState)
	}
	return nil
}

// wantsJSON reports whether the Accept header prefers JSON over XML.
func wantsJSON(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	ji := strings.Index(accept, "application/json")
	if ji < 0 {
		return false
	}
	for _, xml := range []string{"application/xml", "text/xml"} {
		if xi := strings.Index(accept, xml); xi >= 0 && xi < ji {
			return false
		}
	}
	return true
}

func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	ps := s.readPipe(r.PathValue("name"))
	if ps == nil {
		http.NotFound(w, r)
		return
	}
	sn := ps.deliver.snapshot(ps.p.Output())
	if sn == nil {
		http.Error(w, "no data yet", http.StatusServiceUnavailable)
		return
	}
	ps.serveSnapshot(w, r, sn, false)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	ps := s.readPipe(r.PathValue("name"))
	if ps == nil {
		http.NotFound(w, r)
		return
	}
	hasN := r.URL.Query().Get("n") != ""
	n := 10
	if hasN {
		q := r.URL.Query().Get("n")
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("query parameter n must be a positive integer, got %q", q), nil)
			return
		}
		n = v
	}
	out := ps.p.Output()
	asJSON := wantsJSON(r)
	if since, ok, valid := parseSince(w, r); !valid {
		return
	} else if ok {
		// Cursor mode: the retained results strictly after `since`,
		// oldest first, each stamped with its delivery version so the
		// client can advance its cursor. Uncached — the cursor space is
		// unbounded.
		if !hasN {
			n = 0
		}
		body, err := sinceBody(out, "history", ps.p.PipeName(), since, n, asJSON)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		setReadRouteHeaders(w, asJSON)
		w.Header().Set("Lixto-Version", strconv.FormatUint(out.Version(), 10))
		w.Write(body)
		return
	}
	body, err := ps.deliver.history(out, histKey{n: n, json: asJSON}, func() ([]byte, error) {
		docs := out.History(n)
		if asJSON {
			return xmlenc.MarshalJSONList(docs)
		}
		root := xmlenc.NewElement("history")
		root.SetAttr("name", ps.p.PipeName())
		root.SetAttr("count", strconv.Itoa(len(docs)))
		root.Append(docs...)
		return xmlenc.MarshalIndentBytes(root), nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	setReadRouteHeaders(w, asJSON)
	w.Write(body)
}

// parseSince reads the optional ?since=<version> cursor. The third
// return is false when the parameter was present but malformed (a 400
// envelope has been written).
func parseSince(w http.ResponseWriter, r *http.Request) (uint64, bool, bool) {
	q := r.URL.Query().Get("since")
	if q == "" {
		return 0, false, true
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("query parameter since must be a non-negative integer, got %q", q), nil)
		return 0, false, false
	}
	return v, true, true
}

// sinceBody renders the cursor-mode list shared by GET /{name}/history
// and GET /v1/.../results: each retained result with version > since,
// oldest first, wrapped in a <result version="N"> element (a JSON
// object of the same shape under Accept: application/json).
func sinceBody(out *transform.Collector, rootName, name string, since uint64, n int, asJSON bool) ([]byte, error) {
	docs, vers := out.HistorySince(since, n)
	items := make([]*xmlenc.Node, len(docs))
	for i, doc := range docs {
		item := xmlenc.NewElement("result")
		item.SetAttr("version", strconv.FormatUint(vers[i], 10))
		item.Append(doc)
		items[i] = item
	}
	if asJSON {
		return xmlenc.MarshalJSONList(items)
	}
	root := xmlenc.NewElement(rootName)
	root.SetAttr("name", name)
	root.SetAttr("count", strconv.Itoa(len(items)))
	root.SetAttr("since", strconv.FormatUint(since, 10))
	root.Append(items...)
	return xmlenc.MarshalIndentBytes(root), nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// PipelineStatus is one entry of the /statusz report.
type PipelineStatus struct {
	Name          string  `json:"name"`
	IntervalMS    int64   `json:"interval_ms"`
	Ticks         uint64  `json:"ticks"`
	Errors        uint64  `json:"errors"`
	LastError     string  `json:"last_error,omitempty"`
	LastTick      string  `json:"last_tick,omitempty"`
	LastLatencyMS float64 `json:"last_latency_ms"`
	Delivered     int     `json:"delivered"`
	Retained      int     `json:"retained"`
	// Extraction holds the pipeline's wrapper memoization counters
	// (poll-level fingerprint cache, compiled match cache) when the
	// pipeline exposes them.
	Extraction *transform.ExtractionStats `json:"extraction,omitempty"`
}

// ExtractionStatser is optionally implemented by pipelines whose
// wrappers memoize extraction (dynamic wrappers and the application
// pipelines do); the counters appear in /statusz.
type ExtractionStatser interface {
	ExtractionStats() transform.ExtractionStats
}

// Status returns a snapshot of every pipeline's counters, sorted by
// name.
func (s *Server) Status() []PipelineStatus {
	s.mu.Lock()
	names := append([]string{}, s.order...)
	s.mu.Unlock()
	sort.Strings(names)
	out := make([]PipelineStatus, 0, len(names))
	for _, name := range names {
		ps := s.pipe(name)
		if ps == nil {
			continue
		}
		out = append(out, ps.status(name))
	}
	return out
}

// SchedulerStatus returns the scheduler's pool shape and backpressure
// counters. Before Run it reports the configured shape with zero
// counters.
func (s *Server) SchedulerStatus() SchedulerStatus {
	s.mu.Lock()
	sc := s.sched
	s.mu.Unlock()
	if sc == nil {
		return SchedulerStatus{
			Shards:        s.cfg.SchedulerShards,
			Workers:       s.cfg.SchedulerWorkers,
			QueueCapacity: s.cfg.SchedulerQueue,
		}
	}
	return sc.status()
}

// statusReport is the full /statusz payload; shared-cache stats appear
// only when a shared fetch cache is configured.
func (s *Server) statusReport() map[string]any {
	report := map[string]any{
		"pipelines": s.Status(),
		"scheduler": s.SchedulerStatus(),
		"delivery":  s.DeliveryStatus(),
		"webhooks":  s.WebhookStatus(),
	}
	if s.cfg.SharedCache != nil {
		report["shared_cache"] = s.cfg.SharedCache.Stats()
	}
	if s.cfg.MatchCache != nil {
		report["match_cache"] = s.cfg.MatchCache.Report()
	}
	if s.cfg.ResultStore != nil {
		report["persistence"] = s.cfg.ResultStore.Stats()
	}
	return report
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	data, err := json.MarshalIndent(s.statusReport(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
