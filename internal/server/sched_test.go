package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fetchcache"
	"repro/internal/web"
	"repro/pkg/lixto"
)

// runServer starts s.Run on a loopback port and returns a stop
// function that cancels it and waits for a clean return.
func runServer(t *testing.T, s *Server) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	select {
	case <-s.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	return func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}
}

// TestSchedulerGoroutineCountIsFlat pins the tentpole invariant: the
// scheduler runs O(shards + workers) goroutines regardless of how many
// pipelines are registered. A 1000-pipeline server may use no more
// goroutines than a 10-pipeline one (plus a small slack for runtime
// noise) — under the old one-ticker-goroutine-per-pipeline design the
// difference was ~990.
func TestSchedulerGoroutineCountIsFlat(t *testing.T) {
	measure := func(n int) int {
		s := New(Config{Addr: "127.0.0.1:0"})
		for i := 0; i < n; i++ {
			if err := s.Register(newFakePipe(fmt.Sprintf("p%d", i), 0), time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		stop := runServer(t, s)
		defer stop()
		time.Sleep(50 * time.Millisecond) // let first ticks drain
		return runtime.NumGoroutine()
	}
	small := measure(10)
	big := measure(1000)
	if slack := 15; big > small+slack {
		t.Fatalf("goroutines grew with pipeline count: %d @10 pipes vs %d @1000 pipes", small, big)
	}
}

// overlapPipe fails the test if two of its ticks ever run
// concurrently.
type overlapPipe struct {
	*fakePipe
	inFlight atomic.Int32
	overlaps atomic.Int32
}

func (p *overlapPipe) Tick() error {
	if p.inFlight.Add(1) > 1 {
		p.overlaps.Add(1)
	}
	defer p.inFlight.Add(-1)
	return p.fakePipe.Tick()
}

// TestSchedulerOverlapProtection runs a pipeline whose tick takes much
// longer than its interval: deadlines that fire mid-tick must be
// counted late and skipped, never dispatched concurrently.
func TestSchedulerOverlapProtection(t *testing.T) {
	p := &overlapPipe{fakePipe: newFakePipe("slow", 30*time.Millisecond)}
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Register(p, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stop := runServer(t, s)
	time.Sleep(200 * time.Millisecond)
	stop()
	if n := p.overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping ticks", n)
	}
	if p.ticks.Load() == 0 {
		t.Fatal("pipeline never ticked")
	}
	st := s.SchedulerStatus()
	if st.LateTicks == 0 {
		t.Errorf("expected late ticks with a 30ms tick on a 5ms interval: %+v", st)
	}
	if st.Dispatched == 0 {
		t.Errorf("no dispatches counted: %+v", st)
	}
}

// TestSetIntervalReschedulesLiveHeap covers the PATCH semantics at the
// Server level: speeding up a slow wrapper takes effect in the live
// deadline heap, and interval 0 converts it to on-demand.
func TestSetIntervalReschedulesLiveHeap(t *testing.T) {
	p := newFakePipe("dyn", 0)
	s := New(Config{Addr: "127.0.0.1:0"})
	stop := runServer(t, s)
	defer stop()
	if err := s.RegisterDynamic(p, time.Hour, false); err != nil {
		t.Fatal(err)
	}
	// Only the synchronous registration tick for the next hour.
	if got := p.ticks.Load(); got != 1 {
		t.Fatalf("ticks after registration = %d, want 1", got)
	}
	if err := s.SetInterval("dyn", 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.ticks.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.ticks.Load(); got < 5 {
		t.Fatalf("rescheduled wrapper barely ticked: %d", got)
	}
	// Back to on-demand: ticking stops.
	if err := s.SetInterval("dyn", 0); err != nil {
		t.Fatal(err)
	}
	base := p.ticks.Load()
	time.Sleep(50 * time.Millisecond)
	if got := p.ticks.Load(); got != base {
		t.Fatalf("on-demand wrapper kept ticking (%d -> %d)", base, got)
	}
	if err := s.SetInterval("nosuch", time.Second); err != errUnknownPipeline {
		t.Errorf("SetInterval(nosuch) = %v", err)
	}
	if err := s.Register(newFakePipe("static", 0), time.Hour); err == nil {
		t.Fatal("static registration after Run must fail")
	}
}

// gatedPipe blocks its first tick on a channel, so a test can hold the
// synchronous registration tick in flight while racing other calls.
type gatedPipe struct {
	*overlapPipe
	gate  chan struct{}
	gated atomic.Bool
}

func (p *gatedPipe) Tick() error {
	if p.inFlight.Add(1) > 1 {
		p.overlaps.Add(1)
	}
	defer p.inFlight.Add(-1)
	if p.gated.CompareAndSwap(false, true) {
		<-p.gate
	}
	return p.fakePipe.Tick()
}

// TestSetIntervalDuringRegistration races PATCH against the
// synchronous registration tick: the reschedule must not start the
// schedule while the first tick is still in flight (no overlapping
// ticks), but must take effect once registration completes.
func TestSetIntervalDuringRegistration(t *testing.T) {
	p := &gatedPipe{
		overlapPipe: &overlapPipe{fakePipe: newFakePipe("racer", 0)},
		gate:        make(chan struct{}),
	}
	s := New(Config{Addr: "127.0.0.1:0"})
	stop := runServer(t, s)
	defer stop()

	regDone := make(chan error, 1)
	go func() { regDone <- s.RegisterDynamic(p, time.Hour, false) }()
	// Wait for the registration tick to block at the gate, then PATCH.
	deadline := time.Now().Add(5 * time.Second)
	for !p.gated.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !p.gated.Load() {
		t.Fatal("registration tick never started")
	}
	if err := s.SetInterval("racer", 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The reschedule is deferred; nothing may tick concurrently with
	// the registration tick still held at the gate.
	time.Sleep(30 * time.Millisecond)
	if got := p.ticks.Load(); got != 0 {
		t.Fatalf("%d ticks ran while the registration tick was in flight", got)
	}
	close(p.gate)
	if err := <-regDone; err != nil {
		t.Fatal(err)
	}
	// The deferred reschedule kicks in after registration.
	deadline = time.Now().Add(5 * time.Second)
	for p.ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.ticks.Load(); got < 3 {
		t.Fatalf("deferred reschedule never took effect: %d ticks", got)
	}
	if n := p.overlaps.Load(); n != 0 {
		t.Fatalf("%d ticks overlapped the registration tick", n)
	}
}

// TestStatuszSchedulerAndCacheShape pins the JSON shape of the new
// /statusz blocks: the scheduler counters are always present, the
// shared-cache block appears when a cache is configured.
func TestStatuszSchedulerAndCacheShape(t *testing.T) {
	cache := fetchcache.New(64, time.Second)
	s := New(Config{SharedCache: cache, SchedulerShards: 3, SchedulerWorkers: 5, SchedulerQueue: 17})
	if err := s.Register(newFakePipe("x", 0), time.Hour); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/statusz")
	if code != 200 {
		t.Fatalf("statusz: %d", code)
	}
	var report struct {
		Pipelines []PipelineStatus  `json:"pipelines"`
		Scheduler *SchedulerStatus  `json:"scheduler"`
		Cache     *fetchcache.Stats `json:"shared_cache"`
		Delivery  *DeliveryStatus   `json:"delivery"`
	}
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	if report.Scheduler == nil || report.Cache == nil || report.Delivery == nil || len(report.Pipelines) != 1 {
		t.Fatalf("statusz missing blocks:\n%s", body)
	}
	if report.Scheduler.Shards != 3 || report.Scheduler.Workers != 5 || report.Scheduler.QueueCapacity != 17 {
		t.Errorf("scheduler shape not surfaced: %+v", report.Scheduler)
	}
	if report.Cache.MaxEntries != 64 || report.Cache.MaxAgeMS != 1000 {
		t.Errorf("cache shape not surfaced: %+v", report.Cache)
	}
	// Pin the exact field names clients depend on.
	for _, key := range []string{
		`"scheduler"`, `"shards"`, `"workers"`, `"scheduled"`, `"queue_depth"`,
		`"queue_capacity"`, `"busy_workers"`, `"worker_utilization"`,
		`"dispatched"`, `"late_ticks"`, `"dropped_ticks"`,
		`"shared_cache"`, `"entries"`, `"max_entries"`, `"max_age_ms"`,
		`"hits"`, `"misses"`, `"shared"`, `"expired"`, `"evictions"`,
		`"delivery"`, `"snapshots"`, `"suppressed_noop_ticks"`, `"broadcasts"`,
		`"subscribers"`, `"subscribers_total"`, `"dropped_slow"`,
		`"etag_hits"`, `"etag_misses"`,
	} {
		if !strings.Contains(body, key) {
			t.Errorf("statusz lacks %s:\n%s", key, body)
		}
	}

	// Without a cache the block is absent.
	plain := New(Config{})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	_, body, _ = get(t, tsPlain.URL+"/statusz")
	if strings.Contains(body, "shared_cache") {
		t.Errorf("shared_cache block present without a cache:\n%s", body)
	}
	if !strings.Contains(body, `"scheduler"`) {
		t.Errorf("scheduler block missing without a cache:\n%s", body)
	}
}

// guardPipe drives a dynamic /v1 wrapper pipeline while detecting
// concurrent ticks of itself.
type guardPipe struct {
	*dynPipeline
	inFlight atomic.Int32
	overlaps atomic.Int32
	ticks    atomic.Uint64
}

func (p *guardPipe) Tick() error {
	if p.inFlight.Add(1) > 1 {
		p.overlaps.Add(1)
	}
	defer p.inFlight.Add(-1)
	p.ticks.Add(1)
	return p.dynPipeline.Tick()
}

// TestSchedulerStress is the 1000-wrapper soak: real Elog wrappers
// over 10 shared simulated pages behind one shared fetch cache,
// registered and deleted concurrently while the scheduler ticks them,
// under -race. Asserts: the shared pages are fetched once each (the
// cache deduplicates 1000 wrappers' fetches), no wrapper ever ticks
// concurrently with itself, every tick of a surviving wrapper
// delivered its document (no lost results), and shutdown drains
// cleanly.
func TestSchedulerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-wrapper stress test")
	}
	const nPages, nWrappers = 10, 1000

	sim := web.New()
	for i := 0; i < nPages; i++ {
		sim.SetStatic(fmt.Sprintf("stress.example.com/p%d", i),
			fmt.Sprintf("<html><body><table><tr class=it><td>item %d</td></tr></table></body></html>", i))
	}
	cache := fetchcache.New(nPages*2, time.Hour)
	fetcher := cache.Wrap(sim)

	// One compiled wrapper per page, shared by 100 registrations each
	// (the compiled program and its match caches are concurrency-safe).
	wrappers := make([]*lixto.Wrapper, nPages)
	for i := range wrappers {
		wrappers[i] = lixto.MustCompile(fmt.Sprintf(
			`it(S, X) <- document("stress.example.com/p%d", S), subelem(S, (?.tr, [(class, it, exact)]), X)`, i))
	}

	s := New(Config{Addr: "127.0.0.1:0", SchedulerJitter: 0.2})
	stop := runServer(t, s)

	guards := make([]*guardPipe, nWrappers)
	var wg sync.WaitGroup
	var registerFailures atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < nWrappers; i += 8 {
				name := fmt.Sprintf("w%d", i)
				p := &guardPipe{dynPipeline: newDynPipeline(name, wrappers[i%nPages], fetcher, nil)}
				if err := s.RegisterDynamic(p, time.Duration(2+i%8)*time.Millisecond, false); err != nil {
					registerFailures.Add(1)
					continue
				}
				guards[i] = p
			}
		}(g)
	}
	wg.Wait()

	// Let the fleet tick, deleting a slice of it concurrently.
	var delWg sync.WaitGroup
	delWg.Add(1)
	go func() {
		defer delWg.Done()
		for i := 0; i < nWrappers; i += 5 {
			if err := s.Deregister(fmt.Sprintf("w%d", i)); err == nil {
				guards[i] = nil // retired; its collector stops growing
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	delWg.Wait()
	stop()

	if n := registerFailures.Load(); n > 0 {
		t.Fatalf("%d registrations failed", n)
	}
	// Shared fetch layer: 1000 wrappers, but each page fetched exactly
	// once (the 1h freshness window covers the whole test).
	for i := 0; i < nPages; i++ {
		url := fmt.Sprintf("stress.example.com/p%d", i)
		if got := sim.FetchCount(url); got != 1 {
			t.Errorf("page %s fetched %d times, want 1", url, got)
		}
	}
	if st := cache.Stats(); st.Misses != nPages {
		t.Errorf("cache misses = %d, want %d", st.Misses, nPages)
	}
	snapshotTicks := func() uint64 {
		total := uint64(0)
		for _, g := range guards {
			if g != nil {
				total += g.ticks.Load()
			}
		}
		return total
	}
	totalTicks := uint64(0)
	for i, g := range guards {
		if g == nil {
			continue
		}
		if n := g.overlaps.Load(); n != 0 {
			t.Fatalf("wrapper %d: %d overlapping ticks", i, n)
		}
		ticks := g.ticks.Load()
		totalTicks += ticks
		// Every tick (including the synchronous registration tick)
		// delivered exactly one document into the collector: no lost
		// results.
		if delivered := uint64(g.out.Len()); delivered != ticks {
			t.Fatalf("wrapper %d: %d ticks but %d deliveries", i, ticks, delivered)
		}
	}
	if totalTicks < nWrappers {
		t.Errorf("fleet barely ticked: %d total ticks", totalTicks)
	}
	// Clean drain: nothing ticks after Run returned.
	before := snapshotTicks()
	time.Sleep(50 * time.Millisecond)
	if after := snapshotTicks(); after != before {
		t.Fatalf("ticks after shutdown: %d -> %d", before, after)
	}
}
