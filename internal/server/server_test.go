package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/transform"
	"repro/internal/xmlenc"
)

// fakePipe is a controllable pipeline: every Tick sleeps for delay and
// then delivers one numbered document to its collector.
type fakePipe struct {
	name  string
	out   *transform.Collector
	delay time.Duration
	err   error
	ticks atomic.Uint64
}

func newFakePipe(name string, delay time.Duration) *fakePipe {
	return &fakePipe{name: name, out: &transform.Collector{CompName: name}, delay: delay}
}

func (f *fakePipe) PipeName() string { return f.name }

func (f *fakePipe) Tick() error {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	n := f.ticks.Add(1)
	doc := xmlenc.NewElement("doc")
	doc.SetAttr("n", strconv.FormatUint(n, 10))
	if _, err := f.out.Process("", doc); err != nil {
		return err
	}
	return f.err
}

func (f *fakePipe) Output() *transform.Collector { return f.out }

func get(t *testing.T, url string, header ...string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestRegisterValidation(t *testing.T) {
	s := New(Config{})
	if err := s.Register(newFakePipe("healthz", 0), 0); err == nil {
		t.Fatal("reserved name accepted")
	}
	if err := s.Register(newFakePipe("x", 0), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(newFakePipe("x", 0), 0); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestEndpoints(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("x", 0)
	p.out.Retain = 4
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, ct := get(t, ts.URL+"/x")
	if code != 200 || ct != "application/xml; charset=utf-8" || !strings.Contains(body, `<doc n="10"/>`) {
		t.Fatalf("latest XML: %d %s %q", code, ct, body)
	}
	code, body, ct = get(t, ts.URL+"/x", "Accept", "application/json")
	if code != 200 || ct != "application/json; charset=utf-8" {
		t.Fatalf("latest JSON: %d %s", code, ct)
	}
	var doc struct {
		Name  string            `json:"name"`
		Attrs map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("latest JSON unmarshal: %v (%q)", err, body)
	}
	if doc.Name != "doc" || doc.Attrs["n"] != "10" {
		t.Fatalf("latest JSON content: %+v", doc)
	}
	// XML explicitly preferred over JSON.
	code, _, ct = get(t, ts.URL+"/x", "Accept", "application/xml, application/json")
	if code != 200 || ct != "application/xml; charset=utf-8" {
		t.Fatalf("Accept order ignored: %d %s", code, ct)
	}

	// History is newest first and bounded by retention.
	code, body, _ = get(t, ts.URL+"/x/history?n=3")
	if code != 200 || strings.Count(body, "<doc") != 3 {
		t.Fatalf("history n=3: %d %q", code, body)
	}
	if strings.Index(body, `n="10"`) > strings.Index(body, `n="9"`) {
		t.Fatalf("history not newest-first: %q", body)
	}
	code, body, _ = get(t, ts.URL+"/x/history")
	if code != 200 || strings.Count(body, "<doc") != 4 {
		t.Fatalf("history default should return all 4 retained: %d %q", code, body)
	}
	if code, _, _ = get(t, ts.URL+"/x/history?n=0"); code != http.StatusBadRequest {
		t.Fatalf("history n=0 = %d, want 400", code)
	}

	if code, _, _ = get(t, ts.URL+"/nosuch"); code != http.StatusNotFound {
		t.Fatalf("unknown pipeline = %d, want 404", code)
	}
	if code, body, _ = get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	code, body, _ = get(t, ts.URL+"/statusz")
	if code != 200 {
		t.Fatalf("statusz: %d", code)
	}
	var status struct {
		Pipelines []PipelineStatus `json:"pipelines"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Pipelines) != 1 || status.Pipelines[0].Delivered != 10 || status.Pipelines[0].Retained != 4 {
		t.Fatalf("statusz content: %q", body)
	}
}

func TestNoDataYet(t *testing.T) {
	s := New(Config{})
	if err := s.Register(newFakePipe("x", 0), time.Hour); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _, _ := get(t, ts.URL+"/x"); code != http.StatusServiceUnavailable {
		t.Fatalf("empty pipeline = %d, want 503", code)
	}
}

func TestTickErrorRecorded(t *testing.T) {
	s := New(Config{})
	p := newFakePipe("x", 0)
	p.err = fmt.Errorf("source down")
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	ps := s.pipe("x")
	ps.tickOnce()
	st := ps.status("x")
	if st.Ticks != 1 || st.Errors != 1 || st.LastError != "source down" {
		t.Fatalf("status after failing tick: %+v", st)
	}
}

// TestConcurrentPipelinesUnderLoad runs all four Section 6 application
// pipelines on their own goroutines while hammering the read endpoints
// from parallel clients; run under -race this exercises every lock in
// the server, the collectors and the engines.
func TestConcurrentPipelinesUnderLoad(t *testing.T) {
	np, err := apps.NewNowPlaying(7)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := apps.NewFlightInfo(7, []apps.Subscription{{Number: "OS105"}})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := apps.NewPressClipping(7)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := apps.NewPowerTrading(7)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Addr: "127.0.0.1:0", DefaultInterval: 5 * time.Millisecond})
	for _, p := range []Pipeline{np, fl, pc, pw} {
		if err := s.Register(p, 0); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	select {
	case <-s.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + s.Addr()

	// While the pipelines tick, hammer every endpoint in parallel. The
	// test owns its client so it can close the idle connections before
	// shutdown: the transport may dial a connection it never uses, and
	// Shutdown waits up to 5s for such a connection.
	client := &http.Client{Transport: &http.Transport{}}
	var wg sync.WaitGroup
	var health200 atomic.Int64
	stop := make(chan struct{})
	time.AfterFunc(400*time.Millisecond, func() { close(stop) })
	paths := []string{"/nowplaying", "/flights", "/press", "/power",
		"/nowplaying/history?n=3", "/statusz", "/healthz"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(i+j)%len(paths)]
				req, _ := http.NewRequest("GET", base+path, nil)
				if j%2 == 0 {
					req.Header.Set("Accept", "application/json")
				}
				resp, err := client.Do(req)
				if err != nil {
					continue // transient during shutdown races
				}
				io.Copy(io.Discard, resp.Body)
				if path == "/healthz" && resp.StatusCode == 200 {
					health200.Add(1)
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()

	if health200.Load() == 0 {
		t.Error("healthz never returned 200 while ticking")
	}
	// Every pipeline must have data by now.
	for _, path := range []string{"/nowplaying", "/flights", "/press", "/power"} {
		if code, body, _ := get(t, base+path); code != 200 {
			t.Errorf("%s = %d (%q)", path, code, body)
		}
	}
	for _, st := range s.Status() {
		if st.Ticks == 0 {
			t.Errorf("pipeline %s never ticked", st.Name)
		}
	}

	client.CloseIdleConnections()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestGracefulShutdownDrainsInFlightTick cancels the server while a
// slow tick is guaranteed to be in flight and asserts that the tick
// completed: every started tick delivered its document and was counted
// in the status, and nothing ticks after Run returns.
func TestGracefulShutdownDrainsInFlightTick(t *testing.T) {
	p := newFakePipe("slow", 30*time.Millisecond)
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Register(p, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	select {
	case <-s.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	// With a 20ms interval and 30ms ticks, a tick is in flight more
	// often than not; cancel mid-stream.
	time.Sleep(75 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}

	started := p.ticks.Load()
	delivered := p.out.Len()
	counted := s.Status()[0].Ticks
	if started == 0 {
		t.Fatal("no tick ever ran")
	}
	if uint64(delivered) != started || counted != started {
		t.Fatalf("dropped tick: started=%d delivered=%d counted=%d",
			started, delivered, counted)
	}
	// Nothing may tick after shutdown.
	time.Sleep(60 * time.Millisecond)
	if p.ticks.Load() != started {
		t.Fatalf("pipeline ticked after shutdown (%d -> %d)", started, p.ticks.Load())
	}
}

// TestRenderCacheStableAcrossRequests pins the per-pipeline render
// cache: while the latest document is unchanged, repeated GETs serve
// identical bytes (from cache), and a new delivery refreshes them.
func TestRenderCacheStableAcrossRequests(t *testing.T) {
	p := newFakePipe("cachepipe", 0)
	s := New(Config{})
	if err := s.Register(p, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body1, ct1 := get(t, ts.URL+"/cachepipe")
	_, body2, _ := get(t, ts.URL+"/cachepipe")
	if body1 != body2 || ct1 != "application/xml; charset=utf-8" {
		t.Fatalf("cached responses differ: %q vs %q (%s)", body1, body2, ct1)
	}
	_, json1, ctj := get(t, ts.URL+"/cachepipe", "Accept", "application/json")
	if ctj != "application/json; charset=utf-8" || json1 == body1 {
		t.Fatalf("JSON negotiation broken under cache: %s %q", ctj, json1)
	}
	if err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	_, body3, _ := get(t, ts.URL+"/cachepipe")
	if body3 == body1 {
		t.Fatal("render cache served a stale document after a new delivery")
	}
}

// TestPprofEndpoint verifies /debug/pprof is mounted only when enabled
// and that "debug" is a reserved pipeline name.
func TestPprofEndpoint(t *testing.T) {
	off := New(Config{})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if code, _, _ := get(t, tsOff.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof disabled: GET /debug/pprof/ = %d, want 404", code)
	}

	on := New(Config{EnablePprof: true})
	if err := on.Register(newFakePipe("debug", 0), time.Hour); err == nil {
		t.Fatal("pipeline named debug must be rejected")
	}
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	code, body, _ := get(t, tsOn.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof enabled: GET /debug/pprof/ = %d (%q...)", code, body[:min(len(body), 80)])
	}
}

// statsPipe is a fakePipe that also reports extraction memoization
// counters, as the Section 6 application pipelines do.
type statsPipe struct {
	*fakePipe
	stats transform.ExtractionStats
}

func (s *statsPipe) ExtractionStats() transform.ExtractionStats { return s.stats }

// TestStatuszExtractionStats checks that pipelines exposing extraction
// caches get their hit counters surfaced per pipeline on /statusz.
func TestStatuszExtractionStats(t *testing.T) {
	s := New(Config{})
	plain := newFakePipe("plain", 0)
	caching := &statsPipe{
		fakePipe: newFakePipe("caching", 0),
		stats: transform.ExtractionStats{PollCacheHits: 3, MatchCacheHits: 41, MatchCacheMisses: 7,
			SubtreeHits: 19, SubtreeMisses: 4, DirtyNodes: 120, ReusedNodes: 4800,
			ParseNS: 1200, EvalNS: 3400, BatchSize: 2},
	}
	if err := s.Register(plain, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(caching, time.Hour); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	var report struct {
		Pipelines []PipelineStatus `json:"pipelines"`
	}
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("statusz JSON: %v\n%s", err, body)
	}
	byName := map[string]PipelineStatus{}
	for _, p := range report.Pipelines {
		byName[p.Name] = p
	}
	if st := byName["plain"].Extraction; st != nil {
		t.Errorf("plain pipeline reports extraction stats: %+v", st)
	}
	st := byName["caching"].Extraction
	if st == nil {
		t.Fatalf("caching pipeline lacks extraction stats:\n%s", body)
	}
	if *st != caching.stats {
		t.Errorf("extraction stats = %+v, want %+v", *st, caching.stats)
	}
	for _, field := range []string{"match_cache_hits", "parse_ns", "eval_ns", "batch_size",
		"subtree_hits", "subtree_misses", "dirty_nodes", "reused_nodes"} {
		if !strings.Contains(body, field) {
			t.Errorf("statusz body lacks %s:\n%s", field, body)
		}
	}
}

// TestAppPipelinesReportExtractionStats checks the Section 6 apps
// implement ExtractionStatser end to end: after a few ticks over
// unchanged pages the flight pipeline reports poll cache hits.
func TestAppPipelinesReportExtractionStats(t *testing.T) {
	app, err := apps.NewFlightInfo(7, []apps.Subscription{{Number: "OS001"}})
	if err != nil {
		t.Fatal(err)
	}
	var es ExtractionStatser = app // compile-time check
	for i := 0; i < 3; i++ {
		app.Engine.Tick() // no Advance: pages unchanged after the first tick
	}
	st := es.ExtractionStats()
	if st.PollCacheHits == 0 {
		t.Errorf("flight pipeline reports no poll cache hits after repeated ticks: %+v", st)
	}
	if st.MatchCacheMisses == 0 {
		t.Errorf("flight pipeline reports no compiled matches at all: %+v", st)
	}
}
