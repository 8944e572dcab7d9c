package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/transform"
	"repro/internal/web"
)

// Server configuration mirrored from cmd/lixtoserver's defaults.
const (
	cacheEntries = 1024        // -cache-entries
	cacheTTL     = time.Second // -cache-ttl
	hookSecret   = "e2ebench-webhook-secret"
)

// payloadHash identifies a delivered document independent of the
// trailing newline, which SSE framing strips.
func payloadHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(bytes.TrimRight(b, "\n"))
	return h.Sum64()
}

// receipt is one document seen by a subscriber: an SSE probe, the
// webhook sink, or the generator reading a response.
type receipt struct {
	wrapper string
	rev     int
	at      time.Time
	hash    uint64
	sigOK   bool
}

// upstream is the monitored web: an HTTP server on loopback serving
// the generated pages, plus the webhook sink that receives the
// server's signed deliveries.
type upstream struct {
	mu    sync.RWMutex
	pages map[string][]byte

	hookMu sync.Mutex
	hooks  []receipt

	srv  *http.Server
	base string
	done chan struct{}
}

func startUpstream() (*upstream, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("upstream listen: %w", err)
	}
	u := &upstream{pages: map[string][]byte{}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	u.srv = &http.Server{Handler: u}
	go func() {
		defer close(u.done)
		u.srv.Serve(ln)
	}()
	return u, nil
}

func (u *upstream) close() {
	u.srv.Close()
	<-u.done
}

func (u *upstream) set(path string, page []byte) {
	u.mu.Lock()
	u.pages[path] = page
	u.mu.Unlock()
}

func (u *upstream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	if name, ok := strings.CutPrefix(path, "hook/"); ok && r.Method == http.MethodPost {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rc := receipt{wrapper: name, rev: revOf(body), at: time.Now(), hash: payloadHash(body),
			sigOK: server.VerifySignature(hookSecret, body, r.Header.Get("Lixto-Signature"))}
		u.hookMu.Lock()
		u.hooks = append(u.hooks, rc)
		u.hookMu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	u.mu.RLock()
	page, ok := u.pages[path]
	u.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(page)
}

func (u *upstream) hookReceipts() []receipt {
	u.hookMu.Lock()
	defer u.hookMu.Unlock()
	return append([]receipt(nil), u.hooks...)
}

// probe is one SSE subscription on a wrapper's change feed.
type probe struct {
	wrapper string
	cancel  context.CancelFunc
	done    chan struct{}

	mu  sync.Mutex
	got []receipt
}

// openProbe subscribes to wrapper's watch feed and returns once the
// subscription has delivered its initial snapshot.
func openProbe(client *http.Client, base, wrapper string) (*probe, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/wrappers/"+wrapper+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch %s: %w", wrapper, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %s: %s", wrapper, resp.Status)
	}
	p := &probe{wrapper: wrapper, cancel: cancel, done: make(chan struct{})}
	first := make(chan struct{})
	go p.read(resp.Body, first)
	select {
	case <-first:
		return p, nil
	case <-p.done:
		cancel()
		return nil, fmt.Errorf("watch %s: stream ended before its first event", wrapper)
	case <-time.After(10 * time.Second):
		p.close()
		return nil, fmt.Errorf("watch %s: no initial event", wrapper)
	}
}

// read parses the event stream until it ends, recording every
// "event: result" with its arrival time.
func (p *probe) read(body io.ReadCloser, first chan struct{}) {
	defer close(p.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event string
	var data bytes.Buffer
	started := false
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if event == "result" {
				payload := data.Bytes()
				rc := receipt{wrapper: p.wrapper, rev: revOf(payload), at: time.Now(), hash: payloadHash(payload)}
				p.mu.Lock()
				p.got = append(p.got, rc)
				p.mu.Unlock()
				if !started {
					started = true
					close(first)
				}
			}
			event = ""
			data.Reset()
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.Write(line[len("data: "):])
		}
	}
}

func (p *probe) receipts() []receipt {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]receipt(nil), p.got...)
}

func (p *probe) close() {
	p.cancel()
	<-p.done
}

// env is one server instance under test with its upstream, clients and
// subscribers.
type env struct {
	up     *upstream
	srv    *server.Server
	cfg    server.Config
	store  *resultlog.Store
	base   string
	stop   context.CancelFunc
	runErr chan error

	client    *http.Client // the generator's request connections
	sseClient *http.Client // the generator's SSE probe connections
	probes    []*probe
	storeDir  string
}

// newEnv starts an upstream and a server configured as cmd/lixtoserver
// configures one by default: a shared fetch cache of 1024 pages with a
// 1 s TTL, the fleet match cache on, incremental output on, and — when
// persist is set — a result-log WAL with batched fsync in a temporary
// directory under work. Compile rate limiting is off: it is an
// admission policy, and cold_extract compiles on every request.
func newEnv(work string, persist bool, conns int) (*env, error) {
	up, err := startUpstream()
	if err != nil {
		return nil, err
	}
	e := &env{up: up}
	e.cfg = server.Config{
		Addr:                 "127.0.0.1:0",
		AllowDynamic:         true,
		DynamicFetcher:       &web.HTTPFetcher{Base: up.base},
		SharedCache:          fetchcache.New(cacheEntries, cacheTTL),
		MatchCache:           elog.NewMatchCacheSize(0),
		MaxCompilesPerMinute: -1,
	}
	if persist {
		if e.storeDir, err = os.MkdirTemp(work, "wal-"); err != nil {
			up.close()
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		e.store, err = resultlog.Open(e.storeDir, resultlog.Options{Fsync: resultlog.FsyncBatch})
		if err != nil {
			up.close()
			os.RemoveAll(e.storeDir)
			return nil, fmt.Errorf("open wal: %w", err)
		}
		e.cfg.ResultStore = e.store
	}
	e.srv = server.New(e.cfg)
	ctx, stop := context.WithCancel(context.Background())
	e.stop = stop
	e.runErr = make(chan error, 1)
	go func() { e.runErr <- e.srv.Run(ctx) }()
	select {
	case <-e.srv.Ready():
	case err := <-e.runErr:
		stop()
		e.runErr <- err
		e.close()
		return nil, fmt.Errorf("server: %w", err)
	}
	e.base = "http://" + e.srv.Addr()
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		DisableCompression: true}, Timeout: 30 * time.Second}
	e.sseClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		DisableCompression: true}}
	return e, nil
}

// close stops the subscribers, the server (draining its ticks and
// webhook dispatchers), the upstream, and removes the WAL directory.
func (e *env) close() {
	for _, p := range e.probes {
		p.close()
	}
	e.stop()
	<-e.runErr
	if e.store != nil {
		e.store.Close()
	}
	e.up.close()
	if e.client != nil {
		e.client.CloseIdleConnections()
		e.sseClient.CloseIdleConnections()
	}
	if e.storeDir != "" {
		os.RemoveAll(e.storeDir)
	}
}

// postJSON sends a JSON body and returns the response body, failing on
// any status other than want.
func (e *env) postJSON(path string, body any, want int) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func (e *env) addProbe(wrapper string) error {
	p, err := openProbe(e.sseClient, e.base, wrapper)
	if err != nil {
		return err
	}
	e.probes = append(e.probes, p)
	return nil
}

func (e *env) addWebhook(wrapper string) error {
	_, err := e.postJSON("/v1/wrappers/"+wrapper+"/webhooks",
		map[string]any{"url": e.up.base + "/hook/" + wrapper, "secret": hookSecret}, http.StatusCreated)
	return err
}

// serverStatus is the part of /statusz and GET /v1/wrappers the layer
// table folds in.
type serverStatus struct {
	Pipelines []struct {
		Name       string                     `json:"name"`
		Ticks      uint64                     `json:"ticks"`
		Errors     uint64                     `json:"errors"`
		Extraction *transform.ExtractionStats `json:"extraction"`
	} `json:"pipelines"`
	Wrappers []struct {
		Name       string                     `json:"name"`
		Extraction *transform.ExtractionStats `json:"extraction"`
	} `json:"wrappers"`
	Scheduler   server.SchedulerStatus `json:"scheduler"`
	Delivery    server.DeliveryStatus  `json:"delivery"`
	Webhooks    server.WebhookStatus   `json:"webhooks"`
	SharedCache *fetchcache.Stats      `json:"shared_cache"`
	MatchCache  *elog.BatchStats       `json:"match_cache"`
	Persistence *resultlog.Stats       `json:"persistence"`
}

// status reads /statusz (server-wide blocks and tick counters) and
// GET /v1/wrappers (per-wrapper extraction blocks).
func (e *env) status() (serverStatus, error) {
	var st serverStatus
	for _, path := range []string{"/statusz", "/v1/wrappers"} {
		resp, err := e.client.Get(e.base + path)
		if err != nil {
			return st, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return st, fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return st, nil
}

// ticks sums scheduled ticks and tick errors over all pipelines.
func (st serverStatus) ticks() (ticks, errs uint64) {
	for _, p := range st.Pipelines {
		ticks += p.Ticks
		errs += p.Errors
	}
	return
}

// extraction sums the per-wrapper extraction blocks.
func (st serverStatus) extraction() transform.ExtractionStats {
	var sum transform.ExtractionStats
	for _, w := range st.Wrappers {
		if x := w.Extraction; x != nil {
			sum.PollCacheHits += x.PollCacheHits
			sum.MatchCacheHits += x.MatchCacheHits
			sum.MatchCacheMisses += x.MatchCacheMisses
			sum.SubtreeHits += x.SubtreeHits
			sum.SubtreeMisses += x.SubtreeMisses
			sum.ReusedNodes += x.ReusedNodes
			sum.DirtyNodes += x.DirtyNodes
			sum.OutputReusedNodes += x.OutputReusedNodes
			sum.OutputBuiltNodes += x.OutputBuiltNodes
			sum.EncodeSplicedBytes += x.EncodeSplicedBytes
			sum.BatchSize = max(sum.BatchSize, x.BatchSize)
		}
	}
	return sum
}

// readBody reads and closes a response body.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
