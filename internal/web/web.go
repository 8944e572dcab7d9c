// Package web is the simulated World Wide Web this reproduction wraps:
// deterministic generators for the site families that the paper's
// applications (Section 6) extract from — auction listings (eBay,
// Figure 5), book bestsellers (Figure 4), radio playlists / music charts
// / lyrics ("Now Playing", Section 6.1), flight timetables (6.2), press
// sites and stock quotes (6.3), viticulture pages (6.4), automotive
// portals (6.5), competitor price lists (6.6), and power-exchange spot
// prices (6.7).
//
// Pages are plain HTML strings produced from seeded generators, so every
// experiment is reproducible; sites can be stepped (AdvanceTime) to make
// content change, which the Transformation Server's monitoring
// components react to. The Web type implements elog.Fetcher and can also
// be served over real HTTP via net/http/httptest.
package web

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dom"
	"repro/internal/htmlparse"
)

// Web is a registry of simulated sites addressed by URL. It is safe
// for concurrent fetching: the evaluator's crawl frontier retrieves
// many pages at once, so the registry is locked, page rendering is
// serialized (site generators close over mutable site state), and the
// optional simulated latency and HTML parsing run in parallel.
type Web struct {
	mu    sync.RWMutex
	pages map[string]func() string
	// Fetches counts page retrievals, for the crawling experiments.
	fetches map[string]int
	// latency is the simulated per-fetch network delay.
	latency time.Duration
	// renderMu serializes generator calls.
	renderMu sync.Mutex
}

// New returns an empty web.
func New() *Web {
	return &Web{pages: map[string]func() string{}, fetches: map[string]int{}}
}

// SetPage registers a dynamic page at url.
func (w *Web) SetPage(url string, gen func() string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pages[url] = gen
}

// SetStatic registers a fixed page at url.
func (w *Web) SetStatic(url, html string) {
	w.SetPage(url, func() string { return html })
}

// Fetch implements elog.Fetcher.
func (w *Web) Fetch(url string) (*dom.Tree, error) {
	html, err := w.Source(url)
	if err != nil {
		return nil, err
	}
	return htmlparse.Parse(html), nil
}

// SetLatency installs a simulated per-fetch delay, modeling network and
// server time. With latency set, the parallelism of a crawl becomes
// observable: n pages fetched serially cost n×latency of wall clock,
// a concurrent frontier roughly one latency per batch.
func (w *Web) SetLatency(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.latency = d
}

// Source returns the raw HTML of a page.
func (w *Web) Source(url string) (string, error) {
	w.mu.Lock()
	gen, ok := w.pages[url]
	var delay time.Duration
	if ok {
		w.fetches[url]++
		delay = w.latency
	}
	w.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("web: 404 %s", url)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	// Generators may close over mutable site state (AdvanceTime), so
	// concurrent fetches serialize the render; only the simulated
	// latency above and the caller's parse overlap.
	w.renderMu.Lock()
	defer w.renderMu.Unlock()
	return gen(), nil
}

// FetchCount reports how often url was retrieved.
func (w *Web) FetchCount(url string) int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.fetches[url]
}

// URLs lists the registered pages, sorted.
func (w *Web) URLs() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.pages))
	for u := range w.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Serve exposes the web over real HTTP. URLs registered as
// "host/path" are served as "/host/path" on the returned test server.
// The caller must Close the server.
func (w *Web) Serve() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		url := strings.TrimPrefix(r.URL.Path, "/")
		html, err := w.Source(url)
		if err != nil {
			http.NotFound(rw, r)
			return
		}
		rw.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(rw, html)
	}))
}

// rng is a small deterministic PRNG (xorshift) so that generators do not
// depend on math/rand's global state and stay reproducible.
type rng struct{ s uint64 }

func newRng(seed int64) *rng {
	if seed == 0 {
		seed = 1
	}
	return &rng{s: uint64(seed)}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) pick(xs []string) string { return xs[r.intn(len(xs))] }

func (r *rng) price(lo, hi int) string {
	cents := r.intn(100)
	return fmt.Sprintf("%d.%02d", lo+r.intn(hi-lo+1), cents)
}

// maxPageBytes bounds the response body HTTPFetcher reads per page.
const maxPageBytes = 16 << 20

// ErrTruncated is returned (wrapped with the URL) when a response body
// exceeds the page size limit: a cut-off page would otherwise parse
// and publish as a valid, silently incomplete result.
var ErrTruncated = errors.New("web: response body exceeds page size limit")

// HTTPFetcher is an elog.Fetcher that retrieves pages over real HTTP —
// used to wrap a Web served by Serve (or any other HTTP source). URLs
// of the form "host/path" are resolved against Base.
type HTTPFetcher struct {
	// Base is the server URL prefix, e.g. a httptest.Server.URL.
	Base string
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

// Fetch implements the fetcher contract over HTTP.
func (h *HTTPFetcher) Fetch(url string) (*dom.Tree, error) {
	client := h.Client
	if client == nil {
		client = http.DefaultClient
	}
	full := url
	if !strings.Contains(url, "://") {
		full = strings.TrimSuffix(h.Base, "/") + "/" + strings.TrimPrefix(url, "/")
	}
	resp, err := client.Get(full)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("web: GET %s: %s", full, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPageBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxPageBytes {
		return nil, fmt.Errorf("web: GET %s: %w (%d bytes)", full, ErrTruncated, maxPageBytes)
	}
	return htmlparse.Parse(string(body)), nil
}
