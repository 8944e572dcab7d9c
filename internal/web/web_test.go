package web

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dom"
)

func TestAuctionSiteDeterministic(t *testing.T) {
	a := NewAuctionSite(42, 30)
	b := NewAuctionSite(42, 30)
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	c := NewAuctionSite(43, 30)
	same := true
	for i := range a.Items {
		if a.Items[i] != c.Items[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical catalogs")
	}
}

func TestAuctionPagination(t *testing.T) {
	w := New()
	s := NewAuctionSite(1, 60)
	s.PageSize = 25
	s.Register(w, "www.ebay.com")
	if _, err := w.Fetch("www.ebay.com/"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Fetch("www.ebay.com/page1.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Fetch("www.ebay.com/page2.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Fetch("www.ebay.com/page3.html"); err == nil {
		t.Fatal("page3 should not exist for 60 items / 25 per page")
	}
	if got := w.FetchCount("www.ebay.com/"); got != 1 {
		t.Errorf("fetch count = %d", got)
	}
}

func TestAuctionPageStructure(t *testing.T) {
	w := New()
	NewAuctionSite(7, 10).Register(w, "e")
	tr, err := w.Fetch("e/")
	if err != nil {
		t.Fatal(err)
	}
	tables, hrs := 0, 0
	tr.Walk(func(n dom.NodeID) {
		switch tr.Label(n) {
		case "table":
			tables++
		case "hr":
			hrs++
		}
	})
	if tables != 11 { // header + 10 items
		t.Errorf("tables = %d", tables)
	}
	if hrs != 1 {
		t.Errorf("hrs = %d", hrs)
	}
}

func TestBookSitePriceUpdate(t *testing.T) {
	w := New()
	s := NewBookSite(5, 10)
	s.Register(w, "books.example.com")
	before, _ := w.Source("books.example.com/bestsellers.html")
	s.SetPrice(3, "$ 1.99")
	after, _ := w.Source("books.example.com/bestsellers.html")
	if before == after {
		t.Fatal("price update not visible")
	}
	if !strings.Contains(after, "$ 1.99") {
		t.Fatal("new price missing")
	}
}

func TestRadioRotation(t *testing.T) {
	pool := SongPool(3, 12)
	r := NewRadioSite("Radio Wien", pool, 0)
	w := New()
	r.Register(w, "radio.example.com")
	p1, _ := w.Source("radio.example.com/playlist.html")
	r.Advance()
	p2, _ := w.Source("radio.example.com/playlist.html")
	if p1 == p2 {
		t.Fatal("advancing did not change the page")
	}
	cur := r.Current()
	if !strings.Contains(p2, cur.Title) {
		t.Fatal("current song missing from page")
	}
}

func TestChartAndLyrics(t *testing.T) {
	pool := SongPool(3, 20)
	w := New()
	NewChartSite("Top 10", pool, 9, 10).Register(w, "charts.example.com")
	(&LyricsSite{Pool: pool}).Register(w, "lyrics.example.com")
	chart, err := w.Source("charts.example.com/top.html")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(chart, `class="rank"`) != 10 {
		t.Error("chart rows wrong")
	}
	if _, err := w.Source("lyrics.example.com/lyrics0.html"); err != nil {
		t.Error(err)
	}
	idx, _ := w.Source("lyrics.example.com/index.html")
	if strings.Count(idx, "<li>") != 20 {
		t.Error("lyrics index wrong")
	}
}

func TestFlightStatusChanges(t *testing.T) {
	s := NewFlightSite(11, 20)
	w := New()
	s.Register(w, "air.example.com")
	initial := map[string]string{}
	for _, f := range s.Flights {
		initial[f.Number] = f.Status
	}
	changedAny := false
	for i := 0; i < 5; i++ {
		s.Advance()
	}
	for _, f := range s.Flights {
		if initial[f.Number] != s.Status(f.Number) {
			changedAny = true
		}
	}
	if !changedAny {
		t.Fatal("statuses never change")
	}
	page, _ := w.Source("air.example.com/departures.html")
	if strings.Count(page, `class="flight"`) != 20 {
		t.Error("flight rows wrong")
	}
}

func TestNewsAndQuotes(t *testing.T) {
	n := NewNewsSite("Financial Daily", 2, 5)
	q := NewQuoteSite(2, "ACME", "Globex")
	w := New()
	n.Register(w, "news.example.com")
	q.Register(w, "quotes.example.com")
	page, _ := w.Source("news.example.com/news.html")
	if strings.Count(page, `class="article"`) != 5 {
		t.Error("article count wrong")
	}
	n.Publish(99)
	page2, _ := w.Source("news.example.com/news.html")
	if strings.Count(page2, `class="article"`) != 6 {
		t.Error("publish did not add an article")
	}
	qp, _ := w.Source("quotes.example.com/quotes.html")
	q.Advance()
	qp2, _ := w.Source("quotes.example.com/quotes.html")
	if qp == qp2 {
		t.Error("quotes did not drift")
	}
}

func TestPowerAndVitiAndPortal(t *testing.T) {
	w := New()
	p := NewPowerSite(4)
	p.Register(w, "power.example.com")
	spot, _ := w.Source("power.example.com/spot.html")
	if strings.Count(spot, `class="hour"`) != 24 {
		t.Error("spot rows wrong")
	}
	weather, _ := w.Source("power.example.com/weather.html")
	if !strings.Contains(weather, "Danube") {
		t.Error("weather page wrong")
	}
	(&VitiSite{Regions: []string{"Wachau", "Burgenland"}}).Register(w, "wine.example.com")
	if _, err := w.Source("wine.example.com/wachau.html"); err != nil {
		t.Error(err)
	}
	portal := NewPortalSite(6, 8)
	portal.Register(w, "portal.example.com")
	rfq, _ := w.Source("portal.example.com/rfq.html")
	if strings.Count(rfq, `class="rfq"`) != 8 {
		t.Error("rfq rows wrong")
	}
	portal.Post("RFQ-9999: special")
	rfq2, _ := w.Source("portal.example.com/rfq.html")
	if strings.Count(rfq2, `class="rfq"`) != 9 {
		t.Error("posting failed")
	}
}

func TestServeHTTP(t *testing.T) {
	w := New()
	NewBookSite(1, 3).Register(w, "books.example.com")
	srv := w.Serve()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/books.example.com/bestsellers.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "Bestsellers") {
		t.Error("HTTP serving broken")
	}
	resp2, _ := http.Get(srv.URL + "/nope")
	if resp2.StatusCode != 404 {
		t.Error("missing page should 404")
	}
	resp2.Body.Close()
}

func Test404(t *testing.T) {
	w := New()
	if _, err := w.Fetch("nowhere"); err == nil {
		t.Fatal("expected 404")
	}
}

func TestHTTPFetcherEndToEnd(t *testing.T) {
	w := New()
	NewBookSite(9, 3).Register(w, "books.example.com")
	srv := w.Serve()
	defer srv.Close()
	f := &HTTPFetcher{Base: srv.URL}
	tr, err := f.Fetch("books.example.com/bestsellers.html")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	tr.Walk(func(n dom.NodeID) {
		if tr.Label(n) == "h1" {
			found = true
		}
	})
	if !found {
		t.Error("fetched page lacks heading")
	}
	if _, err := f.Fetch("missing.example.com/x.html"); err == nil {
		t.Error("404 not surfaced")
	}
}

// TestHTTPFetcherSizeLimit pins the page size limit: a body of exactly
// the limit parses, one byte more is a typed error rather than a
// silently cut-off page.
func TestHTTPFetcherSizeLimit(t *testing.T) {
	const head, tail = "<html><body><p>", "</p></body></html>"
	page := func(size int) string {
		return head + strings.Repeat("a", size-len(head)-len(tail)) + tail
	}
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		size := maxPageBytes
		if r.URL.Path == "/over" {
			size++
		}
		io.WriteString(rw, page(size))
	}))
	defer srv.Close()
	f := &HTTPFetcher{Base: srv.URL}
	tr, err := f.Fetch("at")
	if err != nil {
		t.Fatalf("page of exactly the limit: %v", err)
	}
	text := 0
	tr.Walk(func(n dom.NodeID) { text += len(tr.Text(n)) })
	if want := maxPageBytes - len(head) - len(tail); text != want {
		t.Errorf("parsed %d text bytes, want %d", text, want)
	}
	_, err = f.Fetch("over")
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("page over the limit: err = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), srv.URL+"/over") {
		t.Errorf("error %q does not name the URL", err)
	}
}

// TestConcurrentFetchWithLatency exercises the fetcher the way the
// evaluator's crawl frontier does: many goroutines fetching stateful
// generated pages at once, with simulated latency. Rendering is
// serialized internally (generators close over site state) while the
// latency overlaps, so this must be race-free and the fetch counters
// exact. Run with -race (CI does).
func TestConcurrentFetchWithLatency(t *testing.T) {
	w := New()
	site := NewAuctionSite(5, 60)
	site.Register(w, "www.ebay.com")
	w.SetLatency(2 * time.Millisecond)
	urls := w.URLs()
	if len(urls) < 2 {
		t.Fatalf("auction site registered %d pages", len(urls))
	}
	const per = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(urls)*per)
	for _, url := range urls {
		for i := 0; i < per; i++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				tr, err := w.Fetch(url)
				if err != nil {
					errs <- err
					return
				}
				if tr.Size() == 0 {
					errs <- fmt.Errorf("empty tree for %s", url)
				}
			}(url)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, url := range urls {
		if got := w.FetchCount(url); got != per {
			t.Errorf("FetchCount(%s) = %d, want %d", url, got, per)
		}
	}
}
