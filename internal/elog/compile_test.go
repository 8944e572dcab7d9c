package elog_test

// Differential and concurrency tests for the compiled Elog execution
// path: elog.Compile must produce exactly the pattern instance bases
// and XML documents of the seed interpreter (Evaluator.Run) on every
// wrapper the examples/ directory exercises, and the concurrent crawl
// frontier must keep that output deterministic under -race.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/pib"
	"repro/internal/visual"
	"repro/internal/web"
)

// exampleWrappers mirrors the Elog programs run by the commands under
// examples/ (quickstart, ebay with crawling, flightinfo, pressclipping,
// nowplaying radio/chart/lyrics): each entry builds the simulated web
// the example wraps and returns the program source.
var exampleWrappers = []struct {
	name string
	prog string
	site func() *web.Web
}{
	{
		name: "quickstart",
		prog: `
page(S, X)  <- document("shop", S), subelem(S, .body, X)
book(S, X)  <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`,
		site: func() *web.Web {
			w := web.New()
			w.SetStatic("shop", `<html><body><h1>Staff picks</h1><table class="books">
<tr class="book"><td class="title">Foundations of Databases</td><td class="price">$ 54.00</td></tr>
<tr class="book"><td class="title">Monadic Datalog and Web Information Extraction</td><td class="price">$ 12.00</td></tr>
<tr class="book"><td class="title">The Complexity of XPath</td><td class="price">$ 9.50</td></tr>
</table></body></html>`)
			return w
		},
	},
	{
		name: "ebay-crawl",
		prog: `
tableseq(S, X) <- document("www.ebay.com/", S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq(_, S), subelem(S, .table, X)
itemdes(S, X) <- record(_, S), subelem(S, (?.td.?.a, []), X)
price(S, X) <- record(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
bids(S, X) <- record(_, S), subelem(S, ?.td, X), before(S, X, ?.td, 0, 30, Y, _), price(_, Y)
currency(S, X) <- price(_, S), subtext(S, \var[Y], X), isCurrency(Y)
nextlink(S, X) <- document("www.ebay.com/", S), subelem(S, (?.a, [(class, next, exact)]), X)
nexturl(S, X) <- nextlink(_, S), subatt(S, href, X)
nextpage(S, X) <- nexturl(_, S), getDocument(S, X)
tableseq2(S, X) <- nextpage(_, S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq2(_, S), subelem(S, .table, X)
`,
		site: func() *web.Web {
			w := web.New()
			web.NewAuctionSite(2004, 40).Register(w, "www.ebay.com") // two pages of 25 + 15
			return w
		},
	},
	{
		name: "flightinfo",
		prog: `
page(S, X) <- document("airport.example.com/departures.html", S), subelem(S, .body, X)
flight(S, X) <- page(_, S), subelem(S, (?.tr, [(class, flight, exact)]), X)
number(S, X) <- flight(_, S), subelem(S, (?.td, [(class, no, exact)]), X)
from(S, X) <- flight(_, S), subelem(S, (?.td, [(class, from, exact)]), X)
to(S, X) <- flight(_, S), subelem(S, (?.td, [(class, to, exact)]), X)
time(S, X) <- flight(_, S), subelem(S, (?.td, [(class, time, exact)]), X)
status(S, X) <- flight(_, S), subelem(S, (?.td, [(class, status, exact)]), X)
`,
		site: func() *web.Web {
			w := web.New()
			web.NewFlightSite(2004, 30).Register(w, "airport.example.com")
			return w
		},
	},
	{
		name: "pressclipping",
		prog: `
page(S, X) <- document("press.example.com/news.html", S), subelem(S, .body, X)
article(S, X) <- page(_, S), subelem(S, (?.div, [(class, article, exact)]), X)
headline(S, X) <- article(_, S), subelem(S, (?.h2, [(class, headline, exact)]), X)
date(S, X) <- article(_, S), subelem(S, (?.span, [(class, date, exact)]), X)
ticker(S, X) <- article(_, S), subelem(S, (?.span, [(class, ticker, exact)]), X)
body(S, X) <- article(_, S), subelem(S, (?.p, [(class, body, exact)]), X)
`,
		site: func() *web.Web {
			w := web.New()
			web.NewNewsSite("press", 2004, 5).Register(w, "press.example.com")
			return w
		},
	},
	{
		name: "nowplaying-chart",
		prog: `
page(S, X) <- document("top40.example.com/top.html", S), subelem(S, .body, X)
entry(S, X) <- page(_, S), subelem(S, ?.tr, X), contains(X, (?.td, [(class, rank, exact)]), _)
rank(S, X) <- entry(_, S), subelem(S, (?.td, [(class, rank, exact)]), X)
song(S, X) <- entry(_, S), subelem(S, (?.td, [(class, song, exact)]), X)
artist(S, X) <- entry(_, S), subelem(S, (?.td, [(class, artist, exact)]), X)
`,
		site: func() *web.Web {
			w := web.New()
			web.NewChartSite("top40", web.SongPool(2004, 40), 2005, 10).Register(w, "top40.example.com")
			return w
		},
	},
	{
		name: "nowplaying-lyrics-crawl",
		prog: `
index(S, X) <- document("lyrics.example.com/index.html", S), subelem(S, .body, X)
link(S, X) <- index(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
songpage(S, X) <- url(_, S), getDocument(S, X)
song(S, X) <- songpage(_, S), subelem(S, (?.h1, [(class, song, exact)]), X)
lyrics(S, X) <- songpage(_, S), subelem(S, (?.pre, [(class, lyrics, exact)]), X)
`,
		site: func() *web.Web {
			w := web.New()
			ls := &web.LyricsSite{Pool: web.SongPool(2004, 12)}
			ls.Register(w, "lyrics.example.com")
			return w
		},
	},
}

// baseSummary renders a pattern instance base into a canonical string:
// every pattern with every instance's kind, URL, nodes, and text. Two
// equal summaries mean the extracted instance sets are identical.
func baseSummary(b *pib.Base) string {
	var sb strings.Builder
	for _, pat := range b.Patterns() {
		fmt.Fprintf(&sb, "%s (%d):\n", pat, len(b.Instances(pat)))
		lines := make([]string, 0, len(b.Instances(pat)))
		for _, in := range b.Instances(pat) {
			lines = append(lines, fmt.Sprintf("  k%d %s %v %q", in.Kind, in.URL, in.Nodes, in.Text))
		}
		// Insertion order may differ between interpreted and compiled
		// matching (discovery order vs document order); the instance
		// sets must not.
		sortStrings(lines)
		for _, l := range lines {
			sb.WriteString(l + "\n")
		}
	}
	return sb.String()
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// wrapBoth runs the program interpreted and compiled over fresh copies
// of the same site and returns both bases plus both XML documents.
func wrapBoth(t *testing.T, prog string, site func() *web.Web) (xmlI, xmlC, sumI, sumC string) {
	t.Helper()
	p := elog.MustParse(prog)
	design := &pib.Design{Auxiliary: map[string]bool{"document": true}}

	baseI, err := elog.NewEvaluator(site()).Run(p)
	if err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	cp, err := elog.Compile(p)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	baseC, err := elog.NewEvaluator(site()).RunCompiled(cp)
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	return design.TransformString(baseI), design.TransformString(baseC),
		baseSummary(baseI), baseSummary(baseC)
}

// TestCompiledDifferentialExamples pins compiled execution against the
// seed interpreter on every wrapper the examples/ commands run.
func TestCompiledDifferentialExamples(t *testing.T) {
	for _, tc := range exampleWrappers {
		t.Run(tc.name, func(t *testing.T) {
			xmlI, xmlC, sumI, sumC := wrapBoth(t, tc.prog, tc.site)
			if sumI != sumC {
				t.Errorf("instance bases differ:\n--- interpreted ---\n%s--- compiled ---\n%s", sumI, sumC)
			}
			if xmlI != xmlC {
				t.Errorf("XML output differs:\n--- interpreted ---\n%s\n--- compiled ---\n%s", xmlI, xmlC)
			}
			if !strings.Contains(sumI, "(") || len(sumI) < 10 {
				t.Fatalf("suspiciously empty extraction:\n%s", sumI)
			}
		})
	}
}

// TestCompiledDifferentialVisualBuilder runs the visually generated
// wrapper of examples/visualbuilder through both paths.
func TestCompiledDifferentialVisualBuilder(t *testing.T) {
	sim := web.New()
	site := web.NewBookSite(2004, 8)
	site.Register(sim, "books.example.com")
	doc, err := sim.Fetch("books.example.com/bestsellers.html")
	if err != nil {
		t.Fatal(err)
	}
	s := visual.NewSession(doc, "books.example.com/bestsellers.html")
	if err := s.AddDocumentPattern("page"); err != nil {
		t.Fatal(err)
	}
	region, ok := s.FindText(site.Books[0].Title)
	if !ok {
		t.Fatal("example title not on page")
	}
	if _, err := s.AddPattern("title", "page", region); err != nil {
		t.Fatal(err)
	}
	if err := s.GeneralizePath("title", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.RequireAttribute("title", "class", "title", "exact"); err != nil {
		t.Fatal(err)
	}

	heldOut := func() *web.Web {
		w := web.New()
		web.NewBookSite(4071, 20).Register(w, "books.example.com")
		return w
	}
	baseI, err := elog.NewEvaluator(heldOut()).Run(s.Program())
	if err != nil {
		t.Fatal(err)
	}
	baseC, err := elog.NewEvaluator(heldOut()).RunCompiled(elog.MustCompile(s.Program()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := baseSummary(baseC), baseSummary(baseI); got != want {
		t.Errorf("instance bases differ:\n--- interpreted ---\n%s--- compiled ---\n%s", want, got)
	}
	if n := len(baseI.Instances("title")); n != 20 {
		t.Fatalf("interpreted titles = %d, want 20", n)
	}
}

// TestCompiledFingerprintCache re-wraps an unchanged page through one
// CompiledProgram: the second run must be answered from the
// fingerprint-keyed match caches and produce identical output.
func TestCompiledFingerprintCache(t *testing.T) {
	tc := exampleWrappers[1] // ebay-crawl
	p := elog.MustParse(tc.prog)
	cp := elog.MustCompile(p)
	sim := tc.site()

	base1, err := elog.NewEvaluator(sim).RunCompiled(cp)
	if err != nil {
		t.Fatal(err)
	}
	_, misses1 := cp.Stats()
	if misses1 == 0 {
		t.Fatal("first run recorded no cache misses")
	}
	base2, err := elog.NewEvaluator(sim).RunCompiled(cp)
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := cp.Stats()
	if misses2 != misses1 {
		t.Errorf("second run over unchanged pages recorded %d new misses", misses2-misses1)
	}
	if hits2 == 0 {
		t.Error("second run hit the match cache 0 times")
	}
	if a, b := baseSummary(base1), baseSummary(base2); a != b {
		t.Errorf("cached run changed the output:\n%s\nvs\n%s", a, b)
	}
}

// TestConcurrentRunStress runs many evaluations in parallel over one
// simulated web and one shared CompiledProgram — the server's
// many-pipelines usage — and checks every run produces the reference
// output. Run with -race (CI does).
func TestConcurrentRunStress(t *testing.T) {
	tc := exampleWrappers[1] // ebay-crawl: exercises subsq, regvar, getDocument
	p := elog.MustParse(tc.prog)
	cp := elog.MustCompile(p)
	sim := tc.site()
	sim.SetLatency(200 * time.Microsecond)

	ref, err := elog.NewEvaluator(sim).RunCompiled(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := baseSummary(ref)

	const goroutines = 8
	const runsEach = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				var base *pib.Base
				var err error
				if i%2 == 0 {
					base, err = elog.NewEvaluator(sim).RunCompiled(cp)
				} else {
					base, err = elog.NewEvaluator(sim).Run(p)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if got := baseSummary(base); got != want {
					errs <- fmt.Errorf("goroutine %d run %d: output diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFrontierFetchesConcurrently uses the simulated web's latency to
// observe the parallel crawl frontier: an index page linking to six
// subpages costs at least 7×latency serially, and the frontier must
// beat that while producing output identical to a serial crawl.
func TestFrontierFetchesConcurrently(t *testing.T) {
	// The latency is simulated with time.Sleep, so the fetches overlap
	// even on GOMAXPROCS=1 — no CPU-count skip needed.
	const pages = 6
	const latency = 30 * time.Millisecond
	prog := `
index(S, X) <- document("crawl.example.com/index.html", S), subelem(S, .body, X)
link(S, X) <- index(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
page(S, X) <- url(_, S), getDocument(S, X)
title(S, X) <- page(_, S), subelem(S, ?.h1, X)
`
	site := func() *web.Web {
		w := web.New()
		var idx strings.Builder
		idx.WriteString("<html><body>")
		for i := 0; i < pages; i++ {
			// Relative hrefs: resolveURL resolves them against the
			// index page's path-style URL.
			fmt.Fprintf(&idx, `<a href="page%d.html">p%d</a>`, i, i)
			w.SetStatic(fmt.Sprintf("crawl.example.com/page%d.html", i),
				fmt.Sprintf("<html><body><h1>page %d</h1></body></html>", i))
		}
		idx.WriteString("</body></html>")
		w.SetStatic("crawl.example.com/index.html", idx.String())
		return w
	}
	p := elog.MustParse(prog)

	// Serial reference: one fetch at a time.
	serialWeb := site()
	serialWeb.SetLatency(latency)
	evSerial := elog.NewEvaluator(serialWeb)
	evSerial.MaxConcurrency = 1
	baseSerial, err := evSerial.Run(p)
	if err != nil {
		t.Fatal(err)
	}

	parallelWeb := site()
	parallelWeb.SetLatency(latency)
	ev := elog.NewEvaluator(parallelWeb)
	ev.MaxConcurrency = pages + 2
	start := time.Now()
	base, err := ev.Run(p)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := baseSummary(base), baseSummary(baseSerial); got != want {
		t.Errorf("parallel crawl changed the output:\n%s\nvs serial:\n%s", got, want)
	}
	if n := len(base.Instances("title")); n != pages {
		t.Fatalf("crawled %d titles, want %d", n, pages)
	}
	// Serial lower bound is (pages+1)×latency = 210ms; the frontier
	// needs one latency for the index plus one for the batched subpage
	// wave. The generous bound keeps slow CI machines green while still
	// distinguishing parallel from serial.
	if serialMin := time.Duration(pages+1) * latency; elapsed >= serialMin*2/3 {
		t.Errorf("crawl of %d pages with %v latency took %v, want well under the serial %v",
			pages+1, latency, elapsed, serialMin)
	}
}

// TestSharedTreeUnderConcurrentFrontier maps several document URLs to
// one shared unwarmed tree (the core.Wrapper.WrapHTML shape): frontier
// workers then warm the same tree concurrently, which must be safe.
// Run with -race (CI does).
func TestSharedTreeUnderConcurrentFrontier(t *testing.T) {
	prog := elog.MustParse(`
a(S, X) <- document("u1", S), subelem(S, .body, X)
b(S, X) <- document("u2", S), subelem(S, .body, X)
c(S, X) <- document("u3", S), subelem(S, .body, X)
`)
	for i := 0; i < 20; i++ {
		shared := htmlparse.Parse(`<html><body><p>shared</p></body></html>`)
		fetch := elog.MapFetcher{"u1": shared, "u2": shared, "u3": shared}
		ev := elog.NewEvaluator(fetch)
		ev.MaxConcurrency = 4
		base, err := ev.RunCompiled(elog.MustCompile(prog))
		if err != nil {
			t.Fatal(err)
		}
		for _, pat := range []string{"a", "b", "c"} {
			if n := len(base.Instances(pat)); n != 1 {
				t.Fatalf("iteration %d: %s extracted %d instances, want 1", i, pat, n)
			}
		}
	}
}

// TestPrefetchHonorsCrawlLimit pins the frontier's speculative budget:
// a crawl aborted at MaxDocuments must not have fetched pages beyond
// the limit behind the evaluator's back.
func TestPrefetchHonorsCrawlLimit(t *testing.T) {
	const links = 10
	const limit = 4
	sim := web.New()
	var idx strings.Builder
	idx.WriteString("<html><body>")
	for i := 0; i < links; i++ {
		fmt.Fprintf(&idx, `<a href="p%d.html">p</a>`, i)
		sim.SetStatic(fmt.Sprintf("crawl.example.com/p%d.html", i), "<html><body><h1>p</h1></body></html>")
	}
	idx.WriteString("</body></html>")
	sim.SetStatic("crawl.example.com/index.html", idx.String())

	var fetches atomic.Int64
	counting := elog.FetcherFunc(func(url string) (*dom.Tree, error) {
		fetches.Add(1)
		return sim.Fetch(url)
	})
	prog := elog.MustParse(`
index(S, X) <- document("crawl.example.com/index.html", S), subelem(S, .body, X)
link(S, X) <- index(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
page(S, X) <- url(_, S), getDocument(S, X)
`)
	ev := elog.NewEvaluator(counting)
	ev.MaxDocuments = limit
	ev.MaxConcurrency = links + 2
	if _, err := ev.Run(prog); err == nil || !strings.Contains(err.Error(), "crawl limit") {
		t.Fatalf("expected crawl-limit error, got %v", err)
	}
	if got := fetches.Load(); got > limit {
		t.Errorf("run fetched %d pages with MaxDocuments=%d", got, limit)
	}
}

// TestTransientFetchFailureRetried pins the crawl retry semantics. The
// frontier does not cache failures, and the evaluator queues a parent
// whose fetch failed for the next fixpoint pass, so a transient failure
// (a one-off timeout) heals as long as passes still run, while a
// permanently dangling link costs one attempt per pass — exactly as
// many as the naive fixpoint, which re-applied every rule to every
// parent on every pass, made.
func TestTransientFetchFailureRetried(t *testing.T) {
	const (
		target = "crawl.example.com/page.html"
		gone   = "crawl.example.com/gone.html"
	)
	sim := web.New()
	// The nested divs keep the fixpoint running for several passes: the
	// recursive nest rule descends one level per pass.
	sim.SetStatic("crawl.example.com/index.html", `<html><body>
<a href="page.html">p</a><a href="gone.html">g</a>
<div><div><div><div><div><div></div></div></div></div></div></div></body></html>`)
	sim.SetStatic(target, "<html><body><h1>found</h1></body></html>")
	prog := elog.MustParse(`
index(S, X) <- document("crawl.example.com/index.html", S), subelem(S, .body, X)
link(S, X) <- index(_, S), subelem(S, ?.a, X)
url(S, X) <- link(_, S), subatt(S, href, X)
page(S, X) <- url(_, S), getDocument(S, X)
title(S, X) <- page(_, S), subelem(S, ?.h1, X)
nest(S, X) <- index(_, S), subelem(S, .div, X)
nest(S, X) <- nest(_, S), subelem(S, .div, X)
`)
	type mode struct {
		name string
		run  func(*elog.Evaluator) (*pib.Base, error)
	}
	modes := []mode{
		{"interpreted", func(ev *elog.Evaluator) (*pib.Base, error) { return ev.Run(prog) }},
		{"compiled", func(ev *elog.Evaluator) (*pib.Base, error) { return ev.RunCompiled(elog.MustCompile(prog)) }},
		{"naive", func(ev *elog.Evaluator) (*pib.Base, error) { return ev.RunNaive(prog, nil) }},
	}
	// run evaluates with a fetcher that fails target's first failures
	// attempts and counts the attempts on the dangling link. gone's
	// first attempt — the speculative prefetch — is slow, so the
	// consuming fetch in the first pass always joins it rather than
	// racing it; every later attempt is a retry in a later pass.
	run := func(t *testing.T, m mode, failures int32) (*pib.Base, int32) {
		var targetAttempts, goneAttempts atomic.Int32
		ev := elog.NewEvaluator(elog.FetcherFunc(func(url string) (*dom.Tree, error) {
			switch url {
			case target:
				if targetAttempts.Add(1) <= failures {
					return nil, fmt.Errorf("transient: connection reset")
				}
			case gone:
				if goneAttempts.Add(1) == 1 {
					time.Sleep(50 * time.Millisecond)
				}
			}
			return sim.Fetch(url)
		}))
		base, err := m.run(ev)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		return base, goneAttempts.Load()
	}
	for _, failures := range []int32{1, 2} {
		for _, m := range modes {
			// The speculative prefetch eats the first failure; a retry
			// in a later pass must succeed.
			if base, _ := run(t, m, failures); len(base.Instances("title")) != 1 {
				t.Errorf("%s: extracted %d titles after %d transient failures, want 1",
					m.name, len(base.Instances("title")), failures)
			}
		}
	}
	_, naive := run(t, modes[2], 0)
	t.Logf("the naive fixpoint attempted the dangling link %d times", naive)
	if naive < 3 {
		t.Fatalf("naive fixpoint attempted the dangling link %d times, want one attempt per pass over several passes", naive)
	}
	for _, m := range modes[:2] {
		if _, got := run(t, m, 0); got != naive {
			t.Errorf("%s: dangling link attempted %d times, naive fixpoint %d", m.name, got, naive)
		}
	}
}
