package transform

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/pib"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// bookPipeline wires the small information pipe of Figure 7: two
// bookshop wrappers -> integrator -> cheapest-offer transformer ->
// change filter -> collector.
func bookPipeline(t *testing.T) (*Engine, *web.BookSite, *web.BookSite, *Collector) {
	t.Helper()
	w := web.New()
	shopA := web.NewBookSite(1, 5)
	shopA.Register(w, "shop-a.example.com")
	shopB := web.NewBookSite(2, 5)
	shopB.Register(w, "shop-b.example.com")

	mkProgram := func(host string) *elog.Program {
		return elog.MustParse(fmt.Sprintf(`
page(S, X) <- document("%s/bestsellers.html", S), subelem(S, .body, X)
book(S, X) <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, host))
	}
	design := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "shop"}

	eng := NewEngine()
	for _, c := range []Component{
		&WrapperSource{CompName: "wrapA", Fetcher: w, Program: mkProgram("shop-a.example.com"), Design: design},
		&WrapperSource{CompName: "wrapB", Fetcher: w, Program: mkProgram("shop-b.example.com"), Design: design},
		&Integrator{CompName: "merge", Expect: []string{"wrapA", "wrapB"}, RootName: "offers"},
		&Transformer{CompName: "best", Fn: cheapest},
		&ChangeFilter{CompName: "changed"},
	} {
		if err := eng.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	sink := &Collector{CompName: "out"}
	if err := eng.Add(sink); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{
		{"wrapA", "merge"}, {"wrapB", "merge"}, {"merge", "best"},
		{"best", "changed"}, {"changed", "out"},
	} {
		if err := eng.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return eng, shopA, shopB, sink
}

// cheapest reduces the merged offers to the globally cheapest book.
func cheapest(doc *xmlenc.Node) (*xmlenc.Node, error) {
	out := xmlenc.NewElement("cheapest")
	bestPrice := 1e18
	var best *xmlenc.Node
	for _, book := range doc.Find("book") {
		p := book.FirstChild("price")
		tl := book.FirstChild("title")
		if p == nil || tl == nil {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(strings.TrimPrefix(strings.TrimSpace(p.Text), "$ "), "%f", &v); err != nil {
			continue
		}
		if v < bestPrice {
			bestPrice = v
			best = book
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no offers")
	}
	out.AppendTextElement("title", best.FirstChild("title").Text)
	out.AppendTextElement("price", best.FirstChild("price").Text)
	return out, nil
}

func TestE13Pipeline(t *testing.T) {
	eng, shopA, _, sink := bookPipeline(t)
	eng.Tick()
	if len(eng.Errors) != 0 {
		t.Fatalf("errors: %v", eng.Errors)
	}
	if sink.Len() != 1 {
		t.Fatalf("deliveries = %d", sink.Len())
	}
	first := sink.Docs()[0]
	if first.Name != "cheapest" || first.FirstChild("title") == nil {
		t.Fatalf("bad delivery: %s", xmlenc.Marshal(first))
	}

	// Nothing changed: the change filter must suppress the second tick.
	eng.Tick()
	if sink.Len() != 1 {
		t.Fatalf("unchanged data delivered again (%d deliveries)", sink.Len())
	}

	// A price drop must flow through.
	shopA.SetPrice(1, "$ 0.50")
	eng.Tick()
	if sink.Len() != 2 {
		t.Fatalf("price change not delivered (%d)", sink.Len())
	}
	last := sink.Docs()[1]
	if got := last.FirstChild("price").Text; !strings.Contains(got, "0.50") {
		t.Errorf("cheapest price = %q", got)
	}
}

func TestIntegratorWaitsForAllInputs(t *testing.T) {
	i := &Integrator{CompName: "m", Expect: []string{"a", "b"}}
	out, err := i.Process("a", xmlenc.NewElement("x"))
	if err != nil || out != nil {
		t.Fatalf("emitted before all inputs: %v %v", out, err)
	}
	out, err = i.Process("b", xmlenc.NewElement("y"))
	if err != nil || len(out) != 1 {
		t.Fatalf("did not emit after all inputs: %v %v", out, err)
	}
	if len(out[0].Children) != 2 {
		t.Errorf("merged %d children", len(out[0].Children))
	}
}

func TestCycleRejected(t *testing.T) {
	eng := NewEngine()
	a := &Transformer{CompName: "a", Fn: func(n *xmlenc.Node) (*xmlenc.Node, error) { return n, nil }}
	b := &Transformer{CompName: "b", Fn: func(n *xmlenc.Node) (*xmlenc.Node, error) { return n, nil }}
	if err := eng.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect("b", "a"); err == nil {
		t.Fatal("cycle accepted")
	}
	if err := eng.Connect("a", "zzz"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestDuplicateComponentRejected(t *testing.T) {
	eng := NewEngine()
	c := &Collector{CompName: "x"}
	if err := eng.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(&Collector{CompName: "x"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestSourceErrorLoggedNotFatal(t *testing.T) {
	eng := NewEngine()
	bad := &WrapperSource{CompName: "bad",
		Fetcher: elog.MapFetcher{},
		Program: elog.MustParse(`p(S, X) <- document("missing", S), subelem(S, .body, X)`)}
	sink := &Collector{CompName: "out"}
	if err := eng.Add(bad); err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(sink); err != nil {
		t.Fatal(err)
	}
	if err := eng.Connect("bad", "out"); err != nil {
		t.Fatal(err)
	}
	eng.Tick()
	if len(eng.Errors) == 0 {
		t.Fatal("error not logged")
	}
	if sink.Len() != 0 {
		t.Fatal("bad source delivered")
	}
}

func TestWrapperSourcePollInterval(t *testing.T) {
	w := web.New()
	web.NewBookSite(1, 2).Register(w, "s.example.com")
	src := &WrapperSource{CompName: "s", Fetcher: w, Every: 3,
		Program: elog.MustParse(`page(S, X) <- document("s.example.com/bestsellers.html", S), subelem(S, .body, X)`)}
	polls := 0
	for i := 0; i < 9; i++ {
		docs, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		polls += len(docs)
	}
	if polls != 3 {
		t.Fatalf("polled %d times, want 3 (Every=3 over 9 ticks)", polls)
	}
}

func BenchmarkE13_PipelineThroughput(b *testing.B) {
	w := web.New()
	web.NewBookSite(1, 50).Register(w, "shop-a.example.com")
	web.NewBookSite(2, 50).Register(w, "shop-b.example.com")
	eng := NewEngine()
	design := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}, RootName: "shop"}
	mk := func(host string) *elog.Program {
		return elog.MustParse(fmt.Sprintf(`
page(S, X) <- document("%s/bestsellers.html", S), subelem(S, .body, X)
book(S, X) <- page(_, S), subelem(S, (?.tr, [(class, book, exact)]), X)
title(S, X) <- book(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- book(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, host))
	}
	_ = eng.Add(&WrapperSource{CompName: "wrapA", Fetcher: w, Program: mk("shop-a.example.com"), Design: design})
	_ = eng.Add(&WrapperSource{CompName: "wrapB", Fetcher: w, Program: mk("shop-b.example.com"), Design: design})
	_ = eng.Add(&Integrator{CompName: "merge", Expect: []string{"wrapA", "wrapB"}})
	sink := &Collector{CompName: "out"}
	_ = eng.Add(sink)
	_ = eng.Connect("wrapA", "merge")
	_ = eng.Connect("wrapB", "merge")
	_ = eng.Connect("merge", "out")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tick()
	}
	if sink.Len() == 0 {
		b.Fatal("no deliveries")
	}
}

// TestWrapperSourceFingerprintCache pins the fingerprint-keyed poll
// cache: unchanged pages re-emit the previous document without
// re-running the wrapper; any page mutation invalidates the cache.
func TestWrapperSourceFingerprintCache(t *testing.T) {
	page := htmlparse.Parse(`<html><body><p class="x">one</p></body></html>`)
	src := &WrapperSource{
		CompName: "w",
		Fetcher:  elog.MapFetcher{"site/page.html": page},
		Program: elog.MustParse(`
page(S, X) <- document("site/page.html", S), subelem(S, .body, X)
`),
	}
	poll := func() *xmlenc.Node {
		t.Helper()
		docs, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 1 {
			t.Fatalf("poll emitted %d docs, want 1", len(docs))
		}
		return docs[0]
	}
	d1 := poll()
	d2 := poll()
	if d2 != d1 || src.CacheHits != 1 {
		t.Fatalf("unchanged page: got new document (hits=%d), want cache hit", src.CacheHits)
	}
	// Mutate the page: the fingerprint changes and the wrapper re-runs.
	page.AppendText(page.Root(), "extra")
	d3 := poll()
	if d3 == d1 || src.CacheHits != 1 {
		t.Fatalf("changed page: poll reused stale document (hits=%d)", src.CacheHits)
	}
	if d4 := poll(); d4 != d3 || src.CacheHits != 2 {
		t.Fatalf("re-poll after change should hit cache again (hits=%d)", src.CacheHits)
	}
}

// TestExtractionStats pins the wrapper memoization counters that the
// server's /statusz page surfaces: whole-poll fingerprint cache hits
// plus the compiled program's per-document match cache, aggregated
// over the engine.
func TestExtractionStats(t *testing.T) {
	page := htmlparse.Parse(`<html><body><p class="x">one</p><p class="x">two</p></body></html>`)
	fetch := elog.MapFetcher{"site/page.html": page}
	w := lixto.MustCompile(`
page(S, X) <- document("site/page.html", S), subelem(S, .body, X)
para(S, X) <- page(_, S), subelem(S, (?.p, [(class, x, exact)]), X)
`)
	src := NewWrapperSource("w", w, fetch)
	eng := NewEngine()
	sink := &Collector{CompName: "sink"}
	for _, c := range []Component{Component(src), sink} {
		if err := eng.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Connect("w", "sink"); err != nil {
		t.Fatal(err)
	}

	eng.Tick()
	st := src.ExtractionStats()
	// The fixpoint loop re-applies rules within one run, so the match
	// cache records hits even on a cold poll; misses are the cold
	// matches themselves.
	if st.PollCacheHits != 0 || st.MatchCacheMisses == 0 {
		t.Fatalf("first tick stats = %+v, want cold misses and no poll hits", st)
	}
	eng.Tick()
	prev := st
	st = src.ExtractionStats()
	if st.PollCacheHits != 1 {
		t.Fatalf("second tick poll hits = %d, want 1", st.PollCacheHits)
	}
	if st.MatchCacheMisses != prev.MatchCacheMisses {
		t.Fatalf("poll cache hit still re-matched: %+v vs %+v", st, prev)
	}
	// A second source over the same compiled wrapper has no poll cache
	// of its own, so it re-extracts: the shared compiled match cache
	// still answers the unchanged page without new misses.
	if _, err := NewWrapperSource("w2", w, fetch).Poll(); err != nil {
		t.Fatal(err)
	}
	prev = st
	st = src.ExtractionStats()
	if st.MatchCacheHits <= prev.MatchCacheHits || st.MatchCacheMisses != prev.MatchCacheMisses {
		t.Fatalf("re-extraction of an unchanged page missed the match cache: %+v vs %+v", st, prev)
	}
	if got := eng.ExtractionStats(); got != st {
		t.Fatalf("engine aggregate %+v != source stats %+v", got, st)
	}
}

// TestWrapperSourceAliasedTree polls a wrapper whose fetcher serves the
// same tree under two URLs: the frontier's workers then hand the shared
// tree to the recording fetcher concurrently, which must be race-free
// (run with -race; CI does).
func TestWrapperSourceAliasedTree(t *testing.T) {
	for i := 0; i < 10; i++ {
		page := htmlparse.Parse(`<html><body><p class="x">one</p></body></html>`)
		src := &WrapperSource{
			CompName: "w",
			Fetcher:  elog.MapFetcher{"u1": page, "u2": page},
			Program: elog.MustParse(`
a(S, X) <- document("u1", S), subelem(S, .body, X)
b(S, X) <- document("u2", S), subelem(S, .body, X)
`),
		}
		docs, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != 1 {
			t.Fatalf("poll emitted %d docs", len(docs))
		}
		if docs2, err := src.Poll(); err != nil || len(docs2) != 1 || docs2[0] != docs[0] {
			t.Fatalf("re-poll over the aliased unchanged tree missed the cache: %v", err)
		}
	}
}
