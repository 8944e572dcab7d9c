// Command benchreport regenerates the experiment tables of
// EXPERIMENTS.md: for each experiment id it runs the workload at several
// parameter points, measures wall-clock time (median of runs), and
// prints the series whose *shape* reproduces the corresponding claim of
// the paper (linear scaling, polynomial-vs-exponential crossovers,
// extraction accuracy, click counts).
//
// With -json PATH the command additionally runs a fixed set of named
// benchmarks under testing.Benchmark and writes a machine-readable
// report (benchmark name → ns/op, allocs/op, B/op) so that the perf
// trajectory can be tracked across commits, e.g.
//
//	go run ./cmd/benchreport -quick -json BENCH_report.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/htmlparse"
	"repro/internal/mdatalog"
	"repro/internal/pib"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/transform"
	"repro/internal/visual"
	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/internal/xpath"
)

var (
	quick    = flag.Bool("quick", false, "fewer repetitions")
	jsonPath = flag.String("json", "", "write a BENCH_*.json report to this path")
)

func main() {
	flag.Parse()
	e2MonadicLinear()
	e3GenericVsTree()
	e7VisualClicks()
	e8EbayAccuracy()
	e9CoreXPathLinear()
	e10NaiveVsPolynomial()
	e11Dichotomy()
	e12TranslationSizes()
	e18ElogCompiled()
	e19DynamicRegister()
	e20SharedFetch()
	e21BatchedFleet()
	e22WatchFanout()
	e23LockFreeReads()
	e24ChurnIncremental()
	e25DurableDelivery()
	e26ChurnEndToEnd()
	if *jsonPath != "" {
		if err := writeBenchJSON(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}

// benchEntry is one row of the JSON report.
type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// writeBenchJSON measures the tracked workloads with testing.Benchmark
// and writes {name: {ns_per_op, allocs_per_op, bytes_per_op}}.
func writeBenchJSON(path string) error {
	report := map[string]benchEntry{}
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		report[name] = benchEntry{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}

	itp := mdatalog.ItalicProgram()
	for _, size := range []int{2000, 8000, 32000} {
		tr := dom.RandomTree(rand.New(rand.NewSource(2)), size, []string{"a", "i", "b"}, 6)
		add(fmt.Sprintf("E02_MonadicDatalogEval/dom-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mdatalog.Eval(itp, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	xq := xpath.MustParse("//div[span and not(b)]//span")
	xtr := deepDivs(300)
	add("E09_CoreXPathLinear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xpath.EvalCore(xq, xtr, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	compiled := xpath.CompilePath(xq)
	add("E09_CoreXPathCompiledCached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := compiled.EvalCached(xtr); err != nil {
				b.Fatal(err)
			}
		}
	})

	// End-to-end Elog: the Figure 5 eBay wrapper on a fixed pre-parsed
	// page — seed interpreter vs compiled bitset execution, cold and
	// with a warm fingerprint-keyed match cache (the repeated
	// extraction of an unchanged page that the server performs every
	// tick).
	eprog := elog.MustParse(ebayFigure5)
	fetch, err := ebayFetcher(50)
	if err != nil {
		return err
	}
	add("E18_ElogEbay/interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := elog.NewEvaluator(fetch).Run(eprog); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("E18_ElogEbay/compiled-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := elog.NewEvaluator(fetch).RunCompiled(elog.MustCompile(eprog)); err != nil {
				b.Fatal(err)
			}
		}
	})
	ecp := elog.MustCompile(eprog)
	if _, err := elog.NewEvaluator(fetch).RunCompiled(ecp); err != nil { // warm the cache
		return err
	}
	add("E18_ElogEbay/compiled-cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := elog.NewEvaluator(fetch).RunCompiled(ecp); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Dynamic registration over the /v1 API: one POST is compile +
	// register + first extraction; the warm path re-extracts an
	// unchanged page through the fingerprint-keyed match caches.
	e19ts := v1Server()
	e19page := e19Page(50)
	e19i := 0
	add("E19_DynamicRegister/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e19Cold(e19ts, e19page, e19i)
			e19i++
		}
	})
	v1Post(e19ts.URL+"/v1/wrappers", map[string]any{
		"name": "warmjson", "program": ebayFigure5, "html": e19page,
		"auxiliary": []string{"tableseq"},
	})
	add("E19_DynamicRegister/warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v1Post(e19ts.URL+"/v1/wrappers/warmjson/extract", map[string]any{})
		}
	})
	e19ts.Close()

	// Shared fetch layer: one fleet polling round, per-wrapper fetching
	// vs the shared cache (E20).
	e20priv, _ := e20Fleet(1000, 50, nil)
	pollFleet(e20priv)
	add("E20_SharedFetch/private-1000x50", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pollFleet(e20priv)
		}
	})
	e20shared, _ := e20Fleet(1000, 50, fetchcache.New(100, time.Hour))
	pollFleet(e20shared)
	add("E20_SharedFetch/shared-1000x50", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pollFleet(e20shared)
		}
	})

	// Batched fleet extraction (E21): one poll round of 100 wrappers
	// over one shared, churning page.
	e21priv := e21Round(100, false)
	add("E21_BatchedFleet/per-wrapper-100x1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e21priv()
		}
	})
	e21batch := e21Round(100, true)
	add("E21_BatchedFleet/batched-100x1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e21batch()
		}
	})

	// Encode-once delivery plane (E22/E23): the tick-commit cost with a
	// watch-subscriber fleet attached, and parallel read throughput of
	// the lock-free snapshot path vs a global-mutex baseline.
	e22p := newChurnPipe("hot22", 50)
	e22s := server.New(server.Config{WatchQueue: 16})
	if err := e22s.Register(e22p, time.Hour); err != nil {
		return err
	}
	e22h := e22s.Handler()
	deliverTick(e22p, e22h)
	add("E22_WatchFanout/poll-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			xmlenc.MarshalIndentBytes(e22p.out.Latest())
		}
	})
	add("E22_WatchFanout/changed-tick-0-watchers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			deliverTick(e22p, e22h)
		}
	})
	e22ts := httptest.NewServer(e22h)
	e22st := openWatchers(e22ts.URL, "hot22", 1000)
	add("E22_WatchFanout/changed-tick-1000-watchers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base := e22st.received.Load()
			deliverTick(e22p, e22h)
			// Drain the asynchronous SSE writes off the clock so each
			// iteration measures only the synchronous tick path.
			b.StopTimer()
			deadline := time.Now().Add(30 * time.Second)
			for e22st.received.Load() < base+1000 && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
			b.StartTimer()
		}
	})
	e22st.close()
	e22ts.Close()

	e23p := newChurnPipe("hot23", 50)
	e23mu, e23lf := e23Handlers(e23p)
	add("E23_LockFreeReads/mutexed-baseline", parallelGet(e23mu, "/hot23"))
	add("E23_LockFreeReads/snapshot", parallelGet(e23lf, "/hot23"))

	// Incremental extraction under churn (E24): each round rewrites a
	// contiguous ~5% window of the page; full re-evaluation vs
	// subtree-fingerprint reuse. The -eval pair measures pure evaluation
	// (page generation, parse and warm off the clock); the fleet pair is
	// a whole 100-wrapper poll round over one shared page.
	add("E24_ChurnIncremental/full-eval", e24Eval(false))
	add("E24_ChurnIncremental/incremental-eval", e24Eval(true))
	e24full := e24Round(100, false)
	add("E24_ChurnIncremental/fleet-full-100x1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e24full()
		}
	})
	e24inc := e24Round(100, true)
	add("E24_ChurnIncremental/fleet-incremental-100x1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e24inc()
		}
	})

	// Durable delivery (E25): the acknowledged publish path — one
	// changed tick plus the read that publishes it — in-memory vs
	// WAL-backed (batched fsync vs fsync-per-append: with a store
	// attached the snapshot is not served until the journal is drained
	// to the log), and the end-to-end webhook fan-out of one delivery
	// to 8 endpoints.
	for _, m := range []struct {
		key     string
		durable bool
		mode    resultlog.FsyncMode
	}{
		{"publish-mem", false, 0},
		{"publish-wal-batch", true, resultlog.FsyncBatch},
		{"publish-wal-always", true, resultlog.FsyncAlways},
	} {
		p, h, cleanup := e25Pipe("hot25", m.durable, m.mode)
		deliverTick(p, h)
		add("E25_DurableDelivery/"+m.key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				deliverTick(p, h)
			}
		})
		cleanup()
	}
	// End-to-end incremental tick (E26): one long-lived wrapper over
	// the E24 churn workload; each iteration is one Poll plus the
	// encode of its document, with the page bump and parse off the
	// clock. full-tick re-evaluates, rebuilds the output tree and
	// re-encodes from scratch; incremental-tick diffs the instance
	// base, splices reused frozen output subtrees and re-encodes only
	// dirty byte ranges.
	for _, m := range []struct {
		key string
		inc bool
	}{
		{"full-tick", false},
		{"incremental-tick", true},
	} {
		adv, tick := e26Tick(m.inc)
		add("E26_ChurnEndToEnd/"+m.key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				adv()
				b.StartTimer()
				tick()
			}
		})
	}

	e25fan, e25fanClean := e25Fanout(8)
	add("E25_DurableDelivery/webhook-fanout-8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e25fan()
		}
	})
	e25fanClean()

	prog, qpred, err := xpath.TranslateCore(xq)
	if err != nil {
		return err
	}
	add("E12_XPathViaTMNF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mdatalog.Query(prog, xtr, qpred); err != nil {
				b.Fatal(err)
			}
		}
	})

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// timeIt returns the median wall time of several runs of f.
func timeIt(f func()) time.Duration {
	d, _ := timeItN(f)
	return d
}

// timeItN is timeIt, additionally reporting how many times f ran (for
// callers that meter side effects per run).
func timeItN(f func()) (time.Duration, int) {
	runs := 5
	if *quick {
		runs = 3
	}
	var ds []time.Duration
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], runs
}

func header(id, title, claim string) {
	fmt.Printf("\n== %s: %s ==\n   paper: %s\n", id, title, claim)
}

func e2MonadicLinear() {
	header("E2", "monadic datalog over trees (Theorem 2.4)",
		"combined complexity O(|P|*|dom|): time per node constant as the tree grows")
	p := mdatalog.ItalicProgram()
	fmt.Printf("   %10s %12s %14s\n", "|dom|", "median", "ns/node")
	for _, size := range []int{2000, 4000, 8000, 16000, 32000} {
		tr := dom.RandomTree(rand.New(rand.NewSource(2)), size, []string{"a", "i", "b"}, 6)
		d := timeIt(func() {
			if _, err := mdatalog.Eval(p, tr); err != nil {
				panic(err)
			}
		})
		fmt.Printf("   %10d %12s %14.1f\n", size, d.Round(time.Microsecond), float64(d.Nanoseconds())/float64(size))
	}
	fmt.Printf("   %10s %12s %14s\n", "|P| rules", "median", "ns/rule")
	tr := dom.RandomTree(rand.New(rand.NewSource(2)), 4000, []string{"a", "b", "c"}, 6)
	for _, n := range []int{8, 16, 32, 64, 128} {
		prog := mdatalog.RandomProgram(rand.New(rand.NewSource(1)), 4, n, []string{"a", "b", "c"})
		d := timeIt(func() {
			if _, err := mdatalog.Eval(prog, tr); err != nil {
				panic(err)
			}
		})
		fmt.Printf("   %10d %12s %14.1f\n", n, d.Round(time.Microsecond), float64(d.Nanoseconds())/float64(n))
	}
}

func e3GenericVsTree() {
	header("E3", "tree-specialized vs generic datalog engine (Prop 2.3 vs Thm 2.4)",
		"the generic engine is polynomial but super-linear; the tree engine linear")
	p := mdatalog.ItalicProgram()
	fmt.Printf("   %10s %14s %14s %8s\n", "|dom|", "tree-engine", "generic", "ratio")
	for _, size := range []int{500, 1000, 2000, 4000} {
		tr := dom.RandomTree(rand.New(rand.NewSource(3)), size, []string{"a", "i"}, 5)
		dt := timeIt(func() { mustEval(p, tr) })
		dg := timeIt(func() {
			if _, err := mdatalog.EvalGeneric(p, tr); err != nil {
				panic(err)
			}
		})
		fmt.Printf("   %10d %14s %14s %8.1fx\n", size, dt.Round(time.Microsecond), dg.Round(time.Microsecond), float64(dg)/float64(dt))
	}
}

func mustEval(p *datalog.Program, tr *dom.Tree) {
	if _, err := mdatalog.Eval(p, tr); err != nil {
		panic(err)
	}
}

func e7VisualClicks() {
	header("E7", "visual wrapper specification (Figures 3/4)",
		"a full wrapper from a handful of gestures; 100% accuracy on held-out pages")
	sim := web.New()
	site := web.NewBookSite(21, 12)
	site.Register(sim, "books.example.com")
	doc, err := sim.Fetch("books.example.com/bestsellers.html")
	if err != nil {
		panic(err)
	}
	s := visual.NewSession(doc, "books.example.com/bestsellers.html")
	check(s.AddDocumentPattern("page"))
	for _, col := range []struct{ name, class, example string }{
		{"title", "title", site.Books[0].Title},
		{"author", "author", site.Books[0].Author},
		{"price", "price", site.Books[0].Price},
	} {
		r, _ := s.FindText(col.example)
		_, err := s.AddPattern(col.name, "page", r)
		check(err)
		check(s.GeneralizePath(col.name, 2))
		check(s.RequireAttribute(col.name, "class", col.class, "exact"))
	}
	counts, err := s.Test()
	check(err)
	fmt.Printf("   interactions: %d for a 3-field wrapper\n", s.Interactions)
	fmt.Printf("   example-page instances: title=%d author=%d price=%d (12 books)\n",
		counts["title"], counts["author"], counts["price"])
	held := web.New()
	site2 := web.NewBookSite(99, 30)
	site2.Register(held, "books.example.com")
	base, err := elog.NewEvaluator(held).Run(s.Program())
	check(err)
	correct := 0
	for i, in := range base.Instances("title") {
		if i < len(site2.Books) && strings.TrimSpace(in.TextContent()) == site2.Books[i].Title {
			correct++
		}
	}
	fmt.Printf("   held-out page (30 books): %d/%d titles correct (recall %.2f)\n",
		correct, len(site2.Books), float64(correct)/float64(len(site2.Books)))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

const ebayFigure5 = `
tableseq(S, X) <- document("www.ebay.com/", S),
    subsq(S, (.body, []), (.table, []), (.table, []), X),
    before(S, X, (.table, [(elementtext, item, substr)]), 0, 0, _, _),
    after(S, X, .hr, 0, 0, _, _)
record(S, X) <- tableseq(_, S), subelem(S, .table, X)
itemdes(S, X) <- record(_, S), subelem(S, (?.td.?.a, []), X)
price(S, X) <- record(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
bids(S, X) <- record(_, S), subelem(S, ?.td, X), before(S, X, ?.td, 0, 30, Y, _), price(_, Y)
currency(S, X) <- price(_, S), subtext(S, \var[Y], X), isCurrency(Y)
`

func e8EbayAccuracy() {
	header("E8", "the eBay wrapper of Figure 5",
		"robust extraction of records/descriptions/prices/bids/currencies")
	prog := elog.MustParse(ebayFigure5)
	fmt.Printf("   %8s %7s %9s %7s %6s %9s %10s\n", "items", "noise", "records", "descr", "price", "bids", "recall")
	for _, tc := range []struct {
		n     int
		noise bool
	}{{10, false}, {50, false}, {50, true}, {200, true}} {
		site := web.NewAuctionSite(8, tc.n)
		site.PageSize = tc.n
		site.Noise = tc.noise
		sim := web.New()
		site.Register(sim, "www.ebay.com")
		base, err := elog.NewEvaluator(sim).Run(prog)
		check(err)
		rec := len(base.Instances("record"))
		des := len(base.Instances("itemdes"))
		pr := len(base.Instances("price"))
		bd := len(base.Instances("bids"))
		correct := 0
		for i, in := range base.Instances("itemdes") {
			if i < len(site.Items) && strings.TrimSpace(in.TextContent()) == site.Items[i].Description {
				correct++
			}
		}
		fmt.Printf("   %8d %7v %9d %7d %6d %9d %9.2f\n", tc.n, tc.noise, rec, des, pr, bd, float64(correct)/float64(tc.n))
	}
}

func e9CoreXPathLinear() {
	header("E9", "Core XPath linear evaluation (Section 4 / Figure 6 P row)",
		"O(|D|*|Q|) combined complexity: ns/node roughly constant")
	q := xpath.MustParse("//div[span and not(b)]//span")
	fmt.Printf("   %10s %12s %12s\n", "|D|", "median", "ns/node")
	for _, depth := range []int{100, 200, 400, 800} {
		tr := deepDivs(depth)
		d := timeIt(func() {
			if _, err := xpath.EvalCore(q, tr, nil); err != nil {
				panic(err)
			}
		})
		fmt.Printf("   %10d %12s %12.1f\n", tr.Size(), d.Round(time.Microsecond), float64(d.Nanoseconds())/float64(tr.Size()))
	}
}

func deepDivs(depth int) *dom.Tree {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := 0; i < depth; i++ {
		b.WriteString("<div><span>x</span>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</div>")
	}
	b.WriteString("</body></html>")
	return htmlparse.Parse(b.String())
}

func e10NaiveVsPolynomial() {
	header("E10", "XPath is PTIME (Theorem 4.1 / [15])",
		"pre-2002 naive engines take time exponential in |Q|; set-based evaluation stays flat")
	tr := deepDivs(14)
	fmt.Printf("   %6s %16s %12s %12s\n", "steps", "naive", "linear", "cvt")
	for _, k := range []int{2, 3, 4, 5} {
		q := doubleSlash(k)
		dn := timeIt(func() {
			if _, err := xpath.EvalNaive(q, tr, nil); err != nil {
				panic(err)
			}
		})
		dl := timeIt(func() {
			if _, err := xpath.EvalCore(q, tr, nil); err != nil {
				panic(err)
			}
		})
		dc := timeIt(func() {
			if _, err := xpath.EvalFull(q, tr, nil); err != nil {
				panic(err)
			}
		})
		fmt.Printf("   %6d %16s %12s %12s\n", k, dn.Round(time.Microsecond), dl.Round(time.Microsecond), dc.Round(time.Microsecond))
	}
}

func doubleSlash(k int) *xpath.Path {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = "div"
	}
	return xpath.MustParse("//" + strings.Join(parts, "//"))
}

func e11Dichotomy() {
	header("E11", "CQ-over-trees dichotomy (Section 4 / [18])",
		"axis sets within a maximal poly class evaluate in PTIME; Child+Child* mixes blow up in |Q|")
	tr := dom.RandomTree(rand.New(rand.NewSource(11)), 250, []string{"a"}, 2)
	fmt.Printf("   %6s %16s %14s\n", "|Q|", "np-hard side", "poly side")
	for _, k := range []int{2, 4, 6, 8} {
		hard := hardQuery(k)
		easy := easyQuery(k)
		dh := timeIt(func() {
			if _, err := cq.EvalGeneric(hard, tr); err != nil {
				panic(err)
			}
		})
		de := timeIt(func() {
			if _, err := cq.EvalAcyclic(easy, tr); err != nil {
				panic(err)
			}
		})
		fmt.Printf("   %6d %16s %14s\n", k, dh.Round(time.Microsecond), de.Round(time.Microsecond))
	}
}

func hardQuery(k int) *cq.Query {
	q := &cq.Query{NumVars: k + 1, Free: -1}
	for i := 0; i < k; i++ {
		ax := cq.Child
		if i%2 == 1 {
			ax = cq.ChildPlus
		}
		q.Edges = append(q.Edges, cq.EdgeAtom{Axis: ax, X: cq.Var(i), Y: cq.Var(i + 1)})
		q.Labels = append(q.Labels, cq.LabelAtom{X: cq.Var(i), Label: "a"})
	}
	q.Labels = append(q.Labels, cq.LabelAtom{X: cq.Var(k), Label: "zz"})
	return q
}

func easyQuery(k int) *cq.Query {
	q := &cq.Query{NumVars: k + 1, Free: 0}
	for i := 0; i < k; i++ {
		ax := cq.Child
		if i%2 == 1 {
			ax = cq.NextSiblingStar
		}
		q.Edges = append(q.Edges, cq.EdgeAtom{Axis: ax, X: cq.Var(i), Y: cq.Var(i + 1)})
	}
	return q
}

// ebayFetcher parses one generated n-item eBay listing into a fixed
// in-memory fetcher, so the measured work is extraction alone.
func ebayFetcher(n int) (elog.MapFetcher, error) {
	site := web.NewAuctionSite(8, n)
	site.PageSize = n
	sim := web.New()
	site.Register(sim, "www.ebay.com")
	page, err := sim.Fetch("www.ebay.com/")
	if err != nil {
		return nil, err
	}
	return elog.MapFetcher{"www.ebay.com/": page}, nil
}

func e18ElogCompiled() {
	header("E18", "compiled Elog wrappers on the bitset kernel (PR 3)",
		"compiled execution beats the interpreter; repeated extraction of an unchanged page is >=2x faster again")
	prog := elog.MustParse(ebayFigure5)
	fmt.Printf("   %8s %14s %14s %14s %10s %10s\n",
		"items", "interpreted", "compiled-cold", "compiled-hot", "vs-interp", "hot-vs-cold")
	for _, n := range []int{25, 50, 100} {
		fetch, err := ebayFetcher(n)
		check(err)
		di := timeIt(func() {
			if _, err := elog.NewEvaluator(fetch).Run(prog); err != nil {
				panic(err)
			}
		})
		dc := timeIt(func() {
			if _, err := elog.NewEvaluator(fetch).RunCompiled(elog.MustCompile(prog)); err != nil {
				panic(err)
			}
		})
		cp := elog.MustCompile(prog)
		if _, err := elog.NewEvaluator(fetch).RunCompiled(cp); err != nil { // warm
			panic(err)
		}
		dh := timeIt(func() {
			if _, err := elog.NewEvaluator(fetch).RunCompiled(cp); err != nil {
				panic(err)
			}
		})
		fmt.Printf("   %8d %14s %14s %14s %9.1fx %9.1fx\n",
			n, di.Round(time.Microsecond), dc.Round(time.Microsecond), dh.Round(time.Microsecond),
			float64(di)/float64(dh), float64(dc)/float64(dh))
	}
}

// v1Server spins up the HTTP front end with dynamic registration
// enabled (no rate limit: we are the load).
func v1Server() *httptest.Server {
	s := server.New(server.Config{AllowDynamic: true, MaxCompilesPerMinute: -1})
	return httptest.NewServer(s.Handler())
}

// v1Post issues one JSON POST and fails hard on a non-2xx status.
func v1Post(url string, body map[string]any) {
	data, err := json.Marshal(body)
	check(err)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	check(err)
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		panic(fmt.Sprintf("POST %s: %d %s", url, resp.StatusCode, out))
	}
}

func v1Delete(url string) {
	req, err := http.NewRequest("DELETE", url, nil)
	check(err)
	resp, err := http.DefaultClient.Do(req)
	check(err)
	resp.Body.Close()
}

// e19Page returns the generated n-item auction listing as raw HTML, the
// inline page POSTed alongside dynamic wrappers.
func e19Page(n int) string {
	site := web.NewAuctionSite(8, n)
	site.PageSize = n
	sim := web.New()
	site.Register(sim, "www.ebay.com")
	src, err := sim.Source("www.ebay.com/")
	check(err)
	return src
}

// e19Cold measures one full POST /v1/wrappers round trip — compile,
// register, synchronous first extraction — followed by DELETE.
func e19Cold(ts *httptest.Server, page string, i int) {
	name := fmt.Sprintf("cold%d", i)
	v1Post(ts.URL+"/v1/wrappers", map[string]any{
		"name": name, "program": ebayFigure5, "html": page,
		"auxiliary": []string{"tableseq"},
	})
	v1Delete(ts.URL + "/v1/wrappers/" + name)
}

func e19DynamicRegister() {
	header("E19", "dynamic wrapper registration over /v1 (PR 4)",
		"compile+register+first-extract as one POST; warm fingerprint caches make repeat extraction cheap")
	page := e19Page(50)
	ts := v1Server()
	defer ts.Close()

	i := 0
	cold := timeIt(func() { e19Cold(ts, page, i); i++ })

	// Warm: one registered wrapper, repeated one-shot extraction of its
	// unchanged registered page (empty body = Origin source) — the page
	// tree is already parsed and its fingerprint already sits in the
	// compiled match caches, so extraction skips the tree walks.
	v1Post(ts.URL+"/v1/wrappers", map[string]any{
		"name": "warm", "program": ebayFigure5, "html": page,
		"auxiliary": []string{"tableseq"},
	})
	extract := func() { v1Post(ts.URL+"/v1/wrappers/warm/extract", map[string]any{}) }
	extract() // prime the fingerprint cache
	warm := timeIt(extract)

	fmt.Printf("   %-34s %12s\n", "cold: POST wrappers (50 items)", cold.Round(time.Microsecond))
	fmt.Printf("   %-34s %12s\n", "warm: POST extract, cached page", warm.Round(time.Microsecond))
	fmt.Printf("   cold/warm: %.1fx\n", float64(cold)/float64(warm))
}

// nopPipe is an inert pipeline for counting scheduler goroutines.
type nopPipe struct {
	name string
	out  *transform.Collector
}

func (p *nopPipe) PipeName() string             { return p.name }
func (p *nopPipe) Tick() error                  { return nil }
func (p *nopPipe) Output() *transform.Collector { return p.out }

// goroutinesWithPipelines runs a server with n registered pipelines and
// reports the process goroutine count at steady state.
func goroutinesWithPipelines(n int) int {
	s := server.New(server.Config{Addr: "127.0.0.1:0"})
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		if err := s.Register(&nopPipe{name: name, out: &transform.Collector{CompName: name}}, time.Hour); err != nil {
			panic(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	<-s.Ready()
	time.Sleep(30 * time.Millisecond) // let the immediate first ticks drain
	g := runtime.NumGoroutine()
	cancel()
	<-done
	return g
}

// e20Fleet builds the 1000-wrapper/50-page fleet of E20; cache nil
// means per-wrapper fetching.
func e20Fleet(nWrappers, nPages int, cache *fetchcache.Cache) ([]*transform.WrapperSource, *web.Web) {
	sim := web.New()
	for p := 0; p < nPages; p++ {
		sim.SetStatic(fmt.Sprintf("fleet.example.com/p%d", p),
			fmt.Sprintf(`<html><body><table><tr><td class="t">item %d</td></tr><tr><td class="t">more %d</td></tr></table></body></html>`, p, p))
	}
	srcs := make([]*transform.WrapperSource, nWrappers)
	for i := range srcs {
		srcs[i] = &transform.WrapperSource{
			CompName: fmt.Sprintf("w%d", i),
			Fetcher:  sim,
			Program: elog.MustParse(fmt.Sprintf(
				`it(S, X) <- document("fleet.example.com/p%d", S), subelem(S, (?.td, [(class, t, exact)]), X)`, i%nPages)),
			Design: &pib.Design{Auxiliary: map[string]bool{"document": true}},
			Shared: cache,
		}
	}
	return srcs, sim
}

func pollFleet(srcs []*transform.WrapperSource) {
	for _, s := range srcs {
		if _, err := s.Poll(); err != nil {
			panic(err)
		}
	}
}

func e20SharedFetch() {
	header("E20", "sharded scheduler + shared fetch layer (PR 5)",
		"O(shards+workers) goroutines for any fleet size; overlapping wrappers share one fetch+parse per page")
	fmt.Printf("   %10s %12s\n", "wrappers", "goroutines")
	for _, n := range []int{10, 100, 1000} {
		fmt.Printf("   %10d %12d\n", n, goroutinesWithPipelines(n))
	}

	const nWrappers, nPages = 1000, 50
	fetches := func(sim *web.Web) int {
		total := 0
		for p := 0; p < nPages; p++ {
			total += sim.FetchCount(fmt.Sprintf("fleet.example.com/p%d", p))
		}
		return total
	}
	priv, privSim := e20Fleet(nWrappers, nPages, nil)
	pollFleet(priv) // warm: compile + first poll
	before := fetches(privSim)
	dPriv, rounds := timeItN(func() { pollFleet(priv) })
	privPerRound := (fetches(privSim) - before) / rounds

	shared, sharedSim := e20Fleet(nWrappers, nPages, fetchcache.New(nPages*2, time.Hour))
	pollFleet(shared)
	before = fetches(sharedSim)
	dShared, _ := timeItN(func() { pollFleet(shared) })
	sharedPerRound := (fetches(sharedSim) - before) / rounds

	fmt.Printf("   fleet poll round (%d wrappers / %d shared pages):\n", nWrappers, nPages)
	fmt.Printf("   %-28s %12s %18s\n", "", "median", "fetches/round")
	fmt.Printf("   %-28s %12s %18d\n", "per-wrapper fetching", dPriv.Round(time.Microsecond), privPerRound)
	fmt.Printf("   %-28s %12s %18d\n", "shared fetch layer", dShared.Round(time.Microsecond), sharedPerRound)
	fmt.Printf("   private/shared: %.1fx\n", float64(dPriv)/float64(dShared))
}

// e21Round builds the E21 fleet — 100 wrappers stamped from one
// template, all monitoring the same match-heavy page whose content
// churns every round — and returns one full poll round as a closure.
// Batched fleets share one fetch/document cache and one fleet-shared
// match cache; per-wrapper fleets fetch, parse and match privately.
func e21Round(nWrappers int, batched bool) func() {
	const url = "fleet.example.com/board"
	round := 0
	page := func() string {
		var sb strings.Builder
		sb.WriteString("<html><body><table>")
		for r := 0; r < 400; r++ {
			tag := ""
			if r%50 == 0 {
				tag = "DEAL "
			}
			fmt.Fprintf(&sb, `<tr class="row"><td class="name">%sitem %d (round %d)</td><td class="price">$ %d</td></tr>`, tag, r, round, r*3+round)
		}
		sb.WriteString("</table></body></html>")
		return sb.String()
	}
	prog := fmt.Sprintf(`
page(S, X) <- document(%q, S), subelem(S, .body, X)
row(S, X) <- page(_, S), subelem(S, (?.tr, [(elementtext, .*DEAL.*, regexp)]), X)
name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X) <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, url)
	sim := web.New()
	sim.SetPage(url, page)
	var mc *elog.MatchCache
	var cache *fetchcache.Cache
	if batched {
		mc = elog.NewMatchCache()
		cache = fetchcache.New(4, time.Hour)
	}
	design := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true}}
	srcs := make([]*transform.WrapperSource, nWrappers)
	for i := range srcs {
		srcs[i] = &transform.WrapperSource{
			CompName: fmt.Sprintf("w%d", i),
			Fetcher:  sim,
			Program:  elog.MustParse(prog),
			Design:   design,
			Shared:   cache,
			Batch:    mc,
		}
	}
	pollRound := func() {
		round++
		if cache != nil {
			cache.Flush() // one freshness window per round
		}
		pollFleet(srcs)
	}
	pollRound() // warm: compile every program
	return pollRound
}

func e21BatchedFleet() {
	header("E21", "batched fleet extraction (PR 6)",
		"100 wrappers on one shared, churning page: ~1 parse + 1 warmed match cache per round")
	const nWrappers = 100
	perWrapper := e21Round(nWrappers, false)
	dPriv := timeIt(perWrapper)
	batched := e21Round(nWrappers, true)
	dBatch := timeIt(batched)
	fmt.Printf("   fleet poll round (%d wrappers / 1 churning page):\n", nWrappers)
	fmt.Printf("   %-28s %12s\n", "", "median")
	fmt.Printf("   %-28s %12s\n", "per-wrapper extraction", dPriv.Round(time.Microsecond))
	fmt.Printf("   %-28s %12s\n", "batched extraction", dBatch.Round(time.Microsecond))
	fmt.Printf("   per-wrapper/batched: %.1fx\n", float64(dPriv)/float64(dBatch))
}

// e24Setup builds the E24 churn workload: a catalogue page of 60
// sections x 40 rows (~12k nodes) where each round rewrites one
// contiguous window of 3 sections (5% of the nodes) and leaves the
// rest byte-identical, plus the wrapper extracting it. The expensive
// step is the SALE-row filter: an elementtext regexp that walks every
// candidate row's subtree — exactly the work subtree-fingerprint reuse
// skips for clean sections. Page content is a pure function of the
// accumulated per-section versions, so churn is reproducible.
func e24Setup() (page func() string, bump func(), prog, url string) {
	url = "churn.example.com/catalogue"
	const sections, rowsPer, window = 60, 40, 3
	version := make([]int, sections)
	round := 0
	page = func() string {
		var sb strings.Builder
		sb.WriteString("<html><body>")
		for s := 0; s < sections; s++ {
			v := version[s]
			sb.WriteString(`<div class="section"><table>`)
			for r := 0; r < rowsPer; r++ {
				tag := ""
				if r == v%rowsPer {
					tag = "SALE "
				}
				fmt.Fprintf(&sb, `<tr><td class="name">%sitem %d.%d v%d</td><td class="price">$ %d.%02d</td></tr>`,
					tag, s, r, v, 10+(s*7+v*13)%90, (s*31+v*17)%100)
			}
			sb.WriteString("</table></div>")
		}
		sb.WriteString("</body></html>")
		return sb.String()
	}
	bump = func() {
		start := (round * window) % sections
		for i := 0; i < window; i++ {
			version[(start+i)%sections]++
		}
		round++
	}
	prog = fmt.Sprintf(`
page(S, X)    <- document(%q, S), subelem(S, .body, X)
section(S, X) <- page(_, S), subelem(S, (.div, [(class, section, exact)]), X)
row(S, X)     <- section(_, S), subelem(S, (?.tr, [(elementtext, .*SALE.*, regexp)]), X)
name(S, X)    <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
price(S, X)   <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)
`, url)
	return page, bump, prog, url
}

// e24Eval returns a benchmark measuring pure evaluation cost per churn
// round — page generation, parse and warm run off the clock — with one
// compiled program (and so its content-addressed caches) held across
// rounds, as a long-lived wrapper holds it across polls.
func e24Eval(incremental bool) func(b *testing.B) {
	page, bump, prog, url := e24Setup()
	cp := elog.MustCompile(elog.MustParse(prog))
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bump()
			tr := htmlparse.Parse(page())
			tr.Warm()
			fetch := elog.MapFetcher{url: tr}
			b.StartTimer()
			ev := elog.NewEvaluator(fetch)
			ev.Incremental = incremental
			if _, err := ev.RunCompiled(cp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// e24Round builds the E24 fleet — nWrappers wrappers over one shared
// churning page, fetched and parsed once per round through a shared
// fetch cache — and returns one full poll round as a closure. Each
// wrapper keeps its own compiled program across rounds. With
// incremental on, the wrappers are wrapper sources; off, each round is
// the full re-evaluation reference: every wrapper evaluates without
// subtree reuse and transforms from scratch.
func e24Round(nWrappers int, incremental bool) func() {
	page, bump, prog, url := e24Setup()
	sim := web.New()
	sim.SetPage(url, page)
	cache := fetchcache.New(4, time.Hour)
	design := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true, "section": true}}
	var srcs []*transform.WrapperSource
	var cps []*elog.CompiledProgram
	for i := 0; i < nWrappers; i++ {
		if !incremental {
			cps = append(cps, elog.MustCompile(elog.MustParse(prog)))
			continue
		}
		srcs = append(srcs, &transform.WrapperSource{
			CompName: fmt.Sprintf("w%d", i),
			Fetcher:  sim,
			Program:  elog.MustParse(prog),
			Design:   design,
			Shared:   cache,
		})
	}
	fetch := cache.Wrap(sim)
	pollRound := func() {
		bump()
		cache.Flush() // one freshness window per round
		pollFleet(srcs)
		for _, cp := range cps {
			base, err := elog.NewEvaluator(fetch).RunCompiled(cp)
			check(err)
			design.Transform(base)
		}
	}
	pollRound() // warm: compile every program, seed the subtree caches
	return pollRound
}

func e24ChurnIncremental() {
	header("E24", "incremental extraction under churn (PR 8)",
		"100 wrappers, one shared page, ~5% of nodes mutate per round: only dirty regions re-match")
	const nWrappers = 100
	full := e24Round(nWrappers, false)
	dFull := timeIt(full)
	incr := e24Round(nWrappers, true)
	dIncr := timeIt(incr)
	fmt.Printf("   fleet poll round (%d wrappers / 1 churning page, ~5%% dirty):\n", nWrappers)
	fmt.Printf("   %-28s %12s\n", "", "median")
	fmt.Printf("   %-28s %12s\n", "full re-evaluation", dFull.Round(time.Microsecond))
	fmt.Printf("   %-28s %12s\n", "incremental", dIncr.Round(time.Microsecond))
	fmt.Printf("   full/incremental: %.1fx\n", float64(dFull)/float64(dIncr))
}

// e26Tick builds one long-lived wrapper over the E24 churn workload
// and returns (advance, tick): advance rewrites the page and re-parses
// it off the clock; tick runs one evaluate→transform→encode round and
// returns the encoded bytes — the cost a scheduler tick pays per
// wrapper. With incremental on, tick is one wrapper-source Poll plus
// the splice encoder, so all three reuse layers engage:
// subtree-fingerprint match reuse in the evaluator, content-hash
// output-subtree splicing in the transformer, and frozen-subtree byte
// splicing in the encoder. Off, tick is the full-rebuild reference:
// the compiled program is held across ticks, but every tick evaluates
// without subtree reuse, rebuilds the output tree and re-encodes from
// scratch.
func e26Tick(incremental bool) (advance func(), tick func() []byte) {
	page, bump, prog, url := e24Setup()
	design := &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true, "section": true}}
	src := &transform.WrapperSource{CompName: "e26", Program: elog.MustParse(prog), Design: design}
	cp := elog.MustCompile(src.Program)
	enc := xmlenc.NewEncoder()
	advance = func() {
		bump()
		tr := htmlparse.Parse(page())
		tr.Warm()
		src.Fetcher = elog.MapFetcher{url: tr}
	}
	tick = func() []byte {
		if !incremental {
			base, err := elog.NewEvaluator(src.Fetcher).RunCompiled(cp)
			check(err)
			doc := design.Transform(base)
			doc.SetAttr("source", src.CompName)
			return xmlenc.MarshalIndentBytes(doc)
		}
		docs, err := src.Poll()
		check(err)
		return enc.MarshalIndentBytes(docs[0])
	}
	advance()
	tick() // warm: compile, seed the match/output/encoder caches
	return advance, tick
}

// e26Median measures the median on-clock tick over several churn
// rounds, advancing the page off the clock before each one.
func e26Median(advance func(), tick func() []byte) time.Duration {
	runs := 7
	if *quick {
		runs = 3
	}
	var ds []time.Duration
	for i := 0; i < runs; i++ {
		advance()
		t0 := time.Now()
		tick()
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func e26ChurnEndToEnd() {
	header("E26", "end-to-end incremental tick (PR 10)",
		"instance diffing + output-subtree reuse + splice encoding: tick cost tracks the dirty region, bytes identical")
	fullAdv, fullTick := e26Tick(false)
	incAdv, incTick := e26Tick(true)
	// Both paths must render every churned version byte-identically —
	// the reused bytes are indistinguishable from a full rebuild.
	for i := 0; i < 3; i++ {
		fullAdv()
		incAdv()
		if !bytes.Equal(fullTick(), incTick()) {
			panic("E26: incremental tick diverges from full rebuild")
		}
	}
	dFull := e26Median(fullAdv, fullTick)
	dIncr := e26Median(incAdv, incTick)
	fmt.Printf("   one wrapper, ~5%% of the page dirty per tick (poll + encode, parse off-clock):\n")
	fmt.Printf("   %-28s %12s\n", "", "median")
	fmt.Printf("   %-28s %12s\n", "full rebuild tick", dFull.Round(time.Microsecond))
	fmt.Printf("   %-28s %12s\n", "incremental tick", dIncr.Round(time.Microsecond))
	fmt.Printf("   full/incremental: %.1fx\n", float64(dFull)/float64(dIncr))
}

func e12TranslationSizes() {
	header("E12", "Core XPath -> TMNF translation (Theorem 4.6)",
		"linear-time translation, program size linear in |Q|, same answers")
	fmt.Printf("   %6s %8s %10s %12s\n", "|Q|", "rules", "|P'|", "translate")
	for _, k := range []int{2, 4, 8, 16} {
		q := doubleSlash(k)
		var prog *datalog.Program
		d := timeIt(func() {
			var err error
			prog, _, err = xpath.TranslateCore(q)
			check(err)
		})
		fmt.Printf("   %6d %8d %10d %12s\n", q.Size(), len(prog.Rules), prog.Size(), d.Round(time.Microsecond))
	}
}

// ---------------------------------------------------------------------
// E22/E23: the encode-once delivery plane (PR 7).

// churnPipe is a server pipeline whose every tick delivers a fresh
// rows-row document: every tick is a changed tick, so no fingerprint
// or byte-identity suppression short-circuits the publish.
type churnPipe struct {
	name string
	out  *transform.Collector
	rows int
	n    int
}

func (p *churnPipe) PipeName() string             { return p.name }
func (p *churnPipe) Output() *transform.Collector { return p.out }

func (p *churnPipe) Tick() error {
	p.n++
	doc := xmlenc.NewElement("doc")
	doc.SetAttr("n", strconv.Itoa(p.n))
	for i := 0; i < p.rows; i++ {
		doc.AppendTextElement("row", fmt.Sprintf("item %d of tick %d", i, p.n))
	}
	_, err := p.out.Process("", doc)
	return err
}

func newChurnPipe(name string, rows int) *churnPipe {
	return &churnPipe{name: name, out: &transform.Collector{CompName: name}, rows: rows}
}

// deliverTick advances the pipeline one changed tick and performs one
// in-process read, which publishes the new snapshot (encode once) and
// fans it out to the watch hub — the cost the scheduler pays at
// tick-commit time.
func deliverTick(p *churnPipe, h http.Handler) {
	check(p.Tick())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/"+p.name, nil))
	if rec.Code != 200 {
		panic(fmt.Sprintf("GET /%s: %d", p.name, rec.Code))
	}
}

// watcherStorm is a fleet of live SSE subscriptions counting received
// result events.
type watcherStorm struct {
	received atomic.Int64
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

// openWatchers subscribes n SSE watchers and returns once every one has
// received the initial state event (i.e. all subscriptions are live).
func openWatchers(base, name string, n int) *watcherStorm {
	ctx, cancel := context.WithCancel(context.Background())
	st := &watcherStorm{cancel: cancel}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n}}
	var ready sync.WaitGroup
	for i := 0; i < n; i++ {
		ready.Add(1)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			first := true
			done := func() {
				if first {
					first = false
					ready.Done()
				}
			}
			defer done()
			req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/wrappers/"+name+"/watch", nil)
			check(err)
			resp, err := client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			for {
				line, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if strings.HasPrefix(line, "event: result") {
					if first {
						done() // initial state: subscription is live
						continue
					}
					st.received.Add(1)
				}
			}
		}()
	}
	ready.Wait()
	return st
}

func (st *watcherStorm) close() {
	st.cancel()
	st.wg.Wait()
}

// deliveryStats fetches the delivery block from /statusz.
func deliveryStats(base string) server.DeliveryStatus {
	resp, err := http.Get(base + "/statusz")
	check(err)
	defer resp.Body.Close()
	var report struct {
		Delivery server.DeliveryStatus `json:"delivery"`
	}
	check(json.NewDecoder(resp.Body).Decode(&report))
	return report.Delivery
}

func e22WatchFanout() {
	header("E22", "encode-once watch fan-out (PR 7)",
		"a changed tick encodes once and feeds 1000 subscribers for about one poll's encode cost")
	const nWatchers = 1000
	p := newChurnPipe("hot", 50)
	s := server.New(server.Config{WatchQueue: 16})
	check(s.Register(p, time.Hour))
	h := s.Handler()
	deliverTick(p, h)

	encode := timeIt(func() {
		for i := 0; i < 50; i++ {
			xmlenc.MarshalIndentBytes(p.out.Latest())
		}
	}) / 50
	tick0 := timeIt(func() {
		for i := 0; i < 20; i++ {
			deliverTick(p, h)
		}
	}) / 20

	ts := httptest.NewServer(h)
	defer ts.Close()
	st := openWatchers(ts.URL, "hot", nWatchers)

	// The synchronous tick-path cost with the fleet attached: encode
	// once + enqueue to every subscriber queue. Drain the asynchronous
	// SSE writes between runs so one tick's fan-out I/O doesn't steal
	// CPU from the next measurement.
	drain := func(from int64) {
		deadline := time.Now().Add(30 * time.Second)
		for st.received.Load() < from+nWatchers && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	}
	runs := 15
	if *quick {
		runs = 7
	}
	ticks := make([]time.Duration, runs)
	for i := range ticks {
		base := st.received.Load()
		// Let the previous tick's SSE writers park and take the GC hit
		// outside the measured window.
		time.Sleep(2 * time.Millisecond)
		runtime.GC()
		t0 := time.Now()
		deliverTick(p, h)
		ticks[i] = time.Since(t0)
		drain(base)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	tickN := ticks[runs/2]

	// End-to-end: one changed tick, wall time until every subscriber
	// holds the event.
	st.received.Store(0)
	snapsBefore := deliveryStats(ts.URL).Snapshots
	t0 := time.Now()
	deliverTick(p, h)
	for st.received.Load() < nWatchers && time.Since(t0) < 30*time.Second {
		time.Sleep(200 * time.Microsecond)
	}
	wall := time.Since(t0)
	got := st.received.Load()
	ds := deliveryStats(ts.URL)
	st.close()

	// The same delivery consumed by polling: 1000 independent
	// conditional GETs (mostly 304 — the steady state of a poll fleet).
	resp, err := http.Get(ts.URL + "/hot")
	check(err)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	pollRound := func() {
		var wg sync.WaitGroup
		for i := 0; i < nWatchers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequest("GET", ts.URL+"/hot", nil)
				check(err)
				req.Header.Set("If-None-Match", etag)
				resp, err := client.Do(req)
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
	}
	pollRound() // warm the connection pool
	poll := timeIt(pollRound)

	fmt.Printf("   %-38s %12s\n", "single poll encode", encode.Round(time.Microsecond))
	fmt.Printf("   %-38s %12s\n", "tick path, 0 watchers", tick0.Round(time.Microsecond))
	fmt.Printf("   %-38s %12s\n", fmt.Sprintf("tick path, %d watchers (enqueue)", nWatchers), tickN.Round(time.Microsecond))
	fmt.Printf("   tick path with %d watchers vs one encode: %.2fx\n", nWatchers, float64(tickN)/float64(encode))
	fmt.Printf("   end-to-end: %d/%d watchers served in %s\n", got, nWatchers, wall.Round(time.Microsecond))
	fmt.Printf("   %-38s %12s\n", fmt.Sprintf("%d conditional pollers (304s)", nWatchers), poll.Round(time.Microsecond))
	fmt.Printf("   delivery: +%d snapshot(s) for the measured tick (encode-once), subscribers_total=%d, dropped_slow=%d\n",
		ds.Snapshots-snapsBefore, ds.SubscribersTotal, ds.DroppedSlow)
}

// e23Handlers returns the PR 6-shaped baseline (one global mutex
// guarding registry lookup + a per-document render cache) and the
// PR 7 delivery-plane handler over the same pipeline.
func e23Handlers(p *churnPipe) (mutexed, lockfree http.Handler) {
	s := server.New(server.Config{})
	check(s.Register(p, time.Hour))
	h := s.Handler()
	deliverTick(p, h)

	var mu sync.Mutex
	pipes := map[string]*transform.Collector{p.name: p.out}
	var cachedDoc *xmlenc.Node
	var cachedXML []byte
	mutexed = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		out := pipes[strings.TrimPrefix(r.URL.Path, "/")]
		doc := out.Latest()
		if doc != cachedDoc {
			cachedDoc, cachedXML = doc, xmlenc.MarshalIndentBytes(doc)
		}
		data := cachedXML
		mu.Unlock()
		w.Header().Set("Content-Type", "application/xml")
		w.Write(data)
	})
	return mutexed, h
}

// parallelGet is a RunParallel benchmark body hammering one path of h
// with in-process requests.
func parallelGet(h http.Handler, path string) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					b.Fatal(rec.Code)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E25: durable delivery (PR 9).

// e25Pipe wires a churn pipeline into a server whose deliveries append
// to a result log under a throwaway directory with the given fsync
// mode; durable=false keeps the delivery plane in-memory. deliverTick
// on the returned handler measures the acknowledged publish path: with
// a store attached the snapshot is not served until the journal is
// drained to the WAL.
func e25Pipe(name string, durable bool, mode resultlog.FsyncMode) (p *churnPipe, h http.Handler, cleanup func()) {
	p = newChurnPipe(name, 50)
	cfg := server.Config{}
	cleanup = func() {}
	if durable {
		dir, err := os.MkdirTemp("", "bench-e25-")
		check(err)
		store, err := resultlog.Open(dir, resultlog.Options{Fsync: mode})
		check(err)
		cfg.ResultStore = store
		cleanup = func() {
			check(store.Close())
			os.RemoveAll(dir)
		}
	}
	s := server.New(cfg)
	check(s.Register(p, time.Hour))
	return p, s.Handler(), cleanup
}

// e25Fanout registers n webhook endpoints on one built-in sink and
// returns a closure that advances one changed tick and blocks until
// every endpoint has acknowledged the new version — the end-to-end push
// latency of the webhook plane (dispatchers run off the tick path).
func e25Fanout(n int) (fanout func(), cleanup func()) {
	p, h, cleanPipe := e25Pipe("hot25hooks", false, 0)
	var acked atomic.Int64
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		acked.Add(1)
	}))
	ts := httptest.NewServer(h)
	deliverTick(p, h) // version 1 exists before the hooks register
	for i := 0; i < n; i++ {
		v1Post(ts.URL+"/v1/wrappers/hot25hooks/webhooks",
			map[string]any{"url": fmt.Sprintf("%s/hook/%d", sink.URL, i)})
	}
	fanout = func() {
		base := acked.Load()
		deliverTick(p, h)
		deadline := time.Now().Add(30 * time.Second)
		for acked.Load() < base+int64(n) && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
	cleanup = func() {
		ts.Close()
		sink.Close()
		cleanPipe()
	}
	fanout() // warm: dispatcher goroutines and connection pools are up
	return fanout, cleanup
}

func e25DurableDelivery() {
	header("E25", "durable delivery: WAL-backed result log + webhooks (PR 9)",
		"batched fsync keeps the acknowledged publish path near in-memory cost; webhook fan-out rides off the tick path")
	fmt.Println("   acknowledged publish (changed tick + the read that publishes it):")
	fmt.Printf("   %-28s %12s %8s\n", "", "median", "vs-mem")
	var mem time.Duration
	var batchRatio float64
	for _, m := range []struct {
		label   string
		durable bool
		mode    resultlog.FsyncMode
	}{
		{"in-memory (no WAL)", false, 0},
		{"wal, batched fsync", true, resultlog.FsyncBatch},
		{"wal, fsync per append", true, resultlog.FsyncAlways},
	} {
		p, h, cleanup := e25Pipe("hot25", m.durable, m.mode)
		deliverTick(p, h) // warm
		d := timeIt(func() {
			for i := 0; i < 20; i++ {
				deliverTick(p, h)
			}
		}) / 20
		cleanup()
		if mem == 0 {
			mem = d
		}
		ratio := float64(d) / float64(mem)
		if m.mode == resultlog.FsyncBatch && m.durable {
			batchRatio = ratio
		}
		fmt.Printf("   %-28s %12s %7.2fx\n", m.label, d.Round(time.Microsecond), ratio)
	}
	fmt.Printf("   wal-batch vs in-memory: %.2fx (acceptance: <= 1.5x)\n", batchRatio)

	const nHooks = 8
	fanout, cleanup := e25Fanout(nHooks)
	d := timeIt(fanout)
	cleanup()
	fmt.Printf("   webhook fan-out: 1 delivery -> %d endpoints acked end-to-end in %s\n",
		nHooks, d.Round(time.Microsecond))
}

func e23LockFreeReads() {
	header("E23", "lock-free snapshot reads (PR 7)",
		"read throughput on one hot wrapper: global-mutex baseline vs atomic snapshot loads")
	p := newChurnPipe("hot23", 50)
	mutexed, lockfree := e23Handlers(p)
	rm := testing.Benchmark(parallelGet(mutexed, "/hot23"))
	rl := testing.Benchmark(parallelGet(lockfree, "/hot23"))
	nsM := float64(rm.T.Nanoseconds()) / float64(rm.N)
	nsL := float64(rl.T.Nanoseconds()) / float64(rl.N)
	fmt.Printf("   %-34s %12.0f ns/op\n", "global mutex + render cache", nsM)
	fmt.Printf("   %-34s %12.0f ns/op\n", "lock-free snapshot", nsL)
	fmt.Printf("   mutexed/lock-free: %.1fx at GOMAXPROCS=%d\n", nsM/nsL, runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("   (single proc: the mutex is uncontended here; the gap it protects against")
		fmt.Println("    appears under parallel readers, while the snapshot path also pays for")
		fmt.Println("    ETag/Vary/conditional-GET handling on every request)")
	}
}
