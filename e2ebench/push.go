package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// pushChurn: on-demand dynamic wrappers over catalogue pages served by
// the upstream. Each change rewrites ~5% of one page's rows, then POSTs
// .../extract with the origin source, so every change crosses fetch →
// full parse → warm → incremental eval → diff → incremental transform →
// splice encode → WAL → publish → SSE and webhook.
type pushChurn struct {
	seed   int64
	procs  int
	pages  int     // wrappers, one page each
	secs   int     // sections per page
	rows   int     // rows per section
	rate   float64 // changes per second
	period time.Duration

	// Inputs of the current window, from prepare.
	n     int
	page  []int    // change k → page
	rev   []int    // change k → the page revision it creates
	html  [][]byte // change k → the page at that revision
	byRev map[[2]int]int64

	// Per-setup state.
	chains    []*chain
	touched   []time.Time // last time anything fetched each page
	touchedMu sync.Mutex

	start    time.Time // the window's first due time
	interval time.Duration
}

func newPushChurn(seed int64, procs int) *pushChurn {
	w := &pushChurn{seed: seed, procs: procs, pages: 8, secs: 40, rows: 25, rate: 5}
	// Each page changes every pages/rate seconds, which must exceed the
	// shared cache's TTL so every change is fetched fresh.
	w.period = time.Duration(float64(w.pages) / w.rate * float64(time.Second))
	return w
}

func (w *pushChurn) name() string  { return "push_churn" }
func (w *pushChurn) probes() int   { return w.procs }
func (w *pushChurn) persist() bool { return true }
func (w *pushChurn) describe() string {
	return fmt.Sprintf("%d on-demand wrappers over %d catalogue pages of %dx%d rows, %.0f changes/s open loop (each page every %s), "+
		"~5%% rows rewritten per change, HMAC webhooks on every wrapper, SSE probes on %d; WAL fsync batch; "+
		"shared cache %d pages TTL %s, match cache on, incremental output on",
		w.pages, w.pages, w.secs, w.rows, w.rate, w.period, w.procs, cacheEntries, cacheTTL)
}

func (w *pushChurn) wrapper(i int) string { return "w" + strconv.Itoa(i) }
func (w *pushChurn) key(i int) string     { return "cat/" + strconv.Itoa(i) }

func (w *pushChurn) prepare(dur time.Duration) {
	w.n = int(dur.Seconds() * w.rate)
	perm := rng(w.seed, 0x9054).Perm(w.pages)
	cur := make([]*catalogue, w.pages)
	for i := range cur {
		cur[i] = newCatalogue(w.seed, i, w.secs, w.rows)
	}
	w.page, w.rev, w.html = make([]int, w.n), make([]int, w.n), make([][]byte, w.n)
	w.byRev = map[[2]int]int64{}
	for k := range w.n {
		i := perm[k%w.pages]
		cur[i].churn()
		w.page[k], w.rev[k], w.html[k] = i, cur[i].rev, []byte(cur[i].html())
		w.byRev[[2]int{i, cur[i].rev}] = int64(k)
	}
}

func (w *pushChurn) touch(i int) {
	w.touchedMu.Lock()
	w.touched[i] = time.Now()
	w.touchedMu.Unlock()
}

func (w *pushChurn) setup(e *env, te *tracedEnv) error {
	w.touched = make([]time.Time, w.pages)
	w.chains = make([]*chain, w.pages)
	for i := range w.pages {
		c := newCatalogue(w.seed, i, w.secs, w.rows)
		e.up.set(c.url(), []byte(c.html()))
		prog := catalogueProgram(c.url(), 0)
		if te == nil {
			if _, err := e.postJSON("/v1/wrappers", map[string]any{"name": w.wrapper(i), "program": prog,
				"root": "catalogue", "auxiliary": []string{"page", "section"}}, http.StatusCreated); err != nil {
				return err
			}
		} else {
			o, err := te.newOutlet(w.wrapper(i))
			if err != nil {
				return err
			}
			ch, err := te.newChain(o, c.url(), c.url(), "", prog, "catalogue", []string{"page", "section"}, modeFor(i))
			if err != nil {
				return err
			}
			if err := e.srv.RegisterDynamic(tickPipe{o, ch}, 0, true); err != nil {
				return err
			}
			w.chains[i] = ch
		}
		w.touch(i)
		if err := e.addWebhook(w.wrapper(i)); err != nil {
			return err
		}
	}
	for i := range w.procs {
		if err := e.addProbe(w.wrapper(i)); err != nil {
			return err
		}
	}
	return nil
}

func (w *pushChurn) run(e *env, p *phase, dur time.Duration) error {
	// Start once every page's cached copy has aged past the TTL by its
	// first change, so no change can be answered from a stale entry.
	interval := time.Duration(float64(time.Second) / w.rate)
	start := time.Now().Add(50 * time.Millisecond)
	firstDue := map[int]time.Duration{}
	for k := w.n - 1; k >= 0; k-- {
		firstDue[w.page[k]] = time.Duration(k) * interval
	}
	for i, t := range w.touched {
		if s := t.Add(cacheTTL + 250*time.Millisecond - firstDue[i]); s.After(start) {
			start = s
		}
	}
	w.start, w.interval = start, interval
	time.Sleep(time.Until(start.Add(-250 * time.Millisecond)))
	if err := p.begin(e); err != nil {
		return err
	}
	p.attempted = w.n
	for k := range w.n {
		p.expects("extract", int64(k))
		p.expects("change_to_webhook", int64(k))
		if w.page[k] < w.procs {
			p.expects("change_to_watch", int64(k))
		}
	}
	body := []byte("{}")
	p.late = stream{
		n:       w.n,
		due:     func(k int) time.Duration { return time.Duration(k) * interval },
		workers: w.procs,
		atDue:   func(k int) { e.up.set(fmt.Sprintf("cat/p%d.html", w.page[k]), w.html[k]) },
		do: func(k int, due time.Time) {
			op := int64(k)
			i := w.page[k]
			var payload []byte
			if p.te != nil {
				xml, err := w.chains[i].step(op, nil)
				if err != nil {
					p.fail(op, "extract: "+err.Error())
					return
				}
				payload = xml
			} else {
				resp, err := e.client.Post(e.base+"/v1/wrappers/"+w.wrapper(i)+"/extract", "application/json", bytes.NewReader(body))
				if err != nil {
					p.fail(op, "transport")
					return
				}
				payload, err = readBody(resp)
				if err != nil || resp.StatusCode != http.StatusOK {
					p.fail(op, "extract status "+strconv.Itoa(resp.StatusCode))
					return
				}
			}
			p.latency("extract", op, ms(time.Since(due)))
			rev := revOf(payload)
			if rev != w.rev[k] {
				p.fail(op, "stale extract")
			}
			p.deliver(delivery{key: w.key(i), rev: rev, hash: payloadHash(payload), op: op}, payload)
		},
	}.run(start)
	// Drain: every change's webhook, and the watched ones' SSE events.
	want := map[string]int{}
	for k := range w.n {
		want[w.wrapper(w.page[k])] = max(want[w.wrapper(w.page[k])], w.rev[k])
	}
	waitFor(10*time.Second, func() bool {
		got := map[string]int{}
		for _, rc := range e.up.hookReceipts() {
			got[rc.wrapper] = max(got[rc.wrapper], rc.rev)
		}
		for _, pr := range e.probes {
			top := -1
			for _, rc := range pr.receipts() {
				top = max(top, rc.rev)
			}
			if top < want[pr.wrapper] {
				return false
			}
		}
		for wr, r := range want {
			if got[wr] < r {
				return false
			}
		}
		return true
	})
	p.ops = w.n
	if err := p.end(e); err != nil {
		return err
	}
	hooks := e.up.hookReceipts()
	w.receipts(p, "change_to_webhook", hooks, true)
	if p.te != nil {
		p.te.receiptSpans("server.webhook", hooks)
	}
	for _, pr := range e.probes {
		rcs := pr.receipts()
		w.receipts(p, "change_to_watch", rcs, false)
		if p.te != nil {
			p.te.receiptSpans("server.fanout", rcs)
		}
	}
	return nil
}

// receipts times each change's first arrival at a subscriber, audits
// the order each wrapper's stream delivered versions in, and queues
// every payload for the oracle.
func (w *pushChurn) receipts(p *phase, metric string, rcs []receipt, signed bool) {
	last := map[string]int{}
	for _, rc := range rcs {
		i, err := strconv.Atoi(strings.TrimPrefix(rc.wrapper, "w"))
		if err != nil {
			p.wrong(-1, "unknown wrapper "+rc.wrapper)
			continue
		}
		op, ok := w.byRev[[2]int{i, rc.rev}]
		if !ok {
			op = -1 // the registration's version
		}
		if signed && !rc.sigOK {
			p.wrong(op, "bad signature")
		}
		if prev, seen := last[rc.wrapper]; seen && rc.rev < prev {
			p.wrong(op, "version out of order")
		}
		last[rc.wrapper] = max(last[rc.wrapper], rc.rev)
		if ok {
			due := w.start.Add(time.Duration(op) * w.interval)
			p.latency(metric, op, ms(rc.at.Sub(due)))
		}
		p.deliver(delivery{key: w.key(i), rev: rc.rev, hash: rc.hash, op: op}, nil)
	}
}

func (w *pushChurn) oracle(key string, revs []int) (map[int][]byte, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(key, "cat/"))
	if err != nil {
		return nil, err
	}
	return catalogueOracle(newCatalogue(w.seed, i, w.secs, w.rows), 0, revs)
}

// catalogueOracle rebuilds a catalogue wrapper's output at each of the
// sorted revs, replaying the page's churn forward once.
func catalogueOracle(c *catalogue, template int, revs []int) (map[int][]byte, error) {
	out := make(map[int][]byte, len(revs))
	prog := catalogueProgram(c.url(), template)
	for _, r := range revs {
		for c.rev < r {
			c.churn()
		}
		b, err := fullRebuild(prog, "catalogue", []string{"page", "section"}, c.html())
		if err != nil {
			return nil, err
		}
		out[r] = b
	}
	return out, nil
}
