package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fleetRead: a scheduled fleet at the default cadence style — wrappers
// at 1–2 s intervals stamped from a few templates over a handful of
// shared pages, so the shared fetch cache and the match cache batch
// real work. Pages churn slowly. Beside the ticks run an open-loop
// conditional-GET poller (mostly 304s) and a few SSE probes. This is
// the scheduled WrapperSource.Poll path, the sharded scheduler and the
// lock-free read path.
type fleetRead struct {
	seed     int64
	procs    int
	wrappers int
	pages    int
	secs     int
	rows     int
	churn    time.Duration // period between changes of one page
	readRate float64       // conditional GETs per second

	page     []int // wrapper → page
	template []int // wrapper → program template
	interval []time.Duration

	// Inputs of the current window, from prepare.
	changes []fleetChange
	reads   []int // read k → wrapper
	byRev   map[[2]int]int

	mu    sync.Mutex
	etags []string
}

type fleetChange struct {
	at   time.Duration
	page int
	rev  int
	html []byte
}

func newFleetRead(seed int64, procs int) *fleetRead {
	w := &fleetRead{seed: seed, procs: procs, wrappers: 200, pages: 10, secs: 10, rows: 25,
		churn: 4 * time.Second, readRate: 600}
	// The fleet's shape (pages, templates, intervals spread over 1-2 s)
	// is the same for every seed; only the content is drawn from it.
	for i := range w.wrappers {
		w.page = append(w.page, i%w.pages)
		w.template = append(w.template, (i/w.pages)%len(catalogueTemplates))
		w.interval = append(w.interval, time.Second+time.Duration(i*389%1000)*time.Millisecond)
	}
	return w
}

func (w *fleetRead) name() string  { return "fleet_read" }
func (w *fleetRead) probes() int   { return w.procs }
func (w *fleetRead) persist() bool { return false }
func (w *fleetRead) describe() string {
	return fmt.Sprintf("%d scheduled wrappers (intervals 1-2s, %d templates) over %d shared catalogue pages of %dx%d rows, "+
		"each page changing every %s; conditional-GET poller open loop at %.0f/s; SSE probes and webhooks on %d wrappers; "+
		"no WAL; shared cache %d pages TTL %s, match cache on, incremental output on",
		w.wrappers, len(catalogueTemplates), w.pages, w.secs, w.rows, w.churn, w.readRate, w.procs, cacheEntries, cacheTTL)
}

func (w *fleetRead) wrapper(i int) string { return "f" + strconv.Itoa(i) }
func (w *fleetRead) key(i int) string {
	return fmt.Sprintf("cat/%d/%d", w.page[i], w.template[i])
}

func (w *fleetRead) prepare(dur time.Duration) {
	r := rng(w.seed, 0xf1ee8)
	w.changes = w.changes[:0]
	w.byRev = map[[2]int]int{}
	for pg := range w.pages {
		c := newCatalogue(w.seed, pg, w.secs, w.rows)
		// Each page changes once per churn period, the pages staggered
		// evenly across it. A version stays up longer than the slowest
		// wrapper's interval plus the cache TTL, so every version must
		// reach every wrapper over the page.
		for at := w.churn * time.Duration(2*pg+1) / time.Duration(2*w.pages); at < dur; at += w.churn {
			c.churn()
			w.changes = append(w.changes, fleetChange{at: at, page: pg, rev: c.rev, html: []byte(c.html())})
		}
	}
	sort.Slice(w.changes, func(i, j int) bool { return w.changes[i].at < w.changes[j].at })
	for k, ch := range w.changes {
		w.byRev[[2]int{ch.page, ch.rev}] = k
	}
	n := int(dur.Seconds() * w.readRate)
	w.reads = make([]int, n)
	for k := range w.reads {
		w.reads[k] = r.IntN(w.wrappers)
	}
}

func (w *fleetRead) setup(e *env, te *tracedEnv) error {
	for pg := range w.pages {
		c := newCatalogue(w.seed, pg, w.secs, w.rows)
		e.up.set(c.url(), []byte(c.html()))
	}
	for i := range w.wrappers {
		url := fmt.Sprintf("cat/p%d.html", w.page[i])
		prog := catalogueProgram(url, w.template[i])
		if te == nil {
			if _, err := e.postJSON("/v1/wrappers", map[string]any{"name": w.wrapper(i), "program": prog,
				"root": "catalogue", "auxiliary": []string{"page", "section"},
				"interval_ms": w.interval[i].Milliseconds()}, http.StatusCreated); err != nil {
				return err
			}
			continue
		}
		o, err := te.newOutlet(w.wrapper(i))
		if err != nil {
			return err
		}
		// The probed wrappers come first and take the explicit chain.
		c, err := te.newChain(o, url, url, "", prog, "catalogue", []string{"page", "section"}, modeFor(i+2))
		if err != nil {
			return err
		}
		if err := e.srv.RegisterDynamic(tickPipe{o, c}, w.interval[i], false); err != nil {
			return err
		}
	}
	for i := range w.procs {
		if err := e.addWebhook(w.wrapper(i)); err != nil {
			return err
		}
		if err := e.addProbe(w.wrapper(i)); err != nil {
			return err
		}
	}
	// Warm-up: one conditional-GET pass over the fleet, which also
	// gives the poller its validators.
	w.etags = make([]string, w.wrappers)
	for i := range w.wrappers {
		if _, _, err := w.read(e, i); err != nil {
			return fmt.Errorf("warm-up read: %w", err)
		}
	}
	return nil
}

// read performs one conditional GET of wrapper i's latest result. It
// returns the body of a 200 (nil for a 304) and the status.
func (w *fleetRead) read(e *env, i int) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, e.base+"/v1/wrappers/"+w.wrapper(i)+"/results", nil)
	if err != nil {
		return nil, 0, err
	}
	w.mu.Lock()
	if tag := w.etags[i]; tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	w.mu.Unlock()
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil, resp.StatusCode, nil
	case http.StatusOK:
		w.mu.Lock()
		w.etags[i] = resp.Header.Get("ETag")
		w.mu.Unlock()
		return body, resp.StatusCode, nil
	}
	return nil, resp.StatusCode, fmt.Errorf("GET results: status %d", resp.StatusCode)
}

// changeOpBase numbers watched changes apart from reads (0..n-1) in
// one op id space.
const changeOpBase = 1 << 32

func (w *fleetRead) run(e *env, p *phase, dur time.Duration) error {
	interval := time.Duration(float64(time.Second) / w.readRate)
	if err := p.begin(e); err != nil {
		return err
	}
	start := time.Now().Add(20 * time.Millisecond)
	watched := 0
	for k, ch := range w.changes {
		for i := range w.procs {
			if w.page[i] == ch.page {
				p.expects("change_to_watch", changeOpBase+int64(k)*int64(w.procs)+int64(i))
				watched++
			}
		}
	}
	for k := range w.reads {
		p.expects("read", int64(k))
	}
	reads := stream{
		n:       len(w.reads),
		due:     func(k int) time.Duration { return time.Duration(k) * interval },
		workers: w.procs,
		do: func(k int, due time.Time) {
			op := int64(k)
			i := w.reads[k]
			body, code, err := w.read(e, i)
			if err != nil {
				p.fail(op, fmt.Sprintf("read status %d", code))
				return
			}
			p.latency("read", op, ms(time.Since(due)))
			if body != nil {
				p.deliver(delivery{key: w.key(i), rev: revOf(body), hash: payloadHash(body), op: op}, body)
			}
		},
	}
	changes := stream{
		n:     len(w.changes),
		due:   func(k int) time.Duration { return w.changes[k].at },
		atDue: func(k int) { ch := w.changes[k]; e.up.set(fmt.Sprintf("cat/p%d.html", ch.page), ch.html) },
	}
	p.late = runStreams(start, reads, changes)
	// Drain: a change is due at a watched wrapper within its interval
	// plus the cache TTL plus slack.
	deadline := func(i int) time.Duration { return w.interval[i] + cacheTTL + 500*time.Millisecond }
	waitFor(5*time.Second, func() bool {
		for _, pr := range e.probes {
			i, _ := strconv.Atoi(strings.TrimPrefix(pr.wrapper, "f"))
			top := -1
			for _, rc := range pr.receipts() {
				top = max(top, rc.rev)
			}
			for _, ch := range w.changes {
				if ch.page == w.page[i] && ch.rev > top && time.Since(start.Add(ch.at)) < deadline(i) {
					return false
				}
			}
		}
		return true
	})
	if err := p.end(e); err != nil {
		return err
	}
	t0, e0 := p.st0.ticks()
	t1, e1 := p.st1.ticks()
	p.ops = int(t1 - t0)
	p.attempted = len(w.reads) + watched + p.ops
	for range e1 - e0 {
		p.fail(-1, "tick error")
	}
	for _, pr := range e.probes {
		i, _ := strconv.Atoi(strings.TrimPrefix(pr.wrapper, "f"))
		rcs := pr.receipts()
		last := -1
		for _, rc := range rcs {
			k, ok := w.byRev[[2]int{w.page[i], rc.rev}]
			op := int64(-1)
			if ok {
				op = changeOpBase + int64(k)*int64(w.procs) + int64(i)
				if lat := rc.at.Sub(start.Add(w.changes[k].at)); lat <= deadline(i) {
					p.latency("change_to_watch", op, ms(lat))
				} else {
					p.fail(op, "change late")
				}
			}
			if rc.rev < last {
				p.wrong(op, "version out of order")
			}
			last = max(last, rc.rev)
			p.deliver(delivery{key: w.key(i), rev: rc.rev, hash: rc.hash, op: op}, nil)
		}
		if p.te != nil {
			p.te.receiptSpans("server.fanout", rcs)
		}
	}
	hooks := e.up.hookReceipts()
	for _, rc := range hooks {
		i, _ := strconv.Atoi(strings.TrimPrefix(rc.wrapper, "f"))
		if !rc.sigOK {
			p.wrong(-1, "bad signature")
		}
		p.deliver(delivery{key: w.key(i), rev: rc.rev, hash: rc.hash, op: -1}, nil)
	}
	if p.te != nil {
		p.te.receiptSpans("server.webhook", hooks)
	}
	return nil
}

func (w *fleetRead) oracle(key string, revs []int) (map[int][]byte, error) {
	var pg, tmpl int
	if _, err := fmt.Sscanf(key, "cat/%d/%d", &pg, &tmpl); err != nil {
		return nil, fmt.Errorf("bad key %q: %w", key, err)
	}
	return catalogueOracle(newCatalogue(w.seed, pg, w.secs, w.rows), tmpl, revs)
}
