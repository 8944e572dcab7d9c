package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// coldExtract: a stream of POST /v1/extract requests, each with a
// program and an inline page the server has never seen. Compile, full
// parse, full eval (including the naive recursive fixpoint) and full
// transform/encode dominate; every cache, incremental path, WAL and
// subscriber sits idle.
type coldExtract struct {
	seed  int64
	procs int
	rate  float64 // requests per second
	sz    sizes

	n      int
	bodies [][]byte // op → request body

	warm int     // warm-up ops, numbered after the window's
	out  *outlet // traced: the outlet every op delivers to
}

// sizes of the cold_extract request mix.
type sizes struct {
	coldSections, coldRows int // flat catalogue
	auctionItems           int // Figure 5 listing items
	nestedDepth            int // nested page levels
}

func newColdExtract(seed int64, procs int) *coldExtract {
	return &coldExtract{seed: seed, procs: procs, rate: 20,
		sz: sizes{coldSections: 20, coldRows: 25, auctionItems: 40, nestedDepth: 200}}
}

func (w *coldExtract) name() string  { return "cold_extract" }
func (w *coldExtract) probes() int   { return 1 }
func (w *coldExtract) persist() bool { return false }
func (w *coldExtract) describe() string {
	return fmt.Sprintf("POST /v1/extract open loop at %.0f/s, each a fresh program and inline page; per 10 ops 5 catalogues of %dx%d rows, "+
		"3 Figure-5 auction listings of %d items, 2 nested pages of %d levels under the recursive wrapper; "+
		"no WAL; compile rate limit off; SSE probe and webhook only on the traced run's outlet",
		w.rate, w.sz.coldSections, w.sz.coldRows, w.sz.auctionItems, w.sz.nestedDepth)
}

func (w *coldExtract) body(op int) []byte {
	rq := coldRequest(w.seed, op, w.sz)
	b, _ := json.Marshal(map[string]any{"program": rq.program, "html": rq.html, "root": rq.root, "auxiliary": rq.aux})
	return b
}

func (w *coldExtract) prepare(dur time.Duration) {
	w.n = int(dur.Seconds() * w.rate)
	w.warm = 10
	w.bodies = make([][]byte, w.n)
	for k := range w.n {
		w.bodies[k] = w.body(k)
	}
}

// extract performs op through the server (or, traced, through the
// layers) and returns the delivered document.
func (w *coldExtract) extract(e *env, te *tracedEnv, op int) ([]byte, error) {
	if te == nil {
		body := w.bodies[op%len(w.bodies)]
		if op >= w.n {
			body = w.body(op)
		}
		resp, err := e.client.Post(e.base+"/v1/extract", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		payload, err := readBody(resp)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return payload, nil
	}
	rq := coldRequest(w.seed, op, w.sz)
	path := "cold/" + strconv.Itoa(op)
	e.up.set(path, []byte(rq.html))
	c, err := te.newChain(w.out, rq.url, path, path, rq.program, rq.root, rq.aux, modeFor(op+1))
	if err != nil {
		return nil, err
	}
	return c.step(int64(op), []byte(rq.html))
}

func (w *coldExtract) setup(e *env, te *tracedEnv) error {
	if te != nil {
		o, err := te.newOutlet("cold")
		if err != nil {
			return err
		}
		w.out = o
		if err := e.srv.RegisterDynamic(onDemandPipe{o}, 0, true); err != nil {
			return err
		}
	}
	// Warm-up: one block of the mix, closed loop.
	for j := range w.warm {
		if _, err := w.extract(e, te, w.n+j); err != nil {
			return fmt.Errorf("warm-up extract: %w", err)
		}
	}
	if te != nil {
		if err := e.addWebhook("cold"); err != nil {
			return err
		}
		if err := e.addProbe("cold"); err != nil {
			return err
		}
	}
	return nil
}

// run sends the requests over one connection: two extracts in flight
// at once made the median depend on which requests happened to overlap.
func (w *coldExtract) run(e *env, p *phase, dur time.Duration) error {
	interval := time.Duration(float64(time.Second) / w.rate)
	if err := p.begin(e); err != nil {
		return err
	}
	start := time.Now().Add(20 * time.Millisecond)
	p.attempted = w.n
	for k := range w.n {
		p.expects("extract", int64(k))
	}
	p.late = stream{
		n:       w.n,
		due:     func(k int) time.Duration { return time.Duration(k) * interval },
		workers: 1,
		do: func(k int, due time.Time) {
			op := int64(k)
			payload, err := w.extract(e, p.te, k)
			if err != nil {
				p.fail(op, "extract: "+err.Error())
				return
			}
			p.latency("extract", op, ms(time.Since(due)))
			if revOf(payload) != k {
				p.wrong(op, "response for another request")
			}
			p.deliver(delivery{key: "cold/" + strconv.Itoa(k), rev: k, hash: payloadHash(payload), op: op}, payload)
		},
	}.run(start)
	if p.te != nil {
		waitFor(10*time.Second, func() bool {
			hooks := 0
			for _, rc := range e.up.hookReceipts() {
				if rc.rev >= 0 && rc.rev < w.n {
					hooks++
				}
			}
			return hooks >= w.n-p.failed()
		})
	}
	p.ops = w.n
	if err := p.end(e); err != nil {
		return err
	}
	if p.te != nil {
		hooks := e.up.hookReceipts()
		p.te.receiptSpans("server.webhook", hooks)
		for _, rc := range hooks {
			if !rc.sigOK {
				p.wrong(-1, "bad signature")
			}
		}
		for _, pr := range e.probes {
			p.te.receiptSpans("server.fanout", pr.receipts())
		}
	}
	return nil
}

func (w *coldExtract) oracle(key string, revs []int) (map[int][]byte, error) {
	out := map[int][]byte{}
	for _, op := range revs {
		if !strings.HasPrefix(key, "cold/") || key != "cold/"+strconv.Itoa(op) {
			return nil, fmt.Errorf("bad key %s for op %d", key, op)
		}
		rq := coldRequest(w.seed, op, w.sz)
		b, err := fullRebuild(rq.program, rq.root, rq.aux, rq.html)
		if err != nil {
			return nil, err
		}
		out[op] = b
	}
	return out, nil
}
