package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/fetchcache"
	"repro/internal/htmlparse"
	"repro/internal/pib"
	"repro/internal/resultlog"
	"repro/internal/server"
	"repro/internal/transform"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// The traced run drives each op through the modules' public functions
// from the benchmark's own code, one span per call:
//
//	http GET → htmlparse.Parse → (*dom.Tree).Warm → elog RunCompiled
//	(over a MapFetcher, so eval excludes fetch) → pib.Diff →
//	Design.TransformIncremental → Encoder.MarshalIndentBytes →
//	resultlog Append/Sync → Collector.Process → server publish through
//	its handler → SSE/webhook receipt.
//
// A fixed share of wrappers (or ops) take one of the program's own
// entry points instead, so those are timed on the same op stream: the
// SDK's Wrapper.Extract (lixto.extract) and the scheduled path's
// WrapperSource.Poll (transform.poll). Fetches go through the server's
// shared fetch cache, so fetchcache hits and misses are the server's.

const (
	modeChain = iota
	modeSDK
	modePoll
)

// modeFor spreads the entry points: one in eight through the SDK, one
// in eight through WrapperSource.Poll, the rest through the explicit
// chain.
func modeFor(i int) int {
	switch i % 8 {
	case 0:
		return modeSDK
	case 1:
		return modePoll
	}
	return modeChain
}

// tracedEnv is what every traced chain shares.
type tracedEnv struct {
	tr      *tracer
	e       *env
	httpc   *http.Client
	cache   *fetchcache.Cache
	mc      *elog.MatchCache
	handler http.Handler
	store   *resultlog.Store

	fetchBytes atomic.Int64
	parseBytes atomic.Int64
	parseNS    atomic.Int64
	ticks      atomic.Int64 // scheduled ticks stepped in the window, -1 before it
	base       counters     // chain counters when the window opened

	storeDir string

	mu        sync.Mutex
	published map[pubKey]pubInfo // publish end per delivered version
	sample    [][]byte           // pages kept for the parse-allocation probe
	chains    []*chain
	outlets   []*outlet
}

type pubKey struct {
	wrapper string
	rev     int
}

type pubInfo struct {
	at   time.Time
	span int32
	op   int64
}

func newTracedEnv(tr *tracer, e *env, work string) (*tracedEnv, error) {
	dir, err := os.MkdirTemp(work, "traced-wal-")
	if err != nil {
		return nil, fmt.Errorf("traced wal dir: %w", err)
	}
	store, err := resultlog.Open(dir, resultlog.Options{Fsync: resultlog.FsyncBatch})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("traced wal: %w", err)
	}
	t := &tracedEnv{tr: tr, e: e, cache: e.cfg.SharedCache, mc: e.cfg.MatchCache, handler: e.srv.Handler(),
		store: store, storeDir: dir, published: map[pubKey]pubInfo{},
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	t.ticks.Store(-1)
	return t, nil
}

// tickOp numbers a scheduled tick as an op of the window; ticks before
// the window opens are set-up work (op -1).
func (t *tracedEnv) tickOp() int64 {
	if t.ticks.Load() < 0 {
		return -1
	}
	return changeOpBase<<1 + t.ticks.Add(1)
}

// open starts the window: spans and counters recorded during set-up
// are dropped.
func (t *tracedEnv) open() {
	t.tr.reset()
	t.fetchBytes.Store(0)
	t.parseBytes.Store(0)
	t.parseNS.Store(0)
	t.ticks.Store(0)
	t.base = t.counters()
}

func (t *tracedEnv) close() {
	t.store.Close()
	os.RemoveAll(t.storeDir)
	t.httpc.CloseIdleConnections()
}

// outlet is the delivery end of a traced wrapper: its splice encoder,
// result log and collector, registered with the server as a pipeline.
// The cold_extract ops share one outlet; every other chain owns one.
type outlet struct {
	t    *tracedEnv
	name string

	mu      sync.Mutex
	enc     *xmlenc.Encoder
	log     *resultlog.Log
	ver     uint64
	out     *transform.Collector
	prevDoc *xmlenc.Node
	lastXML []byte
}

func (t *tracedEnv) newOutlet(name string) (*outlet, error) {
	log, err := t.store.Log(name)
	if err != nil {
		return nil, err
	}
	o := &outlet{t: t, name: name, enc: xmlenc.NewEncoder(), log: log, out: &transform.Collector{CompName: name + ".out"}}
	t.mu.Lock()
	t.outlets = append(t.outlets, o)
	t.mu.Unlock()
	return o, nil
}

// PipeName and Output, with a Tick from tickPipe or onDemandPipe, make
// an outlet a server.Pipeline whose deliveries the server publishes,
// fans out and webhooks.
func (o *outlet) PipeName() string             { return o.name }
func (o *outlet) Output() *transform.Collector { return o.out }

// chain is one traced wrapper: its compiled SDK wrapper plus the
// per-wrapper state each module keeps across versions.
type chain struct {
	t    *tracedEnv
	o    *outlet
	url  string // the program's document URL
	path string // where the upstream serves it
	mode int
	w    *lixto.Wrapper

	cached elog.Fetcher // span fetcher behind the shared cache
	cur    atomic.Int32 // parent span of fetches in flight
	curOp  atomic.Int64

	mu       sync.Mutex // held for a whole step; guards the state below
	src      *transform.WrapperSource
	prevTree *dom.Tree
	prevBase *pib.Base
	oc       *pib.OutputCache
}

// newChain compiles a traced wrapper whose document URL url is served
// by the upstream at path. A non-empty scope keeps the wrapper's pages
// out of the shared cache's common key space (inline-page requests).
func (t *tracedEnv) newChain(o *outlet, url, path, scope, program, root string, aux []string, mode int) (*chain, error) {
	opts := []lixto.Option{lixto.WithRoot(root), lixto.WithIncrementalOutput(true)}
	if len(aux) > 0 {
		opts = append(opts, lixto.WithAuxiliary(aux...))
	}
	w, err := lixto.Compile(program, opts...)
	if err != nil {
		return nil, err
	}
	c := &chain{t: t, o: o, url: url, path: path, mode: mode, w: w, oc: pib.NewOutputCache()}
	c.cur.Store(-1)
	sf := spanFetcher{c}
	c.cached = t.cache.WrapScoped(scope, sf)
	if mode == modePoll {
		c.src = transform.NewWrapperSource(o.name, w, sf)
		c.src.NoSourceAttr = true
		if scope == "" {
			c.src.Shared = t.cache
		} else {
			c.src.Fetcher = c.cached
		}
		c.src.Batch = t.mc
	}
	t.mu.Lock()
	t.chains = append(t.chains, c)
	t.mu.Unlock()
	return c, nil
}

// tickPipe is a scheduled traced wrapper: the server's scheduler ticks
// it, and each tick steps its chain.
type tickPipe struct {
	*outlet
	c *chain
}

func (p tickPipe) Tick() error {
	_, err := p.c.step(p.t.tickOp(), nil)
	return err
}

// Close detaches a polling chain from the fleet match cache.
func (p tickPipe) Close() {
	if p.c.src != nil {
		p.c.src.Close()
	}
}

// onDemandPipe is an on-demand traced outlet: its registration tick
// delivers nothing new, ops step its chains directly.
type onDemandPipe struct{ *outlet }

func (onDemandPipe) Tick() error { return nil }

// spanFetcher fetches over HTTP from the upstream, timing the GET
// (body only), the parse and the warm as separate spans.
type spanFetcher struct{ c *chain }

func (f spanFetcher) Fetch(url string) (*dom.Tree, error) {
	t := f.c.t
	parent, op := f.c.cur.Load(), f.c.curOp.Load()
	if url == f.c.url {
		url = f.c.path
	}
	s := t.tr.begin("web.fetch", parent, op)
	resp, err := t.httpc.Get(t.e.up.base + "/" + url)
	if err != nil {
		t.tr.end(s)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.tr.end(s)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return t.parse(body, parent, op), nil
}

// parse times htmlparse.Parse and (*dom.Tree).Warm on one page.
func (t *tracedEnv) parse(body []byte, parent int32, op int64) *dom.Tree {
	t.fetchBytes.Add(int64(len(body)))
	start := time.Now()
	s := t.tr.begin("htmlparse.parse", parent, op)
	tree := htmlparse.Parse(string(body))
	t.tr.end(s)
	t.parseNS.Add(int64(time.Since(start)))
	t.parseBytes.Add(int64(len(body)))
	s = t.tr.begin("dom.warm", parent, op)
	tree.Warm()
	t.tr.end(s)
	t.mu.Lock()
	if len(t.sample) < 16 {
		t.sample = append(t.sample, body)
	}
	t.mu.Unlock()
	return tree
}

// step runs one version of the wrapper through its layers, delivers it
// to the collector and publishes it through the server's handler.
// inline, when set, is the page itself (an inline-page request); it is
// still fetched over HTTP by chain and poll modes, from where the
// caller has put it on the upstream. It returns the encoded output, or
// nil when the page was unchanged.
func (c *chain) step(op int64, inline []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := c.t.tr
	root := tr.begin("op", -1, op)
	defer tr.end(root)
	c.curOp.Store(op)
	var doc *xmlenc.Node
	switch c.mode {
	case modeSDK:
		s := tr.begin("lixto.extract", root, op)
		c.cur.Store(s)
		var src lixto.Source = lixto.Origin()
		if inline != nil {
			src = lixto.HTML(string(inline))
		}
		res, err := c.w.Extract(context.Background(), src, lixto.WithFetcher(c.cached))
		if err != nil {
			tr.end(s)
			return nil, err
		}
		doc = res.XML()
		tr.end(s)
	case modePoll:
		s := tr.begin("transform.poll", root, op)
		c.cur.Store(s)
		docs, err := c.src.Poll()
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if len(docs) == 0 || docs[0] == c.o.prevDoc {
			c.o.redeliver(root, op)
			return nil, nil
		}
		doc = docs[0]
	default:
		s := tr.begin("fetchcache.fetch", root, op)
		c.cur.Store(s)
		tree, err := c.cached.Fetch(c.url)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if tree == c.prevTree {
			// The shared cache handed back the very tree of the last
			// version: the page is unchanged (the scheduled path's
			// fast path).
			c.o.redeliver(root, op)
			return nil, nil
		}
		s = tr.begin("elog.eval", root, op)
		ev := elog.NewEvaluator(elog.MapFetcher{c.url: tree})
		ev.Incremental = true
		ev.Shared = c.t.mc
		base, err := ev.RunCompiled(c.w.Compiled())
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("pib.diff", root, op)
		prev := c.prevBase
		if prev == nil {
			prev = pib.NewBase()
		}
		pib.Diff(prev, base)
		tr.end(s)
		s = tr.begin("pib.transform", root, op)
		doc = c.w.Design().TransformIncremental(base, c.oc)
		tr.end(s)
		c.prevTree, c.prevBase = tree, base
	}
	c.cur.Store(root)
	return c.o.emit(root, op, doc)
}

// emit encodes doc, logs it, delivers it to the collector and
// publishes it through the server's handler (a read of .../results
// publishes the new version and fans it out to watchers and webhooks).
func (o *outlet) emit(root int32, op int64, doc *xmlenc.Node) ([]byte, error) {
	tr := o.t.tr
	o.mu.Lock()
	defer o.mu.Unlock()
	s := tr.begin("xmlenc.encode", root, op)
	xml := o.enc.MarshalIndentBytes(doc)
	tr.end(s)
	s = tr.begin("xmlenc.encode_full", root, op)
	full := xmlenc.MarshalIndentBytes(doc)
	tr.end(s)
	if !bytes.Equal(xml, full) {
		return nil, fmt.Errorf("%s: spliced encoding differs from the full encoding", o.name)
	}
	o.ver++
	h := fnv.New64a()
	h.Write(xml)
	s = tr.begin("resultlog.append", root, op)
	err := o.log.Append(resultlog.Record{Kind: resultlog.KindSnapshot, Version: o.ver, Fingerprint: h.Sum64(), XML: xml})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("resultlog.sync", root, op)
	err = o.log.Sync()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	o.prevDoc, o.lastXML = doc, xml
	o.deliverLocked(root, op, doc)
	o.t.mu.Lock()
	k := pubKey{o.name, revOf(xml)}
	if _, seen := o.t.published[k]; !seen {
		o.t.published[k] = pubInfo{at: time.Now(), span: root, op: op}
	}
	o.t.mu.Unlock()
	return xml, nil
}

// redeliver hands the previous document to the collector again, as the
// scheduled path does for an unchanged page.
func (o *outlet) redeliver(root int32, op int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.prevDoc != nil {
		o.deliverLocked(root, op, o.prevDoc)
	}
}

func (o *outlet) deliverLocked(root int32, op int64, doc *xmlenc.Node) {
	tr := o.t.tr
	s := tr.begin("transform.collect", root, op)
	o.out.Process("extract", doc)
	tr.end(s)
	s = tr.begin("server.publish", root, op)
	req, _ := http.NewRequest(http.MethodGet, "/v1/wrappers/"+o.name+"/results", nil)
	o.t.handler.ServeHTTP(discard{h: http.Header{}}, req)
	tr.end(s)
}

// discard is a ResponseWriter that drops the body.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(b []byte) (int, error) { return len(b), nil }
func (d discard) WriteHeader(int)             {}

// receiptSpans turns subscriber receipts into fanout and webhook spans
// timed from the publish of the version they carry.
func (t *tracedEnv) receiptSpans(name string, rcs []receipt) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[pubKey]bool{}
	for _, rc := range rcs {
		k := pubKey{rc.wrapper, rc.rev}
		pi, ok := t.published[k]
		if !ok || seen[k] || pi.op < 0 || rc.at.Before(pi.at) {
			continue
		}
		seen[k] = true
		t.tr.record(name, pi.span, pi.op, pi.at, rc.at)
	}
}

// counters are the reuse and logging counters summed over every chain
// and outlet: the compiled programs' incremental matching, the output
// caches, the encoders and the traced WAL.
type counters struct {
	inc              elog.IncrementalStats
	out              pib.OutputStats
	spliced, encoded uint64
	walBytes         uint64
}

func (t *tracedEnv) counters() counters {
	t.mu.Lock()
	chains, outlets := slices.Clone(t.chains), slices.Clone(t.outlets)
	t.mu.Unlock()
	var c counters
	for _, ch := range chains {
		i := ch.w.Compiled().Incremental()
		c.inc.SubtreeHits += i.SubtreeHits
		c.inc.SubtreeMisses += i.SubtreeMisses
		c.inc.ReusedNodes += i.ReusedNodes
		c.inc.DirtyNodes += i.DirtyNodes
		ch.mu.Lock()
		o := ch.oc.Stats()
		ch.mu.Unlock()
		if ch.mode == modeSDK {
			o = ch.w.OutputStats()
		}
		c.out.ReusedNodes += o.ReusedNodes
		c.out.BuiltNodes += o.BuiltNodes
	}
	for _, o := range outlets {
		o.mu.Lock()
		c.spliced += o.enc.SplicedBytes()
		c.encoded += o.enc.EncodedBytes()
		o.mu.Unlock()
	}
	c.walBytes = t.store.Stats().BytesAppended
	return c
}

// window returns the counters accumulated since the window opened.
func (t *tracedEnv) window() counters {
	c, b := t.counters(), t.base
	return counters{
		inc: elog.IncrementalStats{
			SubtreeHits:   c.inc.SubtreeHits - b.inc.SubtreeHits,
			SubtreeMisses: c.inc.SubtreeMisses - b.inc.SubtreeMisses,
			ReusedNodes:   c.inc.ReusedNodes - b.inc.ReusedNodes,
			DirtyNodes:    c.inc.DirtyNodes - b.inc.DirtyNodes,
		},
		out: pib.OutputStats{
			ReusedNodes: c.out.ReusedNodes - b.out.ReusedNodes,
			BuiltNodes:  c.out.BuiltNodes - b.out.BuiltNodes,
		},
		spliced:  c.spliced - b.spliced,
		encoded:  c.encoded - b.encoded,
		walBytes: c.walBytes - b.walBytes,
	}
}

// parseAllocKiB measures heap allocation per htmlparse.Parse on the
// sampled pages, serially and off the clock.
func (t *tracedEnv) parseAllocKiB() float64 {
	t.mu.Lock()
	pages := append([][]byte(nil), t.sample...)
	t.mu.Unlock()
	if len(pages) == 0 {
		return 0
	}
	strs := make([]string, len(pages))
	for i, p := range pages {
		strs[i] = string(p)
	}
	before := totalAlloc()
	for _, s := range strs {
		htmlparse.Parse(s)
	}
	return float64(totalAlloc()-before) / 1024 / float64(len(strs))
}

var (
	_ server.Pipeline = tickPipe{}
	_ server.Pipeline = onDemandPipe{}
)
