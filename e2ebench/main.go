// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload against an in-process internal/server on loopback, fed
// by a real HTTP upstream, and prints every metric by name with its
// unit; the last line of its output is one JSON object:
//
//	e2ebench -workload push_churn|cold_extract|fleet_read -seed N -seconds S -trace 0|1 [-work DIR]
//
// With -trace 0 the run reports the end-to-end metrics: the median of
// several set-ups, then one measured open-loop window. With -trace 1 it
// runs the workload twice on the same seed, each for half the window —
// once untraced, once with every op driven through the modules' public
// functions under spans — and reports the per-layer table. Every
// delivered document is checked against a full-rebuild oracle after the
// run, off the clock. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setups is how many times a -trace 0 run brings a fresh server to
// steady state; setup_s is their median.
const setups = 5

func main() {
	workload := flag.String("workload", "", "push_churn, cold_extract or fleet_read")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer table")
	work := flag.String("work", ".bench_build", "working directory for result logs and span dumps")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, work string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	// One generator process; the server shares it, on at most nproc
	// threads.
	procs := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(procs)
	wl, err := newWorkload(name, seed, procs)
	if err != nil {
		return err
	}
	dur := time.Duration(seconds) * time.Second
	fmt.Printf("workload %s seed %d window %s trace %v\n", name, seed, dur, traced)
	fmt.Printf("config: %s\n", wl.describe())
	fmt.Printf("budget: GOMAXPROCS=%d (nproc %d), at most %d request connections, %d SSE probes\n",
		procs, runtime.NumCPU(), procs, wl.probes())

	if !traced {
		p, err := measure(wl, dur, nil, setups, work)
		if err != nil {
			return err
		}
		return report(name, p, nil)
	}
	// The traced run: the same seed and op stream, untraced then traced,
	// each for half the window; end-to-end figures are not reported.
	half := max(dur/2, time.Second)
	pu, err := measure(wl, half, nil, 1, work)
	if err != nil {
		return err
	}
	pt, err := measure(wl, half, newTracer(), 1, work)
	if err != nil {
		return err
	}
	return report(name, pu, pt)
}

// delivery is one document seen by a subscriber or the generator, to
// be checked against the oracle.
type delivery struct {
	key  string // which wrapper over which input, for the oracle
	rev  int
	hash uint64
	op   int64 // the op whose failure it counts as, -1 none
}

// phase accumulates one measured window.
type phase struct {
	te    *tracedEnv
	setup []time.Duration

	mu         sync.Mutex
	lat        map[string]map[int64]float64 // metric → op → ms
	expect     map[string][]int64           // metric → ops that must produce it
	attempted  int
	failedOps  map[int64]bool
	extraFail  int
	reasons    map[string]int
	incorrect  map[string]int
	deliveries []delivery
	sample     []byte // one delivered payload, for the oracle self-check
	sampleKey  string

	late   []float64
	ops    int
	u0, u1 usage

	st0    serverStatus
	st1    serverStatus
	gmax   int
	rss    float64 // peak resident set over the window, MiB
	util   []float64
	spans  map[string]*layerTimes
	layers map[string]float64 // traced-run figures taken from the chains
}

func newPhase() *phase {
	return &phase{lat: map[string]map[int64]float64{}, expect: map[string][]int64{},
		failedOps: map[int64]bool{}, reasons: map[string]int{}, incorrect: map[string]int{}, layers: map[string]float64{}}
}

// latency records an op's latency for one end-to-end metric.
func (p *phase) latency(metric string, op int64, v float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.lat[metric]
	if m == nil {
		m = map[int64]float64{}
		p.lat[metric] = m
	}
	if _, seen := m[op]; !seen {
		m[op] = v
	}
}

// expects declares that op must produce a sample of metric; one that
// never does fails.
func (p *phase) expects(metric string, op int64) {
	p.mu.Lock()
	p.expect[metric] = append(p.expect[metric], op)
	p.mu.Unlock()
}

// fail counts op as failed; op < 0 is a failure no op owns.
func (p *phase) fail(op int64, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reasons[reason]++
	if op < 0 {
		p.extraFail++
		return
	}
	p.failedOps[op] = true
}

// wrong counts an output that is not what the program should produce.
func (p *phase) wrong(op int64, reason string) {
	p.fail(op, reason)
	p.mu.Lock()
	p.incorrect[reason]++
	p.mu.Unlock()
}

func (p *phase) deliver(d delivery, payload []byte) {
	p.mu.Lock()
	p.deliveries = append(p.deliveries, d)
	if p.sample == nil && payload != nil {
		p.sample, p.sampleKey = append([]byte(nil), payload...), d.key
	}
	p.mu.Unlock()
}

// begin opens the measured window: resource counters and server stats.
func (p *phase) begin(e *env) error {
	st, err := e.status()
	if err != nil {
		return err
	}
	p.st0 = st
	if p.te != nil {
		p.te.open()
	}
	if !resetPeakRSS() {
		fmt.Println("note: cannot reset VmHWM; peak_rss_mb covers the whole process")
	}
	p.u0 = readUsage()
	return nil
}

// end closes the window after every op and delivery has drained.
func (p *phase) end(e *env) error {
	p.u1 = readUsage()
	p.rss = peakRSSMiB()
	st, err := e.status()
	if err != nil {
		return err
	}
	p.st1 = st
	return nil
}

// samples returns metric's latencies, failed or missing ops counting
// as missing every limit (+Inf).
func (p *phase) samples(metric string) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, 0, len(p.expect[metric]))
	for _, op := range p.expect[metric] {
		v, ok := p.lat[metric][op]
		if !ok || p.failedOps[op] {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	return out
}

// settle fails every op that was expected to produce a metric and
// never did.
func (p *phase) settle() {
	for metric, ops := range p.expect {
		for _, op := range ops {
			p.mu.Lock()
			_, ok := p.lat[metric][op]
			p.mu.Unlock()
			if !ok {
				p.fail(op, "missing "+metric)
			}
		}
	}
}

func (p *phase) failed() int { return len(p.failedOps) + p.extraFail }

func (p *phase) cpuPerOp() float64 {
	return ratio(ms(p.u1.cpu-p.u0.cpu), float64(p.ops))
}

// measure brings up n fresh servers, keeps the last, and runs one
// measured window on it.
func measure(wl workload, dur time.Duration, tr *tracer, n int, work string) (*phase, error) {
	p := newPhase()
	wl.prepare(dur)
	var e *env
	for i := range n {
		t0 := time.Now()
		var err error
		e, err = newEnv(work, wl.persist(), runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			if p.te, err = newTracedEnv(tr, e, work); err != nil {
				e.close()
				return nil, err
			}
		}
		if err = wl.setup(e, p.te); err != nil {
			if p.te != nil {
				p.te.close()
			}
			e.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setup = append(p.setup, time.Since(t0))
		if i < n-1 {
			if p.te != nil {
				p.te.close()
			}
			e.close()
		}
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				g := runtime.NumGoroutine()
				st := e.srv.SchedulerStatus()
				p.mu.Lock()
				p.gmax = max(p.gmax, g)
				p.util = append(p.util, st.WorkerUtilization)
				p.mu.Unlock()
			}
		}
	}()
	err := wl.run(e, p, dur)
	close(stop)
	<-sampled
	// Closing the server drains its ticks, so the chains are idle when
	// their counters are read.
	e.close()
	if p.te != nil {
		p.spans = tr.summarize()
		p.layerFigures()
		p.te.close()
	}
	if err != nil {
		return nil, err
	}
	p.settle()
	if err := p.audit(wl); err != nil {
		return nil, err
	}
	if tr != nil {
		f, err := os.Create(filepath.Join(work, fmt.Sprintf("spans-%s.tsv", wl.name())))
		if err != nil {
			return nil, err
		}
		err = tr.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return p, nil
}

// layerFigures takes the traced run's counters from the chains.
func (p *phase) layerFigures() {
	te := p.te
	c := te.window()
	p.layers["elog.reused_node_ratio"] = ratio(float64(c.inc.ReusedNodes), float64(c.inc.ReusedNodes+c.inc.DirtyNodes))
	p.layers["elog.subtree_hit_ratio"] = ratio(float64(c.inc.SubtreeHits), float64(c.inc.SubtreeHits+c.inc.SubtreeMisses))
	p.layers["pib.output_reused_ratio"] = ratio(float64(c.out.ReusedNodes), float64(c.out.ReusedNodes+c.out.BuiltNodes))
	p.layers["xmlenc.spliced_ratio"] = ratio(float64(c.spliced), float64(c.encoded))
	p.layers["web.fetch_bytes_per_op"] = ratio(float64(te.fetchBytes.Load()), float64(p.ops))
	p.layers["htmlparse.parse_ns_per_byte"] = ratio(float64(te.parseNS.Load()), float64(te.parseBytes.Load()))
	p.layers["htmlparse.alloc_kb_per_parse"] = te.parseAllocKiB()
	p.layers["resultlog.bytes_per_op"] = ratio(float64(c.walBytes), float64(p.ops))
	var polls, hits float64
	for _, ch := range te.chains {
		if ch.src != nil {
			hits += float64(ch.src.ExtractionStats().PollCacheHits)
		}
	}
	if lt := p.spansOf("transform.poll"); lt != nil {
		polls = float64(len(lt.dur))
	}
	p.layers["transform.poll_cache_hit_ratio"] = ratio(hits, polls)
}

func (p *phase) spansOf(name string) *layerTimes {
	if p.spans == nil {
		return nil
	}
	return p.spans[name]
}

// finite replaces an unbounded percentile (more than that share of ops
// failed) with the window length, a latency of at least the whole run.
func finite(v float64, window time.Duration) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return ms(window)
	}
	return v
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and, last, the JSON result.
func report(name string, p, pt *phase) error {
	window := p.u1.at.Sub(p.u0.at)
	fmt.Printf("window: %.2fs measured, %d ops, generator lateness p50 %.3f ms p99 %.3f ms max %.3f ms over %d dispatches\n",
		window.Seconds(), p.ops, percentile(p.late, 50), percentile(p.late, 99), percentile(p.late, 100), len(p.late))
	attempted, failed := p.attempted, p.failed()
	incorrect := p.incorrect
	if pt != nil {
		attempted += pt.attempted
		failed += pt.failed()
		for k, v := range pt.incorrect {
			incorrect[k] += v
		}
	}
	fmt.Printf("ops: %d attempted, %d failed %v\n", attempted, failed, p.reasons)
	correct := len(incorrect) == 0
	if !correct {
		fmt.Printf("INCORRECT outputs: %v\n", incorrect)
	}
	metrics := map[string]metric{}
	if pt == nil {
		for _, m := range endToEnd(name, p) {
			fmt.Printf("%-28s %12.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
			if m.key {
				metrics[m.name] = metric{m.value, m.unit}
			}
		}
	} else {
		printSpans(pt)
		for _, m := range perLayer(p, pt) {
			fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
			metrics[m.name] = metric{m.value, m.unit}
		}
	}
	out, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type line struct {
	name  string
	value float64
	unit  string
	note  string
	key   bool // reported in the JSON result
}

// endToEnd computes the end-to-end metrics of an untraced window. The
// JSON result carries the ones every workload has; the named latencies
// each workload reports are printed above it.
func endToEnd(name string, p *phase) []line {
	window := p.u1.at.Sub(p.u0.at)
	setupS := make([]float64, len(p.setup))
	for i, d := range p.setup {
		setupS[i] = d.Seconds()
	}
	var out []line
	names := make([]string, 0, len(p.expect))
	for m := range p.expect {
		names = append(names, m)
	}
	sort.Strings(names)
	head := headline[name]
	for _, m := range names {
		xs := p.samples(m)
		n := len(xs)
		p50, p99 := finite(percentile(xs, 50), window), finite(percentile(xs, 99), window)
		note := fmt.Sprintf("n=%d", n)
		out = append(out, line{m + "_p50_ms", p50, "ms", note, false})
		out = append(out, line{m + "_p90_ms", finite(percentile(xs, 90), window), "ms", note, false})
		tailNote := note
		if n < 1000 {
			tailNote += " (under 1000 samples: p99 not resolved)"
		}
		out = append(out, line{m + "_p99_ms", p99, "ms", tailNote, false})
		if m == head {
			out = append(out, line{"latency_p50_ms", p50, "ms", "= " + m + "_p50_ms", true})
		}
	}
	out = append(out,
		line{"setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups %v", len(setupS), setupS), true},
		line{"cpu_ms_per_op", p.cpuPerOp(), "ms", fmt.Sprintf("%d ops", p.ops), true},
		line{"alloc_kb_per_op", ratio(float64(p.u1.alloc-p.u0.alloc)/1024, float64(p.ops)), "KiB", "", true},
		line{"peak_rss_mb", p.rss, "MiB", "VmHWM over the window", true},
	)
	return out
}

// headline is the latency each workload reports as latency_p50_ms. Its
// tails are printed but not in the JSON: fleet_read's read tail, set
// by collisions with tick bursts, does not repeat from run to run.
var headline = map[string]string{
	"push_churn":   "change_to_webhook",
	"cold_extract": "extract",
	"fleet_read":   "read",
}

func printSpans(pt *phase) {
	names := make([]string, 0, len(pt.spans))
	for n := range pt.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %8s %12s %12s %14s\n", "span", "count", "p50 us", "self p50 us", "self total ms")
	for _, n := range names {
		lt := pt.spans[n]
		var total float64
		for _, v := range lt.self {
			total += v
		}
		fmt.Printf("%-22s %8d %12.1f %12.1f %14.1f\n", n, len(lt.dur), percentile(append([]float64(nil), lt.dur...), 50),
			percentile(append([]float64(nil), lt.self...), 50), total/1e3)
	}
}

// perLayer computes the per-layer table of a traced run: span timings
// from the traced window pt, server counters folded from /statusz and
// GET /v1/wrappers over the untraced window p.
func perLayer(p, pt *phase) []line {
	spanP := func(name string, q float64) float64 {
		lt := pt.spansOf(name)
		if lt == nil {
			return 0
		}
		return percentile(append([]float64(nil), lt.dur...), q)
	}
	d0, d1 := p.st0, p.st1
	ticks1, _ := d1.ticks()
	ticks0, _ := d0.ticks()
	ticks := float64(ticks1 - ticks0)
	var cacheHits, cacheMiss, cacheShared float64
	if d1.SharedCache != nil && d0.SharedCache != nil {
		cacheHits = float64(d1.SharedCache.Hits - d0.SharedCache.Hits)
		cacheMiss = float64(d1.SharedCache.Misses - d0.SharedCache.Misses)
		cacheShared = float64(d1.SharedCache.Shared - d0.SharedCache.Shared)
	}
	var mcHits, mcMiss, batch float64
	if d1.MatchCache != nil && d0.MatchCache != nil {
		mcHits = float64(d1.MatchCache.Hits - d0.MatchCache.Hits)
		mcMiss = float64(d1.MatchCache.Misses - d0.MatchCache.Misses)
		batch = float64(d1.MatchCache.Attached)
	}
	x0, x1 := d0.extraction(), d1.extraction()
	outReused := float64(x1.OutputReusedNodes - x0.OutputReusedNodes)
	outBuilt := float64(x1.OutputBuiltNodes - x0.OutputBuiltNodes)
	pollRatio := ratio(float64(x1.PollCacheHits-x0.PollCacheHits), ticks)
	if ticks == 0 {
		pollRatio = pt.layers["transform.poll_cache_hit_ratio"]
	}
	outRatio := ratio(outReused, outReused+outBuilt)
	if outReused+outBuilt == 0 {
		outRatio = pt.layers["pib.output_reused_ratio"]
	}
	walBytes := pt.layers["resultlog.bytes_per_op"]
	if d1.Persistence != nil && d0.Persistence != nil {
		walBytes = ratio(float64(d1.Persistence.BytesAppended-d0.Persistence.BytesAppended), float64(p.ops))
	}
	etagHits := float64(d1.Delivery.EtagHits - d0.Delivery.EtagHits)
	etagMiss := float64(d1.Delivery.EtagMisses - d0.Delivery.EtagMisses)
	gcFrac := ratio(p.u1.gc-p.u0.gc, p.u1.all-p.u0.all)
	overhead := 100 * ratio(pt.cpuPerOp()-p.cpuPerOp(), p.cpuPerOp())
	return []line{
		{name: "web.fetch_us_p50", value: spanP("web.fetch", 50), unit: "us"},
		{name: "web.fetch_bytes_per_op", value: pt.layers["web.fetch_bytes_per_op"], unit: "B"},
		{name: "fetchcache.hit_ratio", value: ratio(cacheHits, cacheHits+cacheMiss), unit: "ratio"},
		{name: "fetchcache.shared_per_op", value: ratio(cacheShared, float64(p.ops)), unit: "count"},
		{name: "htmlparse.parse_us_p50", value: spanP("htmlparse.parse", 50), unit: "us"},
		{name: "htmlparse.parse_ns_per_byte", value: pt.layers["htmlparse.parse_ns_per_byte"], unit: "ns/B"},
		{name: "htmlparse.alloc_kb_per_parse", value: pt.layers["htmlparse.alloc_kb_per_parse"], unit: "KiB"},
		{name: "dom.warm_us_p50", value: spanP("dom.warm", 50), unit: "us"},
		{name: "elog.eval_us_p50", value: spanP("elog.eval", 50), unit: "us"},
		{name: "elog.eval_us_p99", value: spanP("elog.eval", 99), unit: "us"},
		{name: "elog.reused_node_ratio", value: pt.layers["elog.reused_node_ratio"], unit: "ratio"},
		{name: "elog.subtree_hit_ratio", value: pt.layers["elog.subtree_hit_ratio"], unit: "ratio"},
		{name: "elog.match_cache_hit_ratio", value: ratio(mcHits, mcHits+mcMiss), unit: "ratio"},
		{name: "elog.batch_size", value: batch, unit: "count"},
		{name: "pib.diff_us_p50", value: spanP("pib.diff", 50), unit: "us"},
		{name: "pib.transform_us_p50", value: spanP("pib.transform", 50), unit: "us"},
		{name: "pib.output_reused_ratio", value: outRatio, unit: "ratio"},
		{name: "xmlenc.encode_us_p50", value: spanP("xmlenc.encode", 50), unit: "us"},
		{name: "xmlenc.spliced_ratio", value: pt.layers["xmlenc.spliced_ratio"], unit: "ratio"},
		{name: "xmlenc.encode_full_us_p50", value: spanP("xmlenc.encode_full", 50), unit: "us"},
		{name: "resultlog.append_us_p50", value: spanP("resultlog.append", 50), unit: "us"},
		{name: "resultlog.sync_us_p50", value: spanP("resultlog.sync", 50), unit: "us"},
		{name: "resultlog.bytes_per_op", value: walBytes, unit: "B"},
		{name: "transform.poll_us_p50", value: spanP("transform.poll", 50), unit: "us"},
		{name: "transform.poll_cache_hit_ratio", value: pollRatio, unit: "ratio"},
		{name: "server.publish_us_p50", value: spanP("server.publish", 50), unit: "us"},
		{name: "server.fanout_us_p50", value: spanP("server.fanout", 50), unit: "us"},
		{name: "server.webhook_us_p50", value: spanP("server.webhook", 50), unit: "us"},
		{name: "server.not_modified_ratio", value: ratio(etagHits, etagHits+etagMiss), unit: "ratio"},
		{name: "server.late_ticks", value: float64(d1.Scheduler.LateTicks - d0.Scheduler.LateTicks), unit: "count"},
		{name: "server.dropped_ticks", value: float64(d1.Scheduler.DroppedTicks - d0.Scheduler.DroppedTicks), unit: "count"},
		{name: "server.worker_utilization", value: mean(p.util), unit: "ratio"},
		{name: "server.dropped_slow", value: float64(d1.Delivery.DroppedSlow - d0.Delivery.DroppedSlow), unit: "count"},
		{name: "lixto.extract_us_p50", value: spanP("lixto.extract", 50), unit: "us"},
		{name: "process.gc_cpu_fraction", value: gcFrac, unit: "ratio"},
		{name: "process.goroutines_max", value: float64(p.gmax), unit: "count"},
		{name: "trace.overhead_pct", value: overhead, unit: "%"},
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// workload is one traffic mix.
type workload interface {
	name() string
	describe() string
	probes() int
	persist() bool
	// prepare generates the inputs of a window of length dur, off the
	// clock.
	prepare(dur time.Duration)
	// setup brings a fresh server to steady state: wrappers registered
	// and first-extracted, probes connected, warm-up done. te is set
	// for a traced run.
	setup(e *env, te *tracedEnv) error
	// run drives the open-loop op stream, drains its deliveries and
	// closes the window (phase.begin/end).
	run(e *env, p *phase, dur time.Duration) error
	// oracle returns the expected full-rebuild output of key at each
	// of revs.
	oracle(key string, revs []int) (map[int][]byte, error)
}

func newWorkload(name string, seed int64, procs int) (workload, error) {
	switch name {
	case "push_churn":
		return newPushChurn(seed, procs), nil
	case "cold_extract":
		return newColdExtract(seed, procs), nil
	case "fleet_read":
		return newFleetRead(seed, procs), nil
	}
	return nil, fmt.Errorf("unknown -workload %q (want push_churn, cold_extract or fleet_read)", name)
}
