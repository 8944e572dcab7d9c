// Package lixto is the public SDK of the Lixto reproduction — the one
// supported entry point for embedding wrappers in Go programs. It
// covers the full wrapper lifecycle: compile an Elog program once, then
// extract from inline HTML, pre-parsed trees, fetched URLs, or the
// program's own source sites, concurrently and under a context.
//
//	w, err := lixto.Compile(src, lixto.WithAuxiliary("page"))
//	res, err := w.Extract(ctx, lixto.HTML(page))
//	fmt.Print(xmlenc.MarshalIndent(res.XML()))
//
// Every error is a typed *lixto.Error carrying the failed stage
// (Parse/Stratify/Fetch/Eval) and, for program errors, the source
// position. A compiled Wrapper is immutable and safe for concurrent
// use: its bitset-compiled form and fingerprint-keyed match caches are
// shared across goroutines, so repeated extraction of unchanged pages
// skips the pattern-matching tree walks.
//
// The HTTP face of the same lifecycle is the /v1 API of
// internal/server; cmd/elogc is a thin shim over this package.
package lixto

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"

	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/xmlenc"
)

// Wrapper is a compiled Elog wrapper: the parsed program, its
// bitset-compiled form, the XML design, and the option defaults it was
// compiled with. Compile is the only constructor. A Wrapper is safe for
// concurrent use.
type Wrapper struct {
	program  *elog.Program
	compiled *elog.CompiledProgram
	cfg      config

	// outMu guards outCache, the cross-extraction emitted-subtree cache
	// used when WithIncrementalOutput is on. One transform runs at a
	// time; concurrent Extracts serialize only their (cheap, dirty-
	// region-proportional) XML rendering, never the evaluation.
	outMu    sync.Mutex
	outCache *pib.OutputCache
}

// Compile parses, stratifies, and compiles an Elog program. Options
// become the wrapper's defaults; Extract accepts per-call overrides.
func Compile(src string, opts ...Option) (*Wrapper, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	p, err := elog.Parse(src)
	if err != nil {
		return nil, parseError(err)
	}
	cp, err := elog.Compile(p)
	if err != nil {
		return nil, stratifyError(p, err)
	}
	return &Wrapper{program: p, compiled: cp, cfg: cfg}, nil
}

// MustCompile panics on error; for examples and tests.
func MustCompile(src string, opts ...Option) *Wrapper {
	w, err := Compile(src, opts...)
	if err != nil {
		panic(err)
	}
	return w
}

// OutputStats reports the wrapper's incremental-output cache counters
// — output nodes reused and built across extractions, plus the
// instance delta of the latest one. All zero unless the wrapper was
// compiled with WithIncrementalOutput(true) and has extracted at
// least twice. Safe to call concurrently with Extract.
func (w *Wrapper) OutputStats() pib.OutputStats {
	w.outMu.Lock()
	defer w.outMu.Unlock()
	if w.outCache == nil {
		return pib.OutputStats{}
	}
	return w.outCache.Stats()
}

// Rebind returns a wrapper sharing this wrapper's program, compiled
// form and match caches, with additional default options applied — a
// cheap way to hand the same compiled program different fetchers or
// designs.
func (w *Wrapper) Rebind(opts ...Option) *Wrapper {
	cfg := w.cfg.clone()
	for _, o := range opts {
		o(&cfg)
	}
	return &Wrapper{program: w.program, compiled: w.compiled, cfg: cfg}
}

// parseError converts an elog parse failure into a positioned *Error.
func parseError(err error) *Error {
	var se *elog.SyntaxError
	if errors.As(err, &se) {
		return &Error{Kind: KindParse, Msg: se.Err.Error(), Pos: &Pos{Rule: se.Rule, Line: se.Line}, Err: err}
	}
	return &Error{Kind: KindParse, Msg: err.Error(), Err: err}
}

// stratifyError attributes a stratification failure to the first rule
// with a negated pattern reference, the best position available.
func stratifyError(p *elog.Program, err error) *Error {
	pos := (*Pos)(nil)
	for i, r := range p.Rules {
		for _, c := range r.Conds {
			if ref, ok := c.(elog.PatternRefCond); ok && ref.Negated {
				pos = &Pos{Rule: i + 1}
				break
			}
		}
		if pos != nil {
			break
		}
	}
	return &Error{Kind: KindStratify, Msg: err.Error(), Pos: pos, Err: err}
}

// Program returns the parsed Elog program. It must not be mutated.
func (w *Wrapper) Program() *elog.Program { return w.program }

// Compiled returns the bitset-compiled form (elog.Compile); its match
// caches persist across Extract calls.
func (w *Wrapper) Compiled() *elog.CompiledProgram { return w.compiled }

// Design returns the wrapper's XML design (the Compile-time default;
// per-call design options never mutate it).
func (w *Wrapper) Design() *pib.Design { return w.cfg.design }

// Patterns returns the pattern names the program defines, in
// first-definition order.
func (w *Wrapper) Patterns() []string { return w.program.Patterns() }

// String renders the program back in Elog concrete syntax.
func (w *Wrapper) String() string { return strings.TrimRight(w.program.String(), "\n") }

// Result is one extraction's output: the pattern instance base plus
// the XML rendering under the wrapper's design.
type Result struct {
	// Base is the pattern instance base (Section 3.1).
	Base *pib.Base

	design *pib.Design
	// w is set when this result may render through the wrapper's
	// incremental output cache (WithIncrementalOutput, and the call used
	// the wrapper's own design).
	w    *Wrapper
	once sync.Once
	doc  *xmlenc.Node
}

// XML returns the instance base transformed to XML (computed once).
// Under WithIncrementalOutput the document shares frozen subtrees with
// previous extractions' documents and must be treated as read-only.
func (r *Result) XML() *xmlenc.Node {
	r.once.Do(func() {
		if r.w == nil {
			r.doc = r.design.Transform(r.Base)
			return
		}
		r.w.outMu.Lock()
		if r.w.outCache == nil {
			r.w.outCache = pib.NewOutputCache()
		}
		r.doc = r.design.TransformIncremental(r.Base, r.w.outCache)
		r.w.outMu.Unlock()
	})
	return r.doc
}

// Instances returns the instances of one pattern, in extraction order.
func (r *Result) Instances(pattern string) []*pib.Instance { return r.Base.Instances(pattern) }

// Extract runs the wrapper against one source. The context is observed
// at every fetch boundary: cancellation aborts the crawl and surfaces
// as a KindFetch error with errors.Is(err, context.Canceled) true.
// Per-call options override the wrapper's defaults for this call only.
func (w *Wrapper) Extract(ctx context.Context, src Source, opts ...Option) (*Result, error) {
	cfg := w.cfg.clone()
	for _, o := range opts {
		o(&cfg)
	}
	if src == nil {
		return nil, &Error{Kind: KindEval, Msg: "nil source"}
	}
	if err := ctx.Err(); err != nil {
		return nil, &Error{Kind: KindFetch, Msg: err.Error(), Err: err}
	}
	fetch := cfg.fetcher
	if cfg.shared != nil && fetch != nil {
		// The shared fetch layer caches only the configured fetcher;
		// inline source overlays built below stay extraction-private.
		fetch = cfg.shared.Wrap(fetch)
	}
	f, err := src.fetcher(ctx, w.program, fetch)
	if err != nil {
		return nil, AsError(err)
	}
	ev := elog.NewEvaluator(&ctxFetcher{ctx: ctx, inner: f})
	if cfg.concepts != nil {
		ev.Concepts = cfg.concepts
	}
	if cfg.maxDocuments > 0 {
		ev.MaxDocuments = cfg.maxDocuments
	}
	if cfg.maxInstances > 0 {
		ev.MaxInstances = cfg.maxInstances
	}
	ev.MaxConcurrency = cfg.concurrency
	ev.Shared = cfg.batch
	ev.Incremental = cfg.incremental
	var base *pib.Base
	if cfg.cache {
		base, err = ev.RunCompiled(w.compiled)
	} else {
		base, err = ev.Run(w.program)
	}
	if err != nil {
		return nil, newError(KindEval, err)
	}
	res := &Result{Base: base, design: cfg.design}
	if cfg.incrementalOutput && cfg.design == w.cfg.design {
		// Per-call design edits copy-on-write cfg.design, so pointer
		// equality means the render the cache was built for.
		res.w = w
	}
	return res, nil
}

// ExtractAll extracts every source concurrently, fanning out over at
// most WithConcurrency workers (default GOMAXPROCS); each worker's
// crawl then overlaps fetches through the evaluator's frontier. The
// returned slice is aligned with srcs; a failed source leaves a nil
// Result and its error joined into the returned error.
func (w *Wrapper) ExtractAll(ctx context.Context, srcs []Source, opts ...Option) ([]*Result, error) {
	cfg := w.cfg.clone()
	for _, o := range opts {
		o(&cfg)
	}
	workers := cfg.concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(srcs) {
		workers = len(srcs)
	}
	results := make([]*Result, len(srcs))
	errs := make([]error, len(srcs))
	next := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = w.Extract(ctx, srcs[i], opts...)
			}
		}()
	}
	for i := range srcs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, errors.Join(errs...)
}
