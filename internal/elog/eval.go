package elog

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/concepts"
	"repro/internal/dom"
	"repro/internal/pib"
	"repro/internal/strata"
)

// errCrawlLimit marks the crawl guard tripping; unlike a dangling link,
// it aborts evaluation.
var errCrawlLimit = errors.New("elog: crawl limit")

// errDangling marks a getDocument fetch that failed. It never leaves the
// evaluator: crawling skips the link, and runSerial queues the parent to
// retry in the next fixpoint pass.
var errDangling = errors.New("elog: dangling link")

// Fetcher resolves URLs to parsed HTML documents. The simulated web of
// internal/web provides one; tests use in-memory maps.
//
// The evaluator's crawl frontier calls Fetch from multiple goroutines,
// so fetchers must be safe for concurrent use (internal/web is; a bare
// MapFetcher is, as map reads).
type Fetcher interface {
	Fetch(url string) (*dom.Tree, error)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(url string) (*dom.Tree, error)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(url string) (*dom.Tree, error) { return f(url) }

// MapFetcher serves documents from an in-memory map.
type MapFetcher map[string]*dom.Tree

// Fetch implements Fetcher.
func (m MapFetcher) Fetch(url string) (*dom.Tree, error) {
	if t, ok := m[url]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("elog: no document at %q", url)
}

// Evaluator runs Elog programs. The zero value is not usable; use
// NewEvaluator.
type Evaluator struct {
	// Fetcher resolves document(url, S) atoms and getDocument crawling.
	Fetcher Fetcher
	// Concepts provides the concept conditions; defaults to the
	// built-in base.
	Concepts *concepts.Base
	// MaxDocuments bounds crawling (default 64).
	MaxDocuments int
	// MaxInstances bounds the pattern instance base (default 100000),
	// guarding against runaway recursive wrapping.
	MaxInstances int
	// MaxConcurrency bounds how many documents the crawl frontier
	// fetches and parses in parallel, and how many rule-application
	// jobs run concurrently within a stratum (default GOMAXPROCS).
	// Candidate generation for provably independent rules overlaps;
	// instances are committed sequentially in rule order, so the
	// resulting base is bit-identical to a fully serial evaluation at
	// any concurrency level.
	MaxConcurrency int
	// Shared, when set, consults and feeds a fleet-shared match cache
	// (see MatchCache): compiled pattern matches are then reused across
	// every program whose evaluator shares the cache, keyed by path
	// signature and document fingerprint. Output is unchanged — only the
	// matching work is shared.
	Shared *MatchCache
	// Incremental enables subtree-fingerprint match reuse: on a match
	// miss (a changed document), context roots whose subtree content was
	// seen before — in a previous version of the page, or in another
	// wrapper's run via Shared — resolve their candidate sets from the
	// content-addressed subtree cache, and only the dirty regions run
	// the bitset matcher. The instance base is bit-identical to a full
	// evaluation; only the matching work shrinks to the changed regions.
	// Documents whose NodeIDs are not in document order (dom.DocOrdered)
	// fall back to full matching automatically.
	Incremental bool
}

// NewEvaluator returns an evaluator with the built-in concept base.
func NewEvaluator(f Fetcher) *Evaluator {
	return &Evaluator{Fetcher: f, Concepts: concepts.NewBase(), MaxDocuments: 64, MaxInstances: 100000}
}

// Run evaluates the program: document(url, S) entry rules fetch their
// pages through the Fetcher, patterns are computed to fixpoint
// (supporting recursive wrapping and crawling), and the resulting
// pattern instance base is returned. Documents are fetched through a
// concurrent crawl frontier (see MaxConcurrency), but the instance
// base is built in the same deterministic order as a serial crawl.
//
// A single Elog program "can be used for continuous wrapping of changing
// pages or to wrap several HTML pages of similar structure"
// (Section 3.1) — Run is stateless; call it again to re-wrap.
func (ev *Evaluator) Run(p *Program) (*pib.Base, error) { return ev.run(p, nil) }

// RunCompiled evaluates a compiled program: pattern matching runs on
// the bitset kernel and is memoized per document fingerprint, so
// re-wrapping unchanged pages skips the tree walks entirely. The
// instance base is identical to Run's on the same inputs.
func (ev *Evaluator) RunCompiled(cp *CompiledProgram) (*pib.Base, error) {
	return ev.run(cp.Program, cp)
}

// runner is the state of one evaluation: the instance base under
// construction, the crawl bookkeeping, the optional compiled form, and
// the semi-naive fixpoint's per-rule cursors.
type runner struct {
	ev   *Evaluator
	cp   *CompiledProgram // nil for interpreted execution
	base *pib.Base
	fr   *frontier
	docs map[string]*pib.Instance // fetched documents by URL
	// refs indexes the instances of every pattern a rule references
	// (pattern(_, V) conditions) by their single node, so a reference
	// costs one lookup instead of a scan of the pattern. Only add
	// writes it, on the evaluation goroutine and never while a wave's
	// candidate generation runs; generation only reads it.
	refs map[string]map[refKey]struct{}
	// cursors records how far each rule has got through its parents.
	cursors map[*Rule]*cursor
	// jobs is runWave's scratch job list, reused across waves and
	// fixpoint passes of this evaluation.
	jobs []waveJob
}

// refKey identifies a single-node instance for the pattern-reference
// index: a reference pattern(_, V) holds when some instance of pattern
// consists of exactly V's node in the candidate's document.
type refKey struct {
	doc  *dom.Tree
	node dom.NodeID
}

// cursor is one rule's progress through the semi-naive fixpoint. A
// (rule, parent) pair regenerates exactly the candidates it generated
// before — already committed, so deduplicated — unless the state it
// read has changed since. Only two kinds of state can change under an
// old parent: a positively referenced pattern can gain instances, and a
// crawl fetch that failed can succeed. So a pass visits the parents the
// rule has not seen yet, plus every parent when a referenced pattern
// grew, plus the parents whose fetch failed.
type cursor struct {
	// seen counts the parents earlier passes visited: a prefix of the
	// parent pattern's instances (or of an entry rule's one document).
	seen int
	// refs lists the positively referenced patterns; sizes holds their
	// index sizes when the rule's last pass started.
	refs  []string
	sizes []int
	// retry holds the parents whose getDocument fetch failed, in
	// instance order; they re-enter the next pass.
	retry []*pib.Instance
}

// waveJob is one (rule, parent) candidate-generation unit of a wave.
type waveJob struct {
	rule     *Rule
	parent   *pib.Instance
	accepted []candidate
	err      error
}

func (ev *Evaluator) run(p *Program, cp *CompiledProgram) (*pib.Base, error) {
	r, strata, err := ev.start(p, cp)
	defer r.fr.drain()
	if err != nil {
		return r.base, err
	}
	for _, waves := range strata {
		if err := r.runStratum(waves); err != nil {
			return r.base, err
		}
	}
	return r.base, nil
}

// start prepares one evaluation: the runner, with its crawl frontier
// seeded, and the program's strata planned into waves. The caller must
// drain the frontier, also when start fails.
//
// Elog supports stratified negation (Section 3.3): rules with negated
// pattern references must see the referenced pattern fully computed.
// The rules are grouped into strata, and each stratum's rules run to
// fixpoint (rules within a stratum may feed each other — pattern
// references, recursive wrapping).
func (ev *Evaluator) start(p *Program, cp *CompiledProgram) (*runner, [][]wave, error) {
	r := &runner{ev: ev, cp: cp, base: pib.NewBase(), docs: map[string]*pib.Instance{},
		refs: map[string]map[refKey]struct{}{}, cursors: map[*Rule]*cursor{}}
	r.fr = newFrontier(ev.Fetcher, ev.MaxConcurrency, ev.max(ev.MaxDocuments, 64), cp != nil)
	var strata [][]wave
	if cp != nil {
		strata = cp.waves
	} else {
		st, err := Stratify(p)
		if err != nil {
			return r, nil, err
		}
		for _, rules := range st {
			strata = append(strata, planWaves(rules))
		}
	}
	for _, rule := range p.Rules {
		for _, c := range rule.Conds {
			if ref, ok := c.(PatternRefCond); ok {
				r.refs[ref.Pattern] = map[refKey]struct{}{}
			}
		}
	}
	// Seed the frontier with every entry page: they are all fetched
	// eventually, so announcing them up front overlaps their fetch and
	// parse latencies.
	for _, rule := range p.Rules {
		if rule.DocURL != "" {
			r.fr.prefetch(rule.DocURL)
		}
	}
	return r, strata, nil
}

// wave is a run of consecutive stratum rules whose candidate-generation
// phases are mutually independent: no member reads (via its parent
// pattern or a pattern reference) a pattern any member writes.
// Sequential waves are singletons that must interleave generation and
// commit exactly like the serial evaluator: document/crawl rules (they
// mutate the crawl bookkeeping) and self-recursive rules (a later
// parent's generation may read an earlier parent's commits).
type wave struct {
	rules      []*Rule
	sequential bool
}

// ruleReads returns the patterns whose instance sets candidate
// generation for the rule consults: the parent pattern and every
// pattern reference (negated references point to lower strata and so
// can never conflict within one, but listing them is harmless).
func ruleReads(rule *Rule) []string {
	var out []string
	if rule.DocURL == "" {
		out = append(out, rule.Parent)
	}
	for _, c := range rule.Conds {
		if ref, ok := c.(PatternRefCond); ok {
			out = append(out, ref.Pattern)
		}
	}
	return out
}

// ruleSequential reports whether the rule must run on the interleaved
// serial path: entry rules and getDocument rules drive the crawl
// frontier and mutate the document table, and a rule that reads its own
// head must see each parent's commits before the next parent's
// generation, exactly as the serial evaluator does.
func ruleSequential(rule *Rule) bool {
	if rule.DocURL != "" {
		return true
	}
	if rule.Extract != nil && rule.Extract.Kind == GetDocument {
		return true
	}
	for _, p := range ruleReads(rule) {
		if p == rule.Head {
			return true
		}
	}
	return false
}

// planWaves greedily partitions a stratum's rule list, preserving rule
// order, into waves safe for concurrent candidate generation. A rule
// opens a new wave when it reads a pattern some earlier member of the
// current wave writes (it must observe those commits first) or when it
// needs the serial path.
func planWaves(rules []*Rule) []wave {
	var out []wave
	var cur []*Rule
	heads := map[string]bool{}
	flush := func() {
		if len(cur) > 0 {
			out = append(out, wave{rules: cur})
			cur = nil
			heads = map[string]bool{}
		}
	}
	for _, rule := range rules {
		if ruleSequential(rule) {
			flush()
			out = append(out, wave{rules: []*Rule{rule}, sequential: true})
			continue
		}
		for _, p := range ruleReads(rule) {
			if heads[p] {
				flush()
				break
			}
		}
		cur = append(cur, rule)
		heads[rule.Head] = true
	}
	flush()
	return out
}

// runStratum evaluates one stratum's rules to fixpoint, semi-naively.
// Each pass walks the waves in rule order, and each rule visits only
// its delta (see cursor), so a recursive rule costs one visit per
// parent instead of one per parent per pass. A pass that commits
// nothing ends the loop: then no rule has a new parent, and no
// referenced pattern grew. The skipped visits would only have
// regenerated committed instances, so the base — ids and commit order
// included — is the one a naive fixpoint revisiting every parent on
// every pass builds. At MaxConcurrency 1, or whenever every wave is a
// singleton, the evaluation order is exactly the serial one.
func (r *runner) runStratum(waves []wave) error {
	conc := r.ev.MaxConcurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	for {
		changed := false
		for _, w := range waves {
			wc, err := r.runWave(w, conc)
			if wc {
				changed = true
			}
			if err != nil {
				return err
			}
		}
		if !changed {
			return nil
		}
	}
}

// delta returns the parents rule must visit in this pass, in instance
// order, and advances the rule's cursor past them: the parents it has
// not seen, preceded by the ones whose crawl fetch failed — or every
// parent, when a positively referenced pattern grew since the rule's
// last pass. fresh is the never-visited suffix. An entry rule's only
// parent is its document, fetched on the first visit.
func (r *runner) delta(rule *Rule) (visit, fresh []*pib.Instance, err error) {
	c := r.cursors[rule]
	if c == nil {
		c = &cursor{}
		for _, cond := range rule.Conds {
			if ref, ok := cond.(PatternRefCond); ok && !ref.Negated {
				c.refs = append(c.refs, ref.Pattern)
			}
		}
		c.sizes = make([]int, len(c.refs))
		r.cursors[rule] = c
	}
	rescan := false
	for i, p := range c.refs {
		if n := len(r.refs[p]); n != c.sizes[i] {
			c.sizes[i], rescan = n, true
		}
	}
	var all []*pib.Instance
	if rule.DocURL != "" {
		if c.seen > 0 && !rescan {
			return nil, nil, nil
		}
		in, err := r.fetchDoc(rule.DocURL)
		if err != nil {
			return nil, nil, fmt.Errorf("elog: rule for %s: %w", rule.Head, err)
		}
		all = []*pib.Instance{in}
	} else {
		all = r.base.Instances(rule.Parent)
	}
	fresh = all[c.seen:]
	switch {
	case rescan:
		visit = all
	case len(c.retry) > 0:
		visit = append(c.retry, fresh...)
	default:
		visit = fresh
	}
	c.seen, c.retry = len(all), nil
	return visit, fresh, nil
}

// runWave evaluates one wave: candidate generation runs concurrently
// over every (rule, parent) job, then instances are committed on the
// evaluation goroutine in job order. Because no job's generation reads
// a pattern the wave writes, every job sees the same base it would have
// seen serially, and the ordered commit assigns the same instance ids —
// the resulting base is bit-identical to serial evaluation.
func (r *runner) runWave(w wave, conc int) (bool, error) {
	if w.sequential || conc <= 1 {
		return r.runSerial(w.rules)
	}
	jobs := r.jobs[:0]
	for _, rule := range w.rules {
		visit, _, err := r.delta(rule)
		if err != nil {
			return false, err
		}
		for _, s := range visit {
			jobs = append(jobs, waveJob{rule: rule, parent: s})
		}
	}
	r.jobs = jobs
	if len(jobs) == 0 {
		return false, nil
	}
	if conc > len(jobs) {
		conc = len(jobs)
	}
	var next atomic.Int64
	work := func() {
		for {
			j := int(next.Add(1)) - 1
			if j >= len(jobs) {
				return
			}
			jb := &jobs[j]
			jb.accepted, jb.err = r.ruleCandidates(jb.rule, jb.parent)
		}
	}
	if conc == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	changed := false
	for j := range jobs {
		jb := &jobs[j]
		if jb.err != nil {
			// Generation has no side effects, so discarding the later
			// jobs' candidates leaves the base exactly as the serial
			// evaluator would have: committed up to the failing job.
			return changed, jb.err
		}
		if r.commit(jb.rule, jb.parent, jb.accepted) {
			changed = true
		}
		if err := r.checkLimit(); err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// runSerial is the interleaved loop: one rule at a time, one parent at
// a time, committing before the next generation. Crawl-driving and
// self-recursive rules require it; it is also the whole story at
// MaxConcurrency 1.
func (r *runner) runSerial(rules []*Rule) (bool, error) {
	changed := false
	for _, rule := range rules {
		parents, fresh, err := r.delta(rule)
		if err != nil {
			return changed, err
		}
		if rule.Extract != nil && rule.Extract.Kind == GetDocument {
			// Open the crawl frontier: every URL this rule is about to
			// request for the first time is known before the first
			// fetch, so the pages download in parallel while rule
			// application consumes them sequentially in stable order.
			// Retried parents were announced when they were fresh.
			for _, s := range fresh {
				if url, ok := crawlURL(s); ok {
					r.fr.prefetch(url)
				}
			}
		}
		for _, s := range parents {
			added, err := r.applyRule(rule, s)
			if errors.Is(err, errDangling) {
				c := r.cursors[rule]
				c.retry = append(c.retry, s)
				continue
			}
			if err != nil {
				return changed, err
			}
			if added {
				changed = true
			}
			if err := r.checkLimit(); err != nil {
				return changed, err
			}
		}
	}
	return changed, nil
}

// checkLimit enforces MaxInstances, the guard against runaway recursive
// wrapping; both loops call it after every commit.
func (r *runner) checkLimit() error {
	if r.base.Count() > r.ev.max(r.ev.MaxInstances, 100000) {
		return errors.New("elog: instance limit exceeded (recursive wrapper runaway?)")
	}
	return nil
}

// fetchDoc returns the document instance for url, consuming the crawl
// frontier. It runs on the evaluation goroutine only, so instance ids
// and the crawl limit are accounted in deterministic request order.
func (r *runner) fetchDoc(url string) (*pib.Instance, error) {
	if in, ok := r.docs[url]; ok {
		return in, nil
	}
	if len(r.docs) >= r.ev.max(r.ev.MaxDocuments, 64) {
		return nil, fmt.Errorf("%w of %d documents exceeded", errCrawlLimit, r.ev.max(r.ev.MaxDocuments, 64))
	}
	t, err := r.fr.get(url)
	if err != nil {
		return nil, err
	}
	in := &pib.Instance{Pattern: "document", Kind: pib.DocumentInstance,
		Doc: t, URL: url, Nodes: []dom.NodeID{t.Root()}}
	in, _ = r.add(in)
	r.docs[url] = in
	return in, nil
}

// match dispatches an extraction-path match to the compiled bitset
// matcher when a compiled form is present, else to the interpreter.
func (r *runner) match(e *EPD, t *dom.Tree, roots []dom.NodeID, asChildren bool) []epdMatch {
	if r.cp != nil {
		if ce := r.cp.epds[e]; ce != nil {
			return ce.match(r.cp, r.ev.Shared, t, roots, asChildren, false, r.ev.Incremental)
		}
	}
	return e.Match(t, roots, asChildren)
}

// matchDeep is match with the implicit leading descent of context and
// internal conditions.
func (r *runner) matchDeep(e *EPD, t *dom.Tree, roots []dom.NodeID, asChildren bool) []epdMatch {
	if r.cp != nil {
		if ce := r.cp.epds[e]; ce != nil {
			return ce.match(r.cp, r.ev.Shared, t, roots, asChildren, true, r.ev.Incremental)
		}
	}
	return e.MatchDeep(t, roots, asChildren)
}

// Stratify partitions the program's rules into strata such that negated
// pattern references only point to strictly lower strata; positive
// dependencies (parents, positive references) stay within or below. It
// returns an error for programs with negation cycles, which have no
// stratified semantics.
//
// The stratum numbers come from the shared solver in internal/strata
// (also used by the generic datalog engine): a rule's head depends
// positively on its parent pattern and on each positive pattern
// reference, and negatively on each negated pattern reference.
func Stratify(p *Program) ([][]*Rule, error) {
	deps := make([]strata.Rule, 0, len(p.Rules))
	for _, r := range p.Rules {
		sr := strata.Rule{Head: r.Head}
		if r.DocURL == "" {
			sr.Deps = append(sr.Deps, strata.Dep{Pred: r.Parent})
		}
		for _, c := range r.Conds {
			if ref, ok := c.(PatternRefCond); ok {
				sr.Deps = append(sr.Deps, strata.Dep{Pred: ref.Pattern, Negated: ref.Negated})
			}
		}
		deps = append(deps, sr)
	}
	stratum, err := strata.Solve(deps)
	if err != nil {
		return nil, fmt.Errorf("elog: program is not stratifiable (cycle through a negated pattern reference)")
	}
	out := make([][]*Rule, strata.Height(stratum))
	for _, r := range p.Rules {
		out[stratum[r.Head]] = append(out[stratum[r.Head]], r)
	}
	return out, nil
}

func (ev *Evaluator) max(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// binding maps Elog variables to values: "S", "X" plus regvar and
// condition-bound variables. Rules bind a handful of variables, so the
// entries live in small slices scanned linearly — in the per-candidate
// hot path this beats allocating two maps per candidate and two more
// per backtracking branch by a wide margin (the E18 allocs/op budget).
type binding struct {
	// node-valued variables.
	nodes []nodeBind
	// string-valued variables.
	strs []strBind
}

type nodeBind struct {
	name string
	node dom.NodeID
}

type strBind struct {
	name, val string
}

// branch returns a child binding sharing this one's entries. The
// capacity caps force any append in the child to reallocate, so sibling
// backtracking branches never observe each other's bindings.
func (b *binding) branch() binding {
	return binding{
		nodes: b.nodes[:len(b.nodes):len(b.nodes)],
		strs:  b.strs[:len(b.strs):len(b.strs)],
	}
}

// setNode binds name to a node, replacing an existing binding
// copy-on-write (the backing array may be shared with other branches).
func (b *binding) setNode(name string, n dom.NodeID) {
	for i := range b.nodes {
		if b.nodes[i].name == name {
			nodes := make([]nodeBind, len(b.nodes))
			copy(nodes, b.nodes)
			nodes[i].node = n
			b.nodes = nodes
			return
		}
	}
	b.nodes = append(b.nodes, nodeBind{name, n})
}

// setStr binds name to a string, replacing copy-on-write like setNode.
func (b *binding) setStr(name, val string) {
	for i := range b.strs {
		if b.strs[i].name == name {
			strs := make([]strBind, len(b.strs))
			copy(strs, b.strs)
			strs[i].val = val
			b.strs = strs
			return
		}
	}
	b.strs = append(b.strs, strBind{name, val})
}

func (b *binding) node(name string) (dom.NodeID, bool) {
	for i := range b.nodes {
		if b.nodes[i].name == name {
			return b.nodes[i].node, true
		}
	}
	return dom.Nil, false
}

func (b *binding) str(name string) (string, bool) {
	for i := range b.strs {
		if b.strs[i].name == name {
			return b.strs[i].val, true
		}
	}
	return "", false
}

// candidate is a prospective instance produced by the extraction atom.
type candidate struct {
	kind  pib.Kind
	nodes []dom.NodeID
	text  string
	doc   *dom.Tree
	url   string
	binds map[string]string
}

// applyRule evaluates one rule for one parent instance; it returns
// whether any new instance was added, or errDangling when the parent's
// crawl fetch failed.
func (r *runner) applyRule(rule *Rule, s *pib.Instance) (bool, error) {
	accepted, err := r.ruleCandidates(rule, s)
	if err != nil {
		return false, err
	}
	return r.commit(rule, s, accepted), nil
}

// ruleCandidates is the generation phase of one (rule, parent) job:
// extraction, condition filtering, and the subsq/firstsubtree
// post-filters. It only reads evaluation state (the instance base, the
// concept base, warmed document trees, memoized match caches), never
// writes it, so independent jobs run concurrently — runWave relies on
// this. Crawl-driving rules (getDocument, document entry) are the
// exception and never reach here concurrently: ruleSequential pins them
// to the serial path because their extraction fetches documents.
func (r *runner) ruleCandidates(rule *Rule, s *pib.Instance) ([]candidate, error) {
	cands, err := r.extract(rule, s)
	if err != nil {
		return nil, err
	}
	var accepted []candidate
	for _, c := range cands {
		var b binding
		b.nodes = make([]nodeBind, 0, 2)
		if len(c.nodes) > 0 {
			b.nodes = append(b.nodes, nodeBind{"X", c.nodes[0]})
		}
		if len(s.Nodes) > 0 {
			b.nodes = append(b.nodes, nodeBind{"S", s.Nodes[0]})
		}
		for k, v := range c.binds {
			b.setStr(k, v)
		}
		ok, err := r.conditions(rule, s, c, b, 0)
		if err != nil {
			return nil, err
		}
		if ok {
			accepted = append(accepted, c)
		}
	}
	if rule.Extract != nil && rule.Extract.Kind == Subsq {
		accepted = maximalOnly(accepted)
	}
	for _, c := range rule.Conds {
		if _, ok := c.(FirstCond); ok {
			accepted = firstOnly(accepted)
			break
		}
	}
	return accepted, nil
}

// commit adds the accepted candidates of one (rule, parent) job to the
// instance base. It runs on the evaluation goroutine only, in job
// order, so instance ids and dedup decisions are deterministic.
func (r *runner) commit(rule *Rule, s *pib.Instance, accepted []candidate) bool {
	changed := false
	for _, c := range accepted {
		inst := &pib.Instance{
			Pattern: rule.Head, Kind: c.kind, Doc: c.doc, URL: c.url,
			Nodes: c.nodes, Text: c.text, Parent: s,
		}
		if _, added := r.add(inst); added {
			changed = true
		}
	}
	return changed
}

// add inserts an instance into the base and, when its pattern is
// referenced and it covers a single node, into the reference index.
func (r *runner) add(in *pib.Instance) (*pib.Instance, bool) {
	in, added := r.base.Add(in)
	if added && len(in.Nodes) == 1 {
		if set, ok := r.refs[in.Pattern]; ok {
			set[refKey{in.Doc, in.Nodes[0]}] = struct{}{}
		}
	}
	return in, added
}

// firstOnly keeps the candidate earliest in document order — the
// firstsubtree internal condition.
func firstOnly(cands []candidate) []candidate {
	best := -1
	bestPre := 1 << 30
	for i, c := range cands {
		if len(c.nodes) == 0 {
			continue
		}
		if p := c.doc.Pre(c.nodes[0]); p < bestPre {
			best, bestPre = i, p
		}
	}
	if best < 0 {
		if len(cands) > 0 {
			return cands[:1]
		}
		return nil
	}
	return cands[best : best+1]
}

// maximalOnly keeps, among accepted subsq candidates, only those whose
// node range is not strictly contained in another accepted candidate's
// range ("the largest sequence").
func maximalOnly(cands []candidate) []candidate {
	var out []candidate
	for i, c := range cands {
		contained := false
		for j, d := range cands {
			if i == j || len(c.nodes) == 0 || len(d.nodes) == 0 {
				continue
			}
			if d.nodes[0] <= c.nodes[0] && c.nodes[len(c.nodes)-1] <= d.nodes[len(d.nodes)-1] &&
				len(d.nodes) > len(c.nodes) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, c)
		}
	}
	return out
}

// extract produces the candidate instances of a rule for parent s.
func (r *runner) extract(rule *Rule, s *pib.Instance) ([]candidate, error) {
	if rule.Specialize {
		// The candidate is the parent instance itself.
		return []candidate{{kind: s.Kind, nodes: s.Nodes, text: s.Text, doc: s.Doc, url: s.URL}}, nil
	}
	e := rule.Extract
	switch e.Kind {
	case Subelem:
		if len(s.Nodes) == 0 {
			return nil, nil
		}
		var out []candidate
		for _, m := range r.match(e.EPD, s.Doc, s.Nodes, s.Kind == pib.SequenceInstance) {
			out = append(out, candidate{kind: pib.NodeInstance, nodes: []dom.NodeID{m.node}, doc: s.Doc, url: s.URL, binds: m.binds})
		}
		return out, nil
	case Subsq:
		if len(s.Nodes) == 0 {
			return nil, nil
		}
		var out []candidate
		for _, fm := range r.match(e.From, s.Doc, s.Nodes, s.Kind == pib.SequenceInstance) {
			seqs := candidateSequences(s.Doc, fm.node, e.Start, e.End)
			for _, seq := range seqs {
				out = append(out, candidate{kind: pib.SequenceInstance, nodes: seq, doc: s.Doc, url: s.URL, binds: fm.binds})
			}
		}
		return out, nil
	case Subtext:
		text := s.TextContent()
		var out []candidate
		for _, m := range e.SPD.Match(text) {
			out = append(out, candidate{kind: pib.StringInstance, text: m.text, doc: s.Doc, url: s.URL, binds: m.binds})
		}
		return out, nil
	case Subatt:
		if len(s.Nodes) == 0 {
			return nil, nil
		}
		var out []candidate
		for _, n := range s.Nodes {
			if v, ok := s.Doc.Attr(n, e.Attr); ok {
				out = append(out, candidate{kind: pib.StringInstance, text: v, doc: s.Doc, url: s.URL})
			}
		}
		return out, nil
	case GetDocument:
		url, ok := crawlURL(s)
		if !ok {
			return nil, nil
		}
		in, err := r.fetchDoc(url)
		if err != nil {
			// A cancelled context must abort the whole evaluation, not
			// degrade every remaining crawl step into a "dangling link".
			if errors.Is(err, errCrawlLimit) ||
				errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			// A dangling link is not a wrapper failure; crawling skips
			// it, and the caller retries it in the next pass.
			return nil, errDangling
		}
		return []candidate{{kind: pib.NodeInstance, nodes: in.Nodes, doc: in.Doc, url: in.URL}}, nil
	}
	return nil, fmt.Errorf("elog: unknown extraction kind")
}

// crawlURL derives the document URL a getDocument extraction for
// parent s requests: the instance's text resolved against its source
// document. The frontier announce loop and the consuming extraction
// share it, so prefetched keys always match what is consumed.
func crawlURL(s *pib.Instance) (string, bool) {
	url := strings.TrimSpace(s.TextContent())
	if url == "" {
		return "", false
	}
	return resolveURL(s.URL, url), true
}

// resolveURL resolves a possibly relative URL against the base document
// URL (string prefix resolution; the simulated web uses path-style
// URLs).
func resolveURL(base, ref string) string {
	if strings.Contains(ref, "://") || base == "" {
		return ref
	}
	if strings.HasPrefix(ref, "/") {
		// Keep scheme+host of base.
		if i := strings.Index(base, "://"); i >= 0 {
			if j := strings.IndexByte(base[i+3:], '/'); j >= 0 {
				return base[:i+3+j] + ref
			}
			return base + ref
		}
		return ref
	}
	// Relative: replace last path component.
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		return base[:i+1] + ref
	}
	return ref
}

// candidateSequences enumerates the runs of consecutive children of
// parent that start at a child self-matching start and end at a child
// self-matching end. All candidate ranges are produced; the rule's
// conditions select among them, and applyRule keeps only the largest
// surviving ones (Figure 5: "the (largest) sequence ... such that the
// first node immediately follows the list header and the final node is
// immediately followed by an hr").
func candidateSequences(t *dom.Tree, parent dom.NodeID, start, end *EPD) [][]dom.NodeID {
	children := t.Children(parent)
	var starts, ends []int
	for i, c := range children {
		if start.SelfMatch(t, c) {
			starts = append(starts, i)
		}
		if end.SelfMatch(t, c) {
			ends = append(ends, i)
		}
	}
	var out [][]dom.NodeID
	for _, i := range starts {
		for _, j := range ends {
			if j < i {
				continue
			}
			out = append(out, append([]dom.NodeID(nil), children[i:j+1]...))
		}
	}
	return out
}

// conditions evaluates rule.Conds[i:] under binding b with backtracking
// over the choices introduced by before/after/contains. Bindings pass
// by value; branches extend them copy-on-write (see binding.branch).
func (r *runner) conditions(rule *Rule, s *pib.Instance, c candidate, b binding, i int) (bool, error) {
	if i == len(rule.Conds) {
		return true, nil
	}
	cond := rule.Conds[i]
	switch cc := cond.(type) {
	case BeforeCond:
		// In a specialization rule head(S, X) <- parent(S, X), the rule
		// variable S denotes the parent instance's own parent — context
		// conditions scope there, not at the instance being specialized.
		scope := s
		if rule.Specialize && s.Parent != nil {
			scope = s.Parent
		}
		matches := r.contextMatches(scope, c, cc)
		if cc.Negated {
			if len(matches) > 0 {
				return false, nil
			}
			return r.conditions(rule, s, c, b, i+1)
		}
		for _, m := range matches {
			nb := b.branch()
			if cc.Var != "" {
				nb.setNode(cc.Var, m.node)
				nb.setStr(cc.Var, strings.TrimSpace(c.doc.ElementText(m.node)))
			}
			if cc.DistVar != "" {
				nb.setStr(cc.DistVar, fmt.Sprintf("%d", m.dist))
			}
			for k, v := range m.binds {
				nb.setStr(k, v)
			}
			ok, err := r.conditions(rule, s, c, nb, i+1)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case ContainsCond:
		if len(c.nodes) == 0 {
			if cc.Negated {
				return r.conditions(rule, s, c, b, i+1)
			}
			return false, nil
		}
		ms := r.matchDeep(cc.EPD, c.doc, c.nodes, c.kind == pib.SequenceInstance)
		if cc.Negated {
			if len(ms) > 0 {
				return false, nil
			}
			return r.conditions(rule, s, c, b, i+1)
		}
		for _, m := range ms {
			nb := b.branch()
			if cc.Var != "" {
				nb.setNode(cc.Var, m.node)
				nb.setStr(cc.Var, strings.TrimSpace(c.doc.ElementText(m.node)))
			}
			for k, v := range m.binds {
				nb.setStr(k, v)
			}
			ok, err := r.conditions(rule, s, c, nb, i+1)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case ConceptCond:
		val, ok := r.varText(&b, c, cc.Var)
		if !ok {
			return false, fmt.Errorf("elog: rule for %s: concept %s on unbound variable %s", rule.Head, cc.Concept, cc.Var)
		}
		holds := r.ev.Concepts.Holds(cc.Concept, val)
		if holds == cc.Negated {
			return false, nil
		}
		return r.conditions(rule, s, c, b, i+1)
	case CompareCond:
		l, ok1 := r.operandText(&b, c, cc.L)
		rv, ok2 := r.operandText(&b, c, cc.R)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("elog: rule for %s: comparison on unbound variable", rule.Head)
		}
		holds, err := concepts.Compare(cc.Op, l, rv)
		if err != nil {
			return false, err
		}
		if !holds {
			return false, nil
		}
		return r.conditions(rule, s, c, b, i+1)
	case FirstCond:
		// Handled as a post-filter in applyRule; as an in-place
		// condition it is vacuously true.
		return r.conditions(rule, s, c, b, i+1)
	case PatternRefCond:
		n, ok := b.node(cc.Var)
		if !ok {
			return false, fmt.Errorf("elog: rule for %s: pattern reference %s(_, %s) on unbound variable", rule.Head, cc.Pattern, cc.Var)
		}
		_, found := r.refs[cc.Pattern][refKey{c.doc, n}]
		if found == cc.Negated {
			return false, nil
		}
		return r.conditions(rule, s, c, b, i+1)
	}
	return false, fmt.Errorf("elog: unknown condition %T", cond)
}

// varText resolves a variable to text: string binding first, then the
// element text of a node binding, then the candidate itself for "X".
func (r *runner) varText(b *binding, c candidate, v string) (string, bool) {
	if s, ok := b.str(v); ok && s != "" {
		return s, true
	}
	if n, ok := b.node(v); ok {
		return strings.TrimSpace(c.doc.ElementText(n)), true
	}
	if v == "X" {
		if c.kind == pib.StringInstance {
			return c.text, true
		}
		var sb strings.Builder
		for _, n := range c.nodes {
			sb.WriteString(c.doc.ElementText(n))
		}
		return strings.TrimSpace(sb.String()), true
	}
	if s, ok := b.str(v); ok {
		return s, true
	}
	return "", false
}

func (r *runner) operandText(b *binding, c candidate, o Operand) (string, bool) {
	if o.Var != "" {
		return r.varText(b, c, o.Var)
	}
	return o.Literal, true
}

// ctxMatch is a before/after candidate: the matched node and its tree
// distance from the target instance.
type ctxMatch struct {
	node  dom.NodeID
	dist  int
	binds map[string]string
}

// contextMatches finds the elements matching the condition's EPD within
// the parent instance that lie before (or after) the target with the
// distance within tolerance. Distance is measured in document-order
// positions between the end of the earlier subtree and the start of the
// later one — 0 means immediately adjacent, as in Figure 5's
// before(..., 0, 0, ...) "immediately precedes" usage.
func (r *runner) contextMatches(s *pib.Instance, c candidate, cc BeforeCond) []ctxMatch {
	if len(s.Nodes) == 0 || len(c.nodes) == 0 {
		return nil
	}
	// The tree was warmed when fetched, so the order predicates below
	// are read-only lookups (an explicit Reindex here would re-walk the
	// tree on every call and race between concurrent runs).
	t := s.Doc
	xStart := t.Pre(c.nodes[0])
	lastNode := c.nodes[len(c.nodes)-1]
	xEnd := t.Pre(lastNode) + t.SubtreeSize(lastNode) // one past the end
	var out []ctxMatch
	for _, m := range r.matchDeep(cc.EPD, t, s.Nodes, s.Kind == pib.SequenceInstance) {
		yStart := t.Pre(m.node)
		yEnd := yStart + t.SubtreeSize(m.node)
		var dist int
		if cc.After {
			// m must start after the target ends.
			if yStart < xEnd {
				continue
			}
			dist = yStart - xEnd
		} else {
			// m's subtree must end before the target starts.
			if yEnd > xStart {
				continue
			}
			dist = xStart - yEnd
		}
		if dist < cc.DMin || dist > cc.DMax {
			continue
		}
		out = append(out, ctxMatch{node: m.node, dist: dist, binds: m.binds})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dist < out[j].dist })
	return out
}
