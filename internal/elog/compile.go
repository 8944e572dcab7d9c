package elog

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/nodeset"
)

// CompiledProgram is a parsed and analyzed Elog program: a reusable
// value mirroring the xpath.Compile design. Compiling resolves the
// stratification once and lowers every element path definition onto
// the packed-bitset kernel — each tag test becomes a word-parallel
// intersection with the document's interned-label bitsets
// (dom.LabelBits), with per-node work left only for the
// attribute/variable conditions. Per-document match results are
// memoized keyed on the tree's content fingerprint, so re-wrapping an
// unchanged page costs hash lookups instead of tree walks.
//
// A CompiledProgram is safe for concurrent use: multiple evaluators
// (server ticks, parallel Run calls) may share one, provided the
// document trees themselves are not shared unwarmed between goroutines
// (the crawl frontier warms every tree it fetches; see dom.Tree.Warm).
type CompiledProgram struct {
	// Program is the source program (read-only after Compile).
	Program *Program
	// waves caches the strata, each planned into waves, so evaluation
	// does not re-plan the concurrency structure on every run.
	waves [][]wave
	epds  map[*EPD]*compiledEPD

	hits, misses atomic.Uint64

	// Incremental-matching counters (see Evaluator.Incremental):
	// subHits/subMisses count per-root subtree-fingerprint lookups,
	// reusedNodes/dirtyNodes the document nodes those roots covered.
	subHits, subMisses      atomic.Uint64
	reusedNodes, dirtyNodes atomic.Uint64
}

// Compile stratifies the program and lowers its element path
// definitions for bitset execution. It fails exactly when Run would:
// on programs with a cycle through a negated pattern reference.
func Compile(p *Program) (*CompiledProgram, error) {
	strata, err := Stratify(p)
	if err != nil {
		return nil, err
	}
	waves := make([][]wave, len(strata))
	for i, rules := range strata {
		waves[i] = planWaves(rules)
	}
	cp := &CompiledProgram{Program: p, waves: waves, epds: map[*EPD]*compiledEPD{}}
	add := func(e *EPD) {
		if e != nil && cp.epds[e] == nil {
			cp.epds[e] = newCompiledEPD(e)
		}
	}
	for _, r := range p.Rules {
		if r.Extract != nil {
			// Subsq Start/End are SelfMatch-only delimiters (per-node
			// checks on already-selected children); nothing to lower.
			add(r.Extract.EPD)
			add(r.Extract.From)
		}
		for _, c := range r.Conds {
			switch cc := c.(type) {
			case BeforeCond:
				add(cc.EPD)
			case ContainsCond:
				add(cc.EPD)
			}
		}
	}
	return cp, nil
}

// MustCompile panics on error, for tests and package-level wrappers.
func MustCompile(p *Program) *CompiledProgram {
	cp, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return cp
}

// Stats returns the cumulative fingerprint-cache counters across all
// compiled paths: hits are pattern matches answered without touching
// the document tree.
func (cp *CompiledProgram) Stats() (hits, misses uint64) {
	return cp.hits.Load(), cp.misses.Load()
}

// IncrementalStats is a snapshot of the subtree-fingerprint reuse
// counters: SubtreeHits/SubtreeMisses count per-root cache lookups
// during incremental matching, ReusedNodes/DirtyNodes the document
// nodes under those roots — reused nodes were resolved from cache
// without touching the tree, dirty nodes ran the bitset matcher.
type IncrementalStats struct {
	SubtreeHits   uint64 `json:"subtree_hits"`
	SubtreeMisses uint64 `json:"subtree_misses"`
	ReusedNodes   uint64 `json:"reused_nodes"`
	DirtyNodes    uint64 `json:"dirty_nodes"`
}

// Incremental returns the cumulative incremental-matching counters
// (all zero unless some evaluator ran with Incremental set).
func (cp *CompiledProgram) Incremental() IncrementalStats {
	return IncrementalStats{
		SubtreeHits:   cp.subHits.Load(),
		SubtreeMisses: cp.subMisses.Load(),
		ReusedNodes:   cp.reusedNodes.Load(),
		DirtyNodes:    cp.dirtyNodes.Load(),
	}
}

// maxEPDCache bounds each compiled path's memo table. Entries are keyed
// per (document fingerprint, context node set), so a parent pattern
// with many instances produces many keys; when the table fills it is
// reset wholesale, like the xpath compiled-query cache.
const maxEPDCache = 4096

// epdCacheKey identifies one memoized match: the document content
// fingerprint, a hash of the context roots, and the two match-mode
// flags. Hash collisions are as unlikely as fingerprint collisions
// (~2^-64), the same trade the xpath cache makes.
type epdCacheKey struct {
	fp, roots  uint64
	asChildren bool
	deep       bool
}

// subKey identifies one memoized per-root match in the subtree-
// fingerprint layer: the root's subtree content hash plus the two
// match-mode flags. Unlike epdCacheKey it carries no document
// fingerprint and no node ids — the entry is content-addressed, so it
// survives across document versions and even across documents.
type subKey struct {
	sub        uint64
	asChildren bool
	deep       bool
}

// relMatch is a cached match in context-relative position: the offset
// of the matched node from the context root. On document-ordered trees
// the subtree of root r occupies exactly the contiguous id range
// [r, r+size), and equal-content subtrees lay out their nodes at equal
// offsets, so r+off re-materializes the match in any document carrying
// an identical subtree at any position. The binds maps are shared with
// the original computation (read-only by the evaluator convention).
type relMatch struct {
	off   dom.NodeID
	binds map[string]string
}

// compiledEPD is one lowered element path definition plus its memo
// tables. The deep variant (implicit leading descent, used by context
// and internal conditions) shares the tables under the keys' deep
// flag. cache memoizes whole calls per document fingerprint; subCache
// memoizes per-root results by subtree fingerprint, feeding the
// incremental path.
type compiledEPD struct {
	epd  *EPD
	deep *EPD
	// sig is a hash of the path's canonical form: the identity under
	// which structurally equal paths of different programs share match
	// results through an attached MatchCache.
	sig uint64

	mu       sync.Mutex
	cache    map[epdCacheKey][]epdMatch
	subCache map[subKey][]relMatch
}

func newCompiledEPD(e *EPD) *compiledEPD {
	return &compiledEPD{
		epd:      e,
		deep:     &EPD{Steps: append([]EPDStep{{Kind: "deep"}}, e.Steps...), Conds: e.Conds},
		sig:      hashString(e.sigString()),
		cache:    map[epdCacheKey][]epdMatch{},
		subCache: map[subKey][]relMatch{},
	}
}

// match evaluates the path over the bitset kernel, memoized per
// document fingerprint and context set — first in the program's own
// table, then (when a fleet-shared MatchCache is attached) in the
// shared one, qualified by the path's signature. Results computed here
// are published to both. The returned slice and the binds maps inside
// it are shared cache entries: callers must treat them as read-only,
// which every evaluator call site does (bindings are copied into fresh
// maps before use).
func (ce *compiledEPD) match(cp *CompiledProgram, shared *MatchCache, t *dom.Tree, roots []dom.NodeID, asChildren, deep, inc bool) []epdMatch {
	key := epdCacheKey{fp: t.Fingerprint(), roots: hashNodes(roots), asChildren: asChildren, deep: deep}
	ce.mu.Lock()
	m, ok := ce.cache[key]
	ce.mu.Unlock()
	if ok {
		cp.hits.Add(1)
		return m
	}
	if shared != nil {
		if m, ok := shared.get(sharedMatchKey{sig: ce.sig, epdCacheKey: key}); ok {
			cp.hits.Add(1)
			ce.store(key, m)
			return m
		}
	}
	cp.misses.Add(1)
	if inc {
		if m, ok := ce.matchIncremental(cp, shared, t, roots, asChildren, deep); ok {
			ce.store(key, m)
			if shared != nil {
				shared.put(sharedMatchKey{sig: ce.sig, epdCacheKey: key}, m)
			}
			return m
		}
	}
	e := ce.epd
	if deep {
		e = ce.deep
	}
	m = bitsetMatch(e, t, roots, asChildren)
	ce.store(key, m)
	if shared != nil {
		shared.put(sharedMatchKey{sig: ce.sig, epdCacheKey: key}, m)
	}
	return m
}

// matchIncremental answers a match miss from the content-addressed
// subtree layer: each context root whose subtree fingerprint was seen
// before — in an earlier version of the document, in another document,
// or via a fleet-shared MatchCache in another wrapper's run —
// re-materializes its cached per-root result by offset translation,
// and only the remaining dirty roots run the bitset matcher (in one
// batched call). Correctness rests on two facts checked here: EPD
// matches from a root depend only on that root's subtree (navigation
// only descends, conditions are subtree-local), and on document-
// ordered trees disjoint subtrees occupy disjoint contiguous id
// ranges, so the per-root results concatenated in ascending root order
// equal the batched document-order output exactly. Trees whose ids are
// not document order, or overlapping context roots, report ok=false
// and fall back to the plain batched path.
func (ce *compiledEPD) matchIncremental(cp *CompiledProgram, shared *MatchCache, t *dom.Tree, roots []dom.NodeID, asChildren, deep bool) ([]epdMatch, bool) {
	if len(roots) == 0 || !t.DocOrdered() {
		return nil, false
	}
	sorted := roots
	if len(roots) > 1 {
		sorted = append(make([]dom.NodeID, 0, len(roots)), roots...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		w := 0
		for i, r := range sorted {
			if i == 0 || sorted[w-1] != r {
				sorted[w] = r
				w++
			}
		}
		sorted = sorted[:w]
		for i := 1; i < len(sorted); i++ {
			if int(sorted[i]) < int(sorted[i-1])+t.SubtreeSize(sorted[i-1]) {
				return nil, false
			}
		}
	}
	perRoot := make([][]epdMatch, len(sorted))
	keys := make([]subKey, len(sorted))
	var dirty []dom.NodeID
	var dirtyIdx []int
	for i, r := range sorted {
		k := subKey{sub: t.SubtreeHash(r), asChildren: asChildren, deep: deep}
		keys[i] = k
		rel, ok := ce.subGet(k)
		if !ok && shared != nil {
			if rel, ok = shared.subGet(sharedSubKey{sig: ce.sig, subKey: k}); ok {
				ce.subStore(k, rel)
			}
		}
		if ok {
			cp.subHits.Add(1)
			cp.reusedNodes.Add(uint64(t.SubtreeSize(r)))
			if len(rel) > 0 {
				out := make([]epdMatch, len(rel))
				for j, m := range rel {
					out[j] = epdMatch{node: r + m.off, binds: m.binds}
				}
				perRoot[i] = out
			}
		} else {
			cp.subMisses.Add(1)
			cp.dirtyNodes.Add(uint64(t.SubtreeSize(r)))
			dirty = append(dirty, r)
			dirtyIdx = append(dirtyIdx, i)
		}
	}
	if len(dirty) > 0 {
		e := ce.epd
		if deep {
			e = ce.deep
		}
		all := bitsetMatch(e, t, dirty, asChildren)
		j := 0
		for k, r := range dirty {
			end := dom.NodeID(int(r) + t.SubtreeSize(r))
			start := j
			for j < len(all) && all[j].node < end {
				j++
			}
			seg := all[start:j:j]
			perRoot[dirtyIdx[k]] = seg
			var rel []relMatch
			if len(seg) > 0 {
				rel = make([]relMatch, len(seg))
				for x, m := range seg {
					rel[x] = relMatch{off: m.node - r, binds: m.binds}
				}
			}
			ce.subStore(keys[dirtyIdx[k]], rel)
			if shared != nil {
				shared.subPut(sharedSubKey{sig: ce.sig, subKey: keys[dirtyIdx[k]]}, rel)
			}
		}
	}
	total := 0
	for _, m := range perRoot {
		total += len(m)
	}
	if total == 0 {
		return nil, true
	}
	if len(perRoot) == 1 {
		return perRoot[0], true
	}
	out := make([]epdMatch, 0, total)
	for _, m := range perRoot {
		out = append(out, m...)
	}
	return out, true
}

// subGet looks a root's cached relative matches up in the per-program
// subtree table.
func (ce *compiledEPD) subGet(k subKey) ([]relMatch, bool) {
	ce.mu.Lock()
	m, ok := ce.subCache[k]
	ce.mu.Unlock()
	return m, ok
}

// subStore inserts into the per-program subtree table, resetting
// wholesale at the size bound like store.
func (ce *compiledEPD) subStore(k subKey, m []relMatch) {
	ce.mu.Lock()
	if len(ce.subCache) >= maxEPDCache {
		ce.subCache = make(map[subKey][]relMatch, 64)
	}
	ce.subCache[k] = m
	ce.mu.Unlock()
}

// store inserts into the per-program memo, resetting wholesale at the
// size bound.
func (ce *compiledEPD) store(key epdCacheKey, m []epdMatch) {
	ce.mu.Lock()
	if len(ce.cache) >= maxEPDCache {
		ce.cache = make(map[epdCacheKey][]epdMatch, 64)
	}
	ce.cache[key] = m
	ce.mu.Unlock()
}

// bitsetMatch is the compiled analogue of EPD.Match. It works only on
// the window of node ids the context roots' subtrees occupy: navigation
// only descends, so every match lies there. On document-ordered trees
// the window is [min root, max(root+subtree size)); otherwise it is the
// whole tree. Either way parents carry smaller ids than their children,
// which is all the sweeps below rely on. Sets are packed bitsets over
// the window's words only (bit = id − base): descent is one ascending
// parent sweep, a child step walks the members' child lists, and tag,
// star and kind tests are word-parallel ANDs with the window's slice of
// the interned label and kind bitsets, so a match costs
// O(|window|/64 + matched children) rather than the page. Only the
// attribute conditions fall back to per-node checks.
//
// A path without a descent step skips the window: its matches lie at
// most len(e.Steps) levels below a root, so the interpreter's
// child-list walk touches only those levels, while the window spans the
// roots' whole subtrees — on a deeply nested page, a cost per parent
// proportional to its subtree.
//
// Matches come out in document order; the interpreter's discovery order
// can differ, but the match sets are identical and every downstream
// consumer is order-insensitive (the XML transformer re-sorts siblings
// by document order).
func bitsetMatch(e *EPD, t *dom.Tree, roots []dom.NodeID, rootsAsChildren bool) []epdMatch {
	if len(roots) == 0 {
		return nil
	}
	if !slices.ContainsFunc(e.Steps, func(st EPDStep) bool { return st.Kind == "deep" }) {
		// Nested roots can make the walk's discovery order differ
		// from document order.
		m := e.Match(t, roots, rootsAsChildren)
		byPre := func(a, b epdMatch) int { return t.Pre(a.node) - t.Pre(b.node) }
		if !slices.IsSortedFunc(m, byPre) {
			slices.SortFunc(m, byPre)
		}
		return m
	}
	lo, hi := 0, t.Size()
	if t.DocOrdered() {
		lo, hi = int(roots[0]), 0
		for _, r := range roots {
			lo, hi = min(lo, int(r)), max(hi, int(r)+t.SubtreeSize(r))
		}
	}
	w0 := lo >> 6
	nw := (hi+63)>>6 - w0
	base := w0 << 6
	buf := make([]uint64, 2*nw)
	ctx, spare := buf[:nw:nw], buf[nw:]
	for _, r := range roots {
		i := int(r) - base
		ctx[i>>6] |= 1 << (i & 63)
	}
	elem := t.KindBits(dom.Element)[w0 : w0+nw]
	for si := range e.Steps {
		step := &e.Steps[si]
		if step.Kind == "deep" {
			for y := lo; y < hi; y++ {
				p := int(t.Parent(dom.NodeID(y))) - base
				if p >= 0 && ctx[p>>6]&(1<<(p&63)) != 0 {
					i := y - base
					ctx[i>>6] |= 1 << (i & 63)
				}
			}
			continue
		}
		if si > 0 || !rootsAsChildren {
			clear(spare)
			for wi, w := range ctx {
				for ; w != 0; w &= w - 1 {
					x := dom.NodeID(base + wi<<6 + bits.TrailingZeros64(w))
					for c := t.FirstChild(x); c != dom.Nil; c = t.NextSibling(c) {
						i := int(c) - base
						spare[i>>6] |= 1 << (i & 63)
					}
				}
			}
			ctx, spare = spare, ctx
		}
		switch step.Kind {
		case "tag":
			clear(spare)
			orLabel := func(tag string) {
				if id := t.LabelIDFor(tag); id != dom.NoLabel {
					for i, w := range t.LabelBits(id)[w0 : w0+nw] {
						spare[i] |= w
					}
				}
			}
			orLabel(step.Tag)
			for _, tag := range step.Alts {
				orLabel(tag)
			}
			for i := range ctx {
				ctx[i] &= spare[i] & elem[i]
			}
		case "star":
			for i := range ctx {
				ctx[i] &= elem[i]
			}
		default: // "content": any child node
		}
		if !slices.ContainsFunc(ctx, func(w uint64) bool { return w != 0 }) {
			return nil
		}
	}
	nodes := nodeset.MembersOf(ctx)
	for i := range nodes {
		nodes[i] += dom.NodeID(base)
	}
	if !t.DocOrdered() {
		nodes = t.SortDocOrder(nodes)
	}
	return e.applyConds(t, nodes)
}

// hashString is FNV-1a over a string.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// hashNodes is FNV-1a over the context node ids.
func hashNodes(nodes []dom.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, n := range nodes {
		h = (h ^ uint64(uint32(n))) * prime64
	}
	return h
}
