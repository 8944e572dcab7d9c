package elog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/htmlparse"
	"repro/internal/pib"
)

// Vocabulary of the random pages: a few tags, class values, anchor
// targets — three real pages and two dangling links — and text words,
// some of which double as crawlable URLs.
var (
	fuzzTags  = []string{"div", "p", "b", "a", "span", "i", "hr"}
	fuzzLinks = []string{"d1", "d2", "d3", "gone1", "gone2"}
	fuzzWords = []string{"$ 5", "item", "12", "d2", "gone1", "Euro 7"}
	fuzzPaths = []string{".body", ".div", "?.b", "?.a", ".*", "?.*", ".p.b", "?.div.b",
		"(?.*, [(class, x, exact)])", "(?.b, [(elementtext, \\var[Y].*, regvar)])", ".div|span", "?.i.#text"}
	fuzzCondPaths = []string{"?.b", ".hr", "?.a", "(?.*, [(class, y, exact)])"}
)

// fuzzPage renders a random page: nested elements up to depth levels,
// text leaves, and with some probability a long chain of nested divs,
// the shape recursive rules descend.
func fuzzPage(g *rand.Rand, depth int) string {
	var b strings.Builder
	b.WriteString("<html><body>")
	var gen func(d int)
	gen = func(d int) {
		for range 1 + g.Intn(4) {
			if d == 0 || g.Intn(4) == 0 {
				b.WriteString(fuzzWords[g.Intn(len(fuzzWords))])
				continue
			}
			tag := fuzzTags[g.Intn(len(fuzzTags))]
			if tag == "hr" {
				b.WriteString("<hr>")
				continue
			}
			b.WriteString("<" + tag)
			if g.Intn(3) == 0 {
				fmt.Fprintf(&b, ` class="%c"`, "xy"[g.Intn(2)])
			}
			if tag == "a" {
				fmt.Fprintf(&b, ` href="%s"`, fuzzLinks[g.Intn(len(fuzzLinks))])
			}
			b.WriteString(">")
			gen(d - 1)
			b.WriteString("</" + tag + ">")
		}
	}
	gen(depth)
	if g.Intn(3) == 0 {
		n := 5 + g.Intn(30)
		for i := range n {
			fmt.Fprintf(&b, `<div><b>%s</b>`, fuzzWords[(i+g.Intn(2))%len(fuzzWords)])
		}
		b.WriteString(strings.Repeat("</div>", n))
	}
	b.WriteString("</body></html>")
	return b.String()
}

// fuzzRule is one generated rule before rendering: the head, its parent
// (empty for a document entry rule), the extraction atom and the
// conditions.
type fuzzRule struct {
	head, parent, doc string
	extract           string // "" for a specialization rule
	conds             []string
}

func (r fuzzRule) String() string {
	var atoms []string
	switch {
	case r.doc != "":
		atoms = append(atoms, fmt.Sprintf("document(%q, S)", r.doc), r.extract)
	case r.extract == "":
		atoms = append(atoms, r.parent+"(S, X)")
	default:
		atoms = append(atoms, r.parent+"(_, S)", r.extract)
	}
	return r.head + "(S, X) <- " + strings.Join(append(atoms, r.conds...), ", ")
}

// fuzzProgram generates a random Elog program. Node patterns n0…n4 hold
// element instances, string patterns s0, s1 attribute values and text;
// rules may read their own head (recursion), specialize, crawl with
// getDocument, and carry before/after/contains/firstsubtree conditions
// and positive or negated pattern references — the latter chosen
// across the whole program, so references within one stratum and
// stratified negation both arise.
func fuzzProgram(g *rand.Rand) string {
	nodes := []string{"n0"}
	var strs []string
	rules := []fuzzRule{{head: "n0", doc: "d0", extract: "subelem(S, .body, X)"}}
	pick := func(s []string) string { return s[g.Intn(len(s))] }
	nodeHead := func() string {
		h := fmt.Sprintf("n%d", g.Intn(5))
		if !slices.Contains(nodes, h) {
			nodes = append(nodes, h)
		}
		return h
	}
	for range 2 + g.Intn(7) {
		var r fuzzRule
		switch k := g.Intn(12); {
		case k < 6:
			parent := pick(nodes)
			r = fuzzRule{head: nodeHead(), extract: "subelem(S, " + pick(fuzzPaths) + ", X)"}
			r.parent = parent
			if g.Intn(4) == 0 {
				r.parent = r.head // self-recursive
			}
		case k < 7:
			// A specialization of its own head would chain a new
			// instance onto every instance until the instance limit.
			parent := pick(nodes)
			r = fuzzRule{head: nodeHead(), parent: parent}
			if r.head == parent {
				continue
			}
		case k < 9:
			r = fuzzRule{head: fmt.Sprintf("s%d", g.Intn(2)), parent: pick(nodes)}
			if g.Intn(2) == 0 {
				r.extract = "subatt(S, href, X)"
			} else {
				r.extract = `subtext(S, [a-z0-9]+, X)`
			}
			if !slices.Contains(strs, r.head) {
				strs = append(strs, r.head)
			}
		case k < 11:
			parent := pick(nodes)
			if len(strs) > 0 && g.Intn(3) > 0 {
				parent = pick(strs)
			}
			r = fuzzRule{head: nodeHead(), parent: parent, extract: "getDocument(S, X)"}
		default:
			r = fuzzRule{head: nodeHead(), doc: pick([]string{"d0", "d1"}), extract: "subelem(S, " + pick(fuzzPaths) + ", X)"}
		}
		rules = append(rules, r)
	}
	// Conditions go on rules whose X is an element (string instances
	// have no node to test), after every head is known.
	for i := range rules {
		r := &rules[i]
		if strings.HasPrefix(r.head, "s") {
			continue
		}
		n := g.Intn(3)
		if r.extract == "" {
			n++ // a specialization without conditions copies its parent
		}
		for range n {
			var c string
			switch g.Intn(8) {
			case 0:
				c = fmt.Sprintf("before(S, X, %s, 0, %d, Y, _), %s(_, Y)", pick(fuzzCondPaths), 5+g.Intn(40), pick(nodes))
			case 1:
				c = fmt.Sprintf("notbefore(S, X, %s, 0, %d, _, _)", pick(fuzzCondPaths), g.Intn(20))
			case 2:
				c = fmt.Sprintf("after(S, X, %s, 0, %d, _, _)", pick(fuzzCondPaths), g.Intn(30))
			case 3:
				c = "firstsubtree(S, X)"
			case 4:
				c = fmt.Sprintf("contains(X, %s, _)", pick(fuzzCondPaths))
			case 5:
				c = fmt.Sprintf("notcontains(X, %s, _)", pick(fuzzCondPaths))
			case 6:
				c = pick(nodes) + "(_, X)"
			default:
				// Negate only lower-numbered patterns, which keeps most
				// programs stratifiable.
				if lower := nodes[:slices.Index(nodes, r.head)]; r.doc == "" && len(lower) > 0 {
					c = "not " + pick(lower) + "(_, X)"
				} else {
					c = pick(nodes) + "(_, X)"
				}
			}
			r.conds = append(r.conds, c)
		}
	}
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String() + "\n")
	}
	return b.String()
}

// canonicalBase renders a base independently of commit order: one line
// per instance naming its content and its whole ancestor chain, sorted.
// The interpreter and the compiled matcher may discover matches in
// different orders, so their bases agree as sets while instance ids
// differ.
func canonicalBase(b *pib.Base) string {
	memo := map[*pib.Instance]string{}
	var key func(in *pib.Instance) string
	key = func(in *pib.Instance) string {
		if k, ok := memo[in]; ok {
			return k
		}
		k := fmt.Sprintf("%s kind=%d url=%s nodes=%v text=%q", in.Pattern, in.Kind, in.URL, in.Nodes, in.Text)
		if in.Parent != nil {
			k += " < " + key(in.Parent)
		}
		memo[in] = k
		return k
	}
	var lines []string
	for _, p := range b.Patterns() {
		for _, in := range b.Instances(p) {
			lines = append(lines, key(in))
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// FuzzElogProgram is the whole-program differential fuzzer. From a
// seed it generates a small web — pages d0…d3 with links among them and
// to two dangling URLs — and a random program over it (see fuzzProgram),
// then evaluates it every way the evaluator can: interpreted and
// compiled, each at concurrency 1 and GOMAXPROCS, compiled with
// incremental matching and a shared match cache, and the test-only
// naive fixpoint (runNaive) as
// the reference. Within the interpreted and within the compiled runs,
// the bases — ids and commit order included — and the errors must be
// bit-identical to the naive reference's; across the two, the bases
// must agree as sets when both succeed.
//
// Run with `go test -fuzz=FuzzElogProgram ./internal/elog`; without
// -fuzz the seed corpus doubles as a regression test.
func FuzzElogProgram(f *testing.F) {
	for seed := range int64(48) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := rand.New(rand.NewSource(seed))
		fetch := MapFetcher{}
		for i := range 4 {
			doc := htmlparse.Parse(fuzzPage(g, 3+g.Intn(3)))
			doc.Warm()
			fetch[fmt.Sprintf("d%d", i)] = doc
		}
		src := fuzzProgram(g)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		if _, err := Stratify(prog); err != nil {
			return // a cycle through negation: no stratified semantics
		}
		maxDocs := []int{3, 8}[g.Intn(2)]
		newEv := func(conc int) *Evaluator {
			ev := NewEvaluator(fetch)
			ev.MaxConcurrency = conc
			ev.MaxDocuments = maxDocs
			ev.MaxInstances = 1000
			return ev
		}
		type result struct {
			dump string
			err  string
		}
		outcome := func(b *pib.Base, err error) result {
			r := result{dump: b.Dump()}
			if err != nil {
				r.err = err.Error()
			}
			return r
		}
		check := func(group string, want result, runs map[string]result) {
			for name, got := range runs {
				if got != want {
					t.Fatalf("%s %s diverges from the naive fixpoint\nprogram:\n%s--- naive (err %q) ---\n%s--- %s (err %q) ---\n%s",
						group, name, src, want.err, want.dump, name, got.err, got.dump)
				}
			}
		}
		// At least 2, so the wave-parallel path runs on a one-CPU box.
		all := max(2, runtime.GOMAXPROCS(0))

		interpBase, interpErr := runNaive(newEv(1), prog, nil)
		interp := map[string]result{}
		for _, conc := range []int{1, all} {
			interp[fmt.Sprintf("conc=%d", conc)] = outcome(newEv(conc).Run(prog))
		}
		check("interpreted", outcome(interpBase, interpErr), interp)

		compBase, compErr := runNaive(newEv(1), prog, MustCompile(prog))
		comp := map[string]result{}
		for _, conc := range []int{1, all} {
			comp[fmt.Sprintf("conc=%d", conc)] = outcome(newEv(conc).RunCompiled(MustCompile(prog)))
		}
		inc := newEv(all)
		inc.Incremental, inc.Shared = true, NewMatchCache()
		comp["incremental"] = outcome(inc.RunCompiled(MustCompile(prog)))
		check("compiled", outcome(compBase, compErr), comp)

		if interpErr == nil && compErr == nil {
			if a, b := canonicalBase(interpBase), canonicalBase(compBase); a != b {
				t.Fatalf("interpreted and compiled bases differ as sets\nprogram:\n%s--- interpreted ---\n%s\n--- compiled ---\n%s", src, a, b)
			}
		}
	})
}
