package elog

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
)

// fuzzTree is a fixed, warmed document the EPD fuzzer matches against,
// so every parsed path is also executed — interpreted and compiled —
// and the two matchers are cross-checked on arbitrary inputs.
var fuzzTree = func() *dom.Tree {
	t := htmlparse.Parse(`<html><body>
<table class="books"><tr class="book"><td class="title">A</td><td class="price">$ 1.00</td></tr>
<tr><td><a href="x">link</a></td></tr></table>
<div id="d"><span>text</span><!-- c --><p>more <b>bold</b></p></div>
<hr><ul><li>one<li>two</ul>
</body></html>`)
	t.Warm()
	return t
}()

// fuzzTreeBFS is fuzzTree rebuilt by appending children breadth-first,
// so its ids are not in document order and the compiled matcher's
// window is the whole tree.
var fuzzTreeBFS = func() *dom.Tree {
	src := fuzzTree
	t := dom.New(src.Size())
	t.AddRoot(src.Label(src.Root()))
	t.SetAttrs(t.Root(), src.Attrs(src.Root()))
	type pair struct{ from, to dom.NodeID }
	for queue := []pair{{src.Root(), t.Root()}}; len(queue) > 0; queue = queue[1:] {
		p := queue[0]
		for c := src.FirstChild(p.from); c != dom.Nil; c = src.NextSibling(c) {
			var n dom.NodeID
			switch src.Kind(c) {
			case dom.Text:
				n = t.AppendText(p.to, src.Text(c))
			case dom.Comment:
				n = t.AppendComment(p.to, src.Text(c))
			default:
				n = t.AppendChild(p.to, src.Label(c))
				t.SetAttrs(n, src.Attrs(c))
			}
			queue = append(queue, pair{c, n})
		}
	}
	t.Warm()
	return t
}()

// fuzzRoots picks context roots from a seed: mode 0 is the document
// root, 1 one node anywhere, 2 several pairwise disjoint nodes (in
// arbitrary order), 3 a node together with some of its ancestors
// (nested, overlapping subtrees).
func fuzzRoots(t *dom.Tree, mode uint8, pick uint32) []dom.NodeID {
	rng := rand.New(rand.NewSource(int64(pick)))
	x := dom.NodeID(rng.Intn(t.Size()))
	switch mode {
	case 0:
		return []dom.NodeID{t.Root()}
	case 1:
		return []dom.NodeID{x}
	case 2:
		var roots []dom.NodeID
		for _, i := range rng.Perm(t.Size()) {
			y := dom.NodeID(i)
			if !slices.ContainsFunc(roots, func(r dom.NodeID) bool {
				return t.IsAncestorOrSelf(r, y) || t.IsAncestorOrSelf(y, r)
			}) {
				roots = append(roots, y)
			}
			if len(roots) == 1+int(pick%4) {
				break
			}
		}
		return roots
	default:
		roots := []dom.NodeID{x}
		for a := t.Parent(x); a != dom.Nil; a = t.Parent(a) {
			if rng.Intn(2) == 0 || len(roots) == 1 {
				roots = append(roots, a)
			}
		}
		return roots
	}
}

// FuzzParseEPD is the native fuzz target for element path definitions:
// ParseEPD must never panic; on accepted inputs the textual form must
// re-parse, and the compiled matcher — called directly and through the
// memoized incremental path — must produce exactly the interpreter's
// matches, in document order. variant selects the match: bit 0
// asChildren, bit 1 the deep variant, bit 2 the breadth-first tree,
// bits 3-4 the root mode (see fuzzRoots), seeded by pick.
//
// Run with `go test -fuzz=FuzzParseEPD ./internal/elog`; without -fuzz
// the seed corpus doubles as a regression test.
func FuzzParseEPD(f *testing.F) {
	seeds := []string{
		".body",
		"?.td",
		".*",
		"?",
		".content",
		".table.tr.td",
		"?.td.?.a",
		".td|th",
		"(?.td, [(elementtext, \\var[Y].*, regvar)])",
		"(.table, [(elementtext, item, substr)])",
		"(?.a, [(class, next, exact), (href, ., regexp)])",
		"(.div, [id, d, exact])",
		"( , )",
		".",
		"?..",
		"(?.td, [(elementtext, [bad(regexp, regvar)])",
		"....",
		".#text",
		"?.*.?",
		"?.p|li.content",
	}
	for i, s := range seeds {
		for v := 0; v < 32; v++ {
			f.Add(s, uint32(i*7919+v*104729), uint8(v))
		}
	}
	f.Fuzz(func(t *testing.T, src string, pick uint32, variant uint8) {
		if len(src) > 512 {
			return // bound regexp compilation work
		}
		e, err := ParseEPD(src)
		if err != nil {
			return
		}
		if len(e.Steps) == 0 {
			t.Fatalf("ParseEPD(%q) accepted a path with no steps", src)
		}
		if _, err := ParseEPD(e.String()); err != nil {
			t.Fatalf("round trip of %q failed: %v", src, err)
		}
		asChildren, deep := variant&1 != 0, variant&2 != 0
		tree := fuzzTree
		if variant&4 != 0 {
			tree = fuzzTreeBFS
			if tree.DocOrdered() {
				t.Fatal("breadth-first fixture is in document order")
			}
		}
		roots := fuzzRoots(tree, variant>>3&3, pick)
		ce := newCompiledEPD(e)
		interp, path := e.Match(tree, roots, asChildren), ce.epd
		if deep {
			interp, path = e.MatchDeep(tree, roots, asChildren), ce.deep
		}
		want := renderMatches(interp)
		compiled := bitsetMatch(path, tree, roots, asChildren)
		memo := ce.match(&CompiledProgram{}, nil, tree, roots, asChildren, deep, true)
		for name, got := range map[string][]epdMatch{"bitsetMatch": compiled, "incremental match": memo} {
			if s := renderMatches(got); s != want {
				t.Fatalf("path %q roots %v asChildren=%v deep=%v docOrdered=%v: %s matched %s, interpreter matched %s",
					src, roots, asChildren, deep, tree.DocOrdered(), name, s, want)
			}
			for i := 1; i < len(got); i++ {
				if !tree.DocBefore(got[i-1].node, got[i].node) {
					t.Fatalf("path %q: %s output not in document order: %v", src, name, got)
				}
			}
		}
	})
}

// renderMatches renders matches as a canonical string: node ids in
// ascending order, each with its bindings.
func renderMatches(ms []epdMatch) string {
	ms = slices.Clone(ms)
	slices.SortFunc(ms, func(a, b epdMatch) int { return int(a.node) - int(b.node) })
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "%d%v ", m.node, m.binds)
	}
	return sb.String()
}

// FuzzParseProgram fuzzes the full Elog program parser: Parse must
// never panic, and accepted programs must re-parse from their textual
// form, stratify deterministically, and compile.
func FuzzParseProgram(f *testing.F) {
	seeds := []string{
		`p(S, X) <- document("u", S), subelem(S, .body, X)`,
		`p(S, X) <- document("u", S), subelem(S, .body, X)
q(S, X) <- p(_, S), subelem(S, ?.td, X), before(S, X, .hr, 0, 2, Y, D), isCurrency(Y)`,
		`p(S, X) <- document("u", S), subsq(S, (.body, []), (.table, []), (.hr, []), X)
q(S, X) <- p(_, S), subtext(S, \var[Y].*, X), not q2(_, Y)
q2(S, X) <- p(_, S), subatt(S, href, X)`,
		`a(S, X) <- document("u", S), getDocument(S, X)`,
		`p(S, X) <- p(_, S), subelem(S, .b, X)`,
		`p(S, X) <- document("u", S), subelem(S, .b, X), not p(_, X)`,
		"p(S,X) <- q(S,X)\n",
		"% comment only",
		"p(S, X) <- document(\"u\", S), subelem(S, .body, X), >=(X, \"10\")",
		"broken <- <- (",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			return
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Parse(p.String()); err != nil {
			t.Fatalf("round trip failed: %v\nprogram:\n%s", err, p)
		}
		strata1, err1 := Stratify(p)
		strata2, err2 := Stratify(p)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Stratify not deterministic: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(strata1) != len(strata2) {
			t.Fatalf("Stratify heights differ: %d vs %d", len(strata1), len(strata2))
		}
		cp, err := Compile(p)
		if err != nil {
			t.Fatalf("Stratify accepted but Compile rejected: %v", err)
		}
		if cp.Program != p {
			t.Fatal("Compile lost the program")
		}
	})
}
