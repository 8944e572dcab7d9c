package elog

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/htmlparse"
	"repro/internal/pib"
)

// TestCompiledMatchLinear pins the compiled matcher's cost model with a
// count rather than a timing: each (rule, parent) match works on the
// parent's subtree, not the whole page, so the bytes one extraction
// allocates per catalogue row stay flat as the page grows. A matcher
// that sweeps or allocates page-sized sets per parent makes the
// per-row figure grow with the row count.
func TestCompiledMatchLinear(t *testing.T) {
	const src = `
page(S, X)  <- document("cat", S), subelem(S, .body, X)
item(S, X)  <- page(_, S), subelem(S, ?.tr, X)
title(S, X) <- item(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- item(_, S), subelem(S, (?.td, [(class, price, exact)]), X)`
	perRow := func(rows int) float64 {
		var b strings.Builder
		b.WriteString("<html><body><table>")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, `<tr><td class="title">Item %d</td><td class="price">$ %d.00</td><td>note</td></tr>`, i, i)
		}
		b.WriteString("</table></body></html>")
		doc := htmlparse.Parse(b.String())
		doc.Warm()
		best := -1.0
		for range 3 {
			ev := NewEvaluator(MapFetcher{"cat": doc})
			ev.MaxConcurrency = 1
			cp := MustCompile(MustParse(src))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			base, err := ev.RunCompiled(cp)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(base.Instances("price")); n != rows {
				t.Fatalf("%d rows: extracted %d prices", rows, n)
			}
			if v := float64(after.TotalAlloc-before.TotalAlloc) / float64(rows); best < 0 || v < best {
				best = v
			}
		}
		return best
	}
	small, large := perRow(100), perRow(1600)
	t.Logf("allocated bytes per row: %.0f at 100 rows, %.0f at 1600 rows", small, large)
	if large > 2*small {
		t.Fatalf("allocation per row grew %.1fx from 100 to 1600 rows (%.0f → %.0f B), want ≤ 2x",
			large/small, small, large)
	}
}

// nestedProgram is the recursive wrapper d(S,X) <- d(_,S), subelem(S,.div,X)
// over nestedPage, plus a label rule reading every d instance.
const nestedProgram = `
d(S, X) <- document("deep", S), subelem(S, .body.div, X)
d(S, X) <- d(_, S), subelem(S, .div, X)
label(S, X) <- d(_, S), subelem(S, .b, X)`

// nestedPage returns a warmed page of depth nested divs, each carrying
// a labelled <b> before the next level.
func nestedPage(depth int) *dom.Tree {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := range depth {
		fmt.Fprintf(&b, "<div><b>level %d</b>", i)
	}
	b.WriteString(strings.Repeat("</div>", depth))
	b.WriteString("</body></html>")
	doc := htmlparse.Parse(b.String())
	doc.Warm()
	return doc
}

// TestRecursiveLinear pins the semi-naive fixpoint's cost model: a
// recursive rule visits each parent once, so the bytes one extraction
// allocates per nesting level stay flat as the page deepens. The naive
// fixpoint re-applied the rule to every parent on every pass — one pass
// per level — which made the per-level figure grow with the depth.
func TestRecursiveLinear(t *testing.T) {
	prog := MustParse(nestedProgram)
	for _, compiled := range []bool{false, true} {
		perLevel := func(depth int) float64 {
			doc := nestedPage(depth)
			best := -1.0
			for range 3 {
				ev := NewEvaluator(MapFetcher{"deep": doc})
				ev.MaxConcurrency = 1
				cp := MustCompile(prog)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				var base *pib.Base
				var err error
				if compiled {
					base, err = ev.RunCompiled(cp)
				} else {
					base, err = ev.Run(prog)
				}
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(base.Instances("label")); n != depth {
					t.Fatalf("depth %d: extracted %d labels", depth, n)
				}
				if v := float64(after.TotalAlloc-before.TotalAlloc) / float64(depth); best < 0 || v < best {
					best = v
				}
			}
			return best
		}
		small, large := perLevel(100), perLevel(1600)
		t.Logf("compiled=%v: allocated bytes per level: %.0f at depth 100, %.0f at depth 1600", compiled, small, large)
		if large > 2*small {
			t.Errorf("compiled=%v: allocation per level grew %.1fx from depth 100 to 1600 (%.0f → %.0f B), want ≤ 2x",
				compiled, large/small, small, large)
		}
	}
}

// BenchmarkRecursiveDepth sweeps the nesting depth of the recursive
// wrapper, compiling afresh per run so no match is memoized: with a
// linear fixpoint, ns/op and B/op grow tenfold per step, not a
// hundredfold.
func BenchmarkRecursiveDepth(b *testing.B) {
	prog := MustParse(nestedProgram)
	for _, depth := range []int{100, 1000, 10000} {
		doc := nestedPage(depth)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ev := NewEvaluator(MapFetcher{"deep": doc})
				ev.MaxConcurrency = 1
				base, err := ev.RunCompiled(MustCompile(prog))
				if err != nil {
					b.Fatal(err)
				}
				if n := len(base.Instances("label")); n != depth {
					b.Fatalf("depth %d: extracted %d labels", depth, n)
				}
			}
		})
	}
}
