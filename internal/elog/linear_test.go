package elog

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/htmlparse"
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
