package transform

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/elog"
	"repro/internal/pib"
	"repro/internal/web"
	"repro/internal/xmlenc"
)

// churnPage is a catalogue page wide enough that per-row contexts give
// the subtree layer something to reuse when only a few rows change.
func churnPage() string {
	var b strings.Builder
	b.WriteString("<html><body><table>\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, `<tr class="book"><td class="title">Volume %d</td><td class="price">%d.50</td></tr>`+"\n", i, 10+i)
	}
	b.WriteString("</table></body></html>")
	return b.String()
}

const churnProg = `page(S, X)  <- document("shop.example.com/churn", S), subelem(S, .body, X)
row(S, X)   <- page(_, S), subelem(S, ?.tr, X)
title(S, X) <- row(_, S), subelem(S, (?.td, [(class, title, exact)]), X)
price(S, X) <- row(_, S), subelem(S, (?.td, [(class, price, exact)]), X)`

func churnDesign() *pib.Design {
	return &pib.Design{Auxiliary: map[string]bool{"document": true, "page": true, "row": true}}
}

func newChurnSource(fetch elog.Fetcher) *WrapperSource {
	return &WrapperSource{
		CompName: "churn",
		Fetcher:  fetch,
		Program:  elog.MustParse(churnProg),
		Design:   churnDesign(),
	}
}

// fullRebuild is the reference the churn source is compared against: a
// fresh compile of churnProg evaluated without incremental reuse,
// transformed with pib.Design.Transform, given the source attribute
// the wrapper source adds, and encoded with xmlenc.MarshalIndentBytes.
func fullRebuild(t *testing.T, fetch elog.Fetcher) []byte {
	t.Helper()
	cp, err := elog.Compile(elog.MustParse(churnProg))
	if err != nil {
		t.Fatal(err)
	}
	base, err := elog.NewEvaluator(fetch).RunCompiled(cp)
	if err != nil {
		t.Fatal(err)
	}
	doc := churnDesign().Transform(base)
	doc.SetAttr("source", "churn")
	return xmlenc.MarshalIndentBytes(doc)
}

// TestWrapperSourceIncrementalDifferential pins the tentpole guarantee
// at the transform level: a long-lived wrapper source polling a
// churning page with incremental matching on emits XML byte-identical
// to a cold full re-evaluation of every document version — under
// content-only churn (where the subtree layer must engage) and under
// structural churn (where trees fall out of document order and the
// evaluator must fall back).
func TestWrapperSourceIncrementalDifferential(t *testing.T) {
	for _, grow := range []bool{false, true} {
		name := "content-churn"
		if grow {
			name = "structural-churn"
		}
		t.Run(name, func(t *testing.T) {
			sim := web.New()
			sim.SetStatic("shop.example.com/churn", churnPage())
			churnInc := &web.ChurnFetcher{Inner: sim, Seed: 7, Grow: grow}
			churnCold := &web.ChurnFetcher{Inner: sim, Seed: 7, Grow: grow}
			inc := newChurnSource(churnInc)
			for step := 0; step < 8; step++ {
				got, err := inc.Poll()
				if err != nil {
					t.Fatalf("step %d incremental: %v", step, err)
				}
				g, w := xmlenc.MarshalIndentBytes(got[0]), fullRebuild(t, churnCold)
				if !bytes.Equal(g, w) {
					t.Fatalf("step %d: incremental output differs from cold re-evaluation:\n--- cold ---\n%s\n--- incremental ---\n%s", step, w, g)
				}
				churnInc.Advance()
				churnCold.Advance()
			}
			st := inc.ExtractionStats()
			if !grow && st.SubtreeHits == 0 {
				t.Error("no subtree hits over a content-only churn sequence")
			}
			if !grow && st.ReusedNodes == 0 {
				t.Error("reused_nodes = 0 over a content-only churn sequence")
			}
			if st.SubtreeHits == 0 && st.SubtreeMisses == 0 && !grow {
				t.Error("incremental counters never moved")
			}
		})
	}
}
