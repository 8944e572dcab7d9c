package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/web"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

const spliceProg = `
page(S, X) <- document("churn.test/cat", S), subelem(S, .body, X)
row(S, X)  <- page(_, S), subelem(S, ?.tr, X)
name(S, X) <- row(_, S), subelem(S, (?.td, [(class, name, exact)]), X)
`

// newSplicePipe builds a scheduled dynamic pipeline over a churning
// catalogue page: each bump rewrites exactly one row, leaving the rest
// byte-identical — the shape where incremental output reuses frozen
// row subtrees and the delivery encoder can splice their bytes. It
// returns the simulated web so the test can render the same page
// version through the full-rebuild oracle.
func newSplicePipe(t *testing.T, name string) (d *dynPipeline, sim *web.Web, bump func()) {
	t.Helper()
	const rows = 16
	version := 0
	sim = web.New()
	sim.SetPage("churn.test/cat", func() string {
		var sb strings.Builder
		sb.WriteString("<html><body><table>")
		for r := 0; r < rows; r++ {
			v := 0
			if r == version%rows {
				v = version
			}
			fmt.Fprintf(&sb, `<tr><td class="name">catalogue item %d revision %d</td></tr>`, r, v)
		}
		sb.WriteString("</table></body></html>")
		return sb.String()
	})
	w, err := lixto.Compile(spliceProg, lixto.WithAuxiliary("page"), lixto.WithFetcher(sim),
		lixto.WithIncrementalOutput(true))
	if err != nil {
		t.Fatal(err)
	}
	return newDynPipeline(name, w, sim, nil), sim, func() { version++ }
}

// spliceOracle renders the page's current version as a full rebuild:
// a fresh compile evaluated without incremental reuse, transformed
// with pib.Design.Transform and encoded with xmlenc.MarshalIndentBytes.
func spliceOracle(t *testing.T, sim *web.Web) []byte {
	t.Helper()
	w, err := lixto.Compile(spliceProg, lixto.WithAuxiliary("page"), lixto.WithFetcher(sim),
		lixto.WithIncremental(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Extract(context.Background(), lixto.Origin())
	if err != nil {
		t.Fatal(err)
	}
	return xmlenc.MarshalIndentBytes(w.Design().Transform(res.Base))
}

// TestDeliverySpliceEncoding pins the splice path end to end through
// the real scheduled route: a churning wrapper serves bodies and ETags
// byte-identical to a full rebuild of every page version, while its
// delivery encoder splices reused byte ranges — and the counter is
// visible in the GET /v1/wrappers listing.
func TestDeliverySpliceEncoding(t *testing.T) {
	sInc := New(Config{})
	pInc, sim, bumpInc := newSplicePipe(t, "cat")
	if err := sInc.RegisterDynamic(pInc, 0, true); err != nil {
		t.Fatal(err)
	}
	tsInc := httptest.NewServer(sInc.Handler())
	defer tsInc.Close()

	for i := 0; i < 6; i++ {
		if err := pInc.Tick(); err != nil {
			t.Fatal(err)
		}
		sInc.readPipe("cat").deliver.snapshot(pInc.out)
		_, bodyInc, hdrInc := do(t, "GET", tsInc.URL+"/cat", nil)
		if !strings.Contains(bodyInc, "<row>") || !strings.Contains(bodyInc, "catalogue item") {
			t.Fatalf("round %d: extraction produced no rows (vacuous differential):\n%s", i, bodyInc)
		}
		full := spliceOracle(t, sim)
		if bodyInc != string(full) {
			t.Fatalf("round %d: spliced body diverges from full rebuild:\n--- spliced ---\n%s--- full ---\n%s",
				i, bodyInc, full)
		}
		if got, want := hdrInc.Get("ETag"), etagFor(full, 'x'); got != want {
			t.Fatalf("round %d: ETag %q, full rebuild %q", i, got, want)
		}
		bumpInc()
	}

	if got := sInc.readPipe("cat").deliver.splicedBytes(); got == 0 {
		t.Error("incremental server spliced no bytes over 6 one-row-churn rounds")
	}

	// The counter surfaces through the public listing.
	var listing struct {
		Wrappers []struct {
			Name       string `json:"name"`
			Extraction struct {
				SplicedBytes   uint64 `json:"encode_spliced_bytes"`
				OutputReused   uint64 `json:"output_reused_nodes"`
				InstancesSame  uint64 `json:"instances_unchanged"`
				InstancesAdded uint64 `json:"instances_added"`
			} `json:"extraction"`
		} `json:"wrappers"`
	}
	_, body, _ := do(t, "GET", tsInc.URL+"/v1/wrappers", nil)
	if err := jsonUnmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range listing.Wrappers {
		if w.Name != "cat" {
			continue
		}
		found = true
		if w.Extraction.SplicedBytes == 0 {
			t.Errorf("listing encode_spliced_bytes = 0: %s", body)
		}
		if w.Extraction.OutputReused == 0 || w.Extraction.InstancesSame == 0 {
			t.Errorf("listing output reuse counters empty: %s", body)
		}
	}
	if !found {
		t.Fatalf("wrapper cat missing from listing: %s", body)
	}

	// One-shot extractions reuse through the SDK wrapper itself (not
	// the scheduled source): the delivery encoder keeps splicing and
	// the wrapper's own output-cache counters surface in the stats.
	spliceBefore := sInc.readPipe("cat").deliver.splicedBytes()
	reusedBefore := pInc.ExtractionStats().OutputReusedNodes
	for i := 0; i < 3; i++ {
		bumpInc()
		if code, body, _ := do(t, "POST", tsInc.URL+"/v1/wrappers/cat/extract",
			map[string]any{}); code != 200 {
			t.Fatalf("one-shot extract %d: %d %s", i, code, body)
		}
	}
	if got := sInc.readPipe("cat").deliver.splicedBytes(); got <= spliceBefore {
		t.Errorf("one-shot extractions spliced nothing: %d -> %d bytes", spliceBefore, got)
	}
	if got := pInc.ExtractionStats().OutputReusedNodes; got <= reusedBefore {
		t.Errorf("one-shot output reuse not in stats: %d -> %d reused nodes", reusedBefore, got)
	}
}
